/** @file Unit tests for the two-level hierarchy with prefetching. */

#include <gtest/gtest.h>

#include "mem/hierarchy.h"

namespace csp::mem {
namespace {

MemoryConfig
defaultMem()
{
    return MemoryConfig{};
}

TEST(Hierarchy, ColdMissGoesToMemory)
{
    Hierarchy h(defaultMem());
    const AccessResult r = h.access(0x10000, 0);
    EXPECT_TRUE(r.l1_miss);
    EXPECT_TRUE(r.l2_miss);
    EXPECT_EQ(r.level, ServiceLevel::Memory);
    // latency: L1 lat (2) + L2 lat (20) + DRAM (300) = 322.
    EXPECT_EQ(r.complete, 322u);
}

TEST(Hierarchy, SecondAccessHitsL1)
{
    Hierarchy h(defaultMem());
    const AccessResult first = h.access(0x10000, 0);
    const AccessResult second = h.access(0x10008, first.complete + 1);
    EXPECT_FALSE(second.l1_miss);
    EXPECT_EQ(second.level, ServiceLevel::L1);
    EXPECT_EQ(second.complete, first.complete + 1 + 2);
}

TEST(Hierarchy, InFlightMergeShortensWait)
{
    Hierarchy h(defaultMem());
    const AccessResult first = h.access(0x10000, 0);
    // Same line again while the fill is still in flight.
    const AccessResult second = h.access(0x10000, 10);
    EXPECT_TRUE(second.l1_miss);
    EXPECT_EQ(second.level, ServiceLevel::L1InFlight);
    EXPECT_EQ(second.complete, first.complete);
    // No extra DRAM access.
    EXPECT_EQ(h.stats().l2_demand_misses, 1u);
}

TEST(Hierarchy, L2HitAfterL1Eviction)
{
    MemoryConfig config = defaultMem();
    config.l1d.size_bytes = 2 * 64; // 1 set x 2 ways: tiny L1
    config.l1d.ways = 2;
    Hierarchy h(config);
    Cycle t = 0;
    // Fill three distinct lines: first one gets evicted from L1.
    for (Addr a : {0x10000, 0x20000, 0x30000}) {
        t = h.access(a, t).complete + 1;
    }
    const AccessResult r = h.access(0x10000, t);
    EXPECT_TRUE(r.l1_miss);
    EXPECT_FALSE(r.l2_miss);
    EXPECT_EQ(r.level, ServiceLevel::L2);
}

TEST(Hierarchy, PrefetchedLineClassifiedOnDemandHit)
{
    Hierarchy h(defaultMem());
    EXPECT_EQ(h.prefetch(0x40000, 0, 0), PrefetchOutcome::Issued);
    const AccessResult r = h.access(0x40000, 1000);
    EXPECT_FALSE(r.l1_miss);
    EXPECT_TRUE(r.hit_prefetched_line);
    // A second hit no longer counts as prefetched (already used).
    const AccessResult r2 = h.access(0x40000, 1100);
    EXPECT_FALSE(r2.hit_prefetched_line);
}

TEST(Hierarchy, InFlightPrefetchGivesShorterWait)
{
    Hierarchy h(defaultMem());
    h.prefetch(0x40000, 0, 0);
    const AccessResult r = h.access(0x40000, 100); // fill lands at 322
    EXPECT_TRUE(r.l1_miss);
    EXPECT_TRUE(r.shorter_wait);
    EXPECT_LT(r.complete, 100 + 322);
}

TEST(Hierarchy, DuplicatePrefetchReported)
{
    Hierarchy h(defaultMem());
    EXPECT_EQ(h.prefetch(0x40000, 0, 0), PrefetchOutcome::Issued);
    EXPECT_EQ(h.prefetch(0x40000, 1, 0),
              PrefetchOutcome::AlreadyHere);
    EXPECT_EQ(h.stats().prefetches_duplicate, 1u);
}

TEST(Hierarchy, PrefetchDroppedWhenL2MshrsSaturated)
{
    MemoryConfig config = defaultMem();
    config.l2.mshrs = 1;
    config.l2_mshr_reserve = 0;
    config.prefetch_mshr_wait_limit = 10;
    Hierarchy h(config);
    h.access(0x10000, 0); // occupies the single L2 MSHR until ~322
    EXPECT_EQ(h.prefetch(0x40000, 1, 0), PrefetchOutcome::NoMshr);
    EXPECT_EQ(h.stats().prefetches_dropped, 1u);
}

TEST(Hierarchy, PrefetchReserveProtectsDemands)
{
    MemoryConfig config = defaultMem();
    config.l2.mshrs = 4;
    config.l2_mshr_reserve = 4; // reserve everything
    Hierarchy h(config);
    EXPECT_EQ(h.prefetch(0x40000, 0, 0), PrefetchOutcome::NoMshr);
}

TEST(Hierarchy, UnusedPrefetchCountedAtFinish)
{
    Hierarchy h(defaultMem());
    h.prefetch(0x40000, 0, 0);
    h.prefetch(0x50000, 0, 0);
    h.access(0x40000, 1000); // uses the first one
    h.finish();
    EXPECT_EQ(h.stats().prefetchesNeverHit(), 1u);
}

TEST(Hierarchy, DramBandwidthSpacesFills)
{
    MemoryConfig config = defaultMem();
    config.dram_issue_interval = 50;
    Hierarchy h(config);
    const AccessResult a = h.access(0x10000, 0);
    const AccessResult b = h.access(0x20000, 0);
    EXPECT_EQ(b.complete - a.complete, 50u);
}

TEST(Hierarchy, MshrLimitSerialisesMisses)
{
    MemoryConfig config = defaultMem();
    config.l1d.mshrs = 1;
    config.dram_issue_interval = 0;
    Hierarchy h(config);
    const AccessResult a = h.access(0x10000, 0);
    const AccessResult b = h.access(0x20000, 0);
    // The second miss waits for the first fill's MSHR.
    EXPECT_GE(b.complete, a.complete + 300);
}

TEST(Hierarchy, DemandStatsAccumulate)
{
    Hierarchy h(defaultMem());
    h.access(0x10000, 0);
    h.access(0x10000, 1000);
    h.access(0x20000, 2000);
    EXPECT_EQ(h.stats().demand_accesses, 3u);
    EXPECT_EQ(h.stats().l1_misses, 2u);
    EXPECT_EQ(h.stats().l2_demand_misses, 2u);
}

TEST(Hierarchy, LineAddrUsesL1Geometry)
{
    Hierarchy h(defaultMem());
    EXPECT_EQ(h.lineAddr(0x1234), 0x1200u);
}

TEST(Hierarchy, PrefetchToL2OnlyStillCutsDemandLatency)
{
    // Saturate L1 MSHR headroom so the prefetch cannot fill L1; the
    // demand should then be served by a prefetched L2 line.
    MemoryConfig config = defaultMem();
    config.l1d.mshrs = 1;
    Hierarchy h(config);
    h.access(0x10000, 0); // keeps the single L1 MSHR busy until 322
    EXPECT_EQ(h.prefetch(0x40000, 1, 0), PrefetchOutcome::Issued);
    const AccessResult r = h.access(0x40000, 400);
    EXPECT_EQ(r.level, ServiceLevel::L2);
    EXPECT_TRUE(r.shorter_wait);
}

} // namespace
} // namespace csp::mem
