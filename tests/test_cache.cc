/** @file Unit tests for the set-associative cache model. */

#include <gtest/gtest.h>

#include "mem/cache.h"

namespace csp::mem {
namespace {

CacheConfig
smallCache()
{
    // 4 sets x 2 ways x 64B lines = 512B.
    CacheConfig config;
    config.size_bytes = 512;
    config.ways = 2;
    config.line_bytes = 64;
    config.access_latency = 2;
    config.mshrs = 4;
    return config;
}

TEST(Cache, MissThenHit)
{
    Cache cache(smallCache(), "t");
    EXPECT_EQ(cache.lookup(0x1000), nullptr);
    cache.insert(0x1000, 0, false);
    EXPECT_NE(cache.lookup(0x1000), nullptr);
}

TEST(Cache, SubLineAddressesShareALine)
{
    Cache cache(smallCache(), "t");
    cache.insert(0x1000, 0, false);
    EXPECT_NE(cache.lookup(0x103f), nullptr);
    EXPECT_EQ(cache.lookup(0x1040), nullptr);
}

TEST(Cache, LruEvictsOldest)
{
    Cache cache(smallCache(), "t");
    // Three lines mapping to the same set (set stride = 4 * 64 = 256).
    cache.insert(0x0000, 0, false);
    cache.insert(0x0100, 0, false);
    cache.lookup(0x0000); // refresh line 0
    cache.insert(0x0200, 0, false);
    EXPECT_NE(cache.lookup(0x0000), nullptr);  // refreshed survives
    EXPECT_EQ(cache.lookup(0x0100), nullptr);  // LRU victim
    EXPECT_NE(cache.lookup(0x0200), nullptr);
}

TEST(Cache, EvictInfoReportsUnusedPrefetch)
{
    Cache cache(smallCache(), "t");
    cache.insert(0x0000, 0, true);
    cache.insert(0x0100, 0, false);
    EvictInfo evicted;
    cache.insert(0x0200, 0, false, &evicted);
    EXPECT_TRUE(evicted.valid);
    EXPECT_TRUE(evicted.prefetched_unused);
}

TEST(Cache, UsedPrefetchNotReportedUnused)
{
    Cache cache(smallCache(), "t");
    LineState &line = cache.insert(0x0000, 0, true);
    line.used = true;
    cache.insert(0x0100, 0, false);
    EvictInfo evicted;
    cache.insert(0x0200, 0, false, &evicted);
    EXPECT_TRUE(evicted.valid);
    EXPECT_FALSE(evicted.prefetched_unused);
}

TEST(Cache, InsertSetsReadyCycleAndPrefetchBit)
{
    Cache cache(smallCache(), "t");
    const LineState &line = cache.insert(0x2000, 777, true);
    EXPECT_EQ(line.ready, 777u);
    EXPECT_TRUE(line.prefetched);
    EXPECT_FALSE(line.used);
}

TEST(Cache, UntouchedLookupDoesNotRefreshLru)
{
    Cache cache(smallCache(), "t");
    cache.insert(0x0000, 0, false);
    cache.insert(0x0100, 0, false);
    cache.lookup(0x0000, /*touch=*/false); // must NOT refresh
    cache.insert(0x0200, 0, false);
    EXPECT_EQ(cache.lookup(0x0000), nullptr); // still evicted
}

TEST(Cache, CountUnusedPrefetches)
{
    Cache cache(smallCache(), "t");
    // Distinct sets (set stride is 64B within the 4-set cache).
    cache.insert(0x0000, 0, true);
    cache.insert(0x0040, 0, true);
    LineState &used = cache.insert(0x0080, 0, true);
    used.used = true;
    EXPECT_EQ(cache.countUnusedPrefetches(), 2u);
}

TEST(Cache, DifferentSetsDoNotConflict)
{
    Cache cache(smallCache(), "t");
    for (Addr a = 0; a < 512; a += 64)
        cache.insert(a, 0, false);
    for (Addr a = 0; a < 512; a += 64)
        EXPECT_NE(cache.lookup(a), nullptr);
}

TEST(Cache, LineAddrAligns)
{
    Cache cache(smallCache(), "t");
    EXPECT_EQ(cache.lineAddr(0x1039), 0x1000u);
}

TEST(Cache, TagDistinguishesAliasedSets)
{
    Cache cache(smallCache(), "t");
    cache.insert(0x0000, 0, false);
    // Same set (stride 256), different tag.
    EXPECT_EQ(cache.lookup(0x0100), nullptr);
}

TEST(Cache, LipInsertIsNextVictim)
{
    Cache cache(smallCache(), "t");
    cache.insert(0x0000, 0, false);
    cache.insert(0x0100, 0, false); // set full (2 ways)
    // LIP insert: victimises LRU (0x0000) but enters at LRU priority.
    cache.insert(0x0200, 0, true, nullptr, /*lru_insert=*/true);
    // The next normal insert must evict the LIP line, not 0x0100.
    cache.insert(0x0300, 0, false);
    EXPECT_EQ(cache.lookup(0x0200, false), nullptr);
    EXPECT_NE(cache.lookup(0x0100, false), nullptr);
}

TEST(Cache, LipLinePromotedByDemandTouch)
{
    Cache cache(smallCache(), "t");
    cache.insert(0x0000, 0, false);
    cache.insert(0x0100, 0, false);
    cache.insert(0x0200, 0, true, nullptr, /*lru_insert=*/true);
    cache.lookup(0x0200); // demand touch refreshes to MRU
    cache.insert(0x0300, 0, false);
    EXPECT_NE(cache.lookup(0x0200, false), nullptr);
    EXPECT_EQ(cache.lookup(0x0100, false), nullptr); // became LRU
}

TEST(Cache, LipIntoEmptySetBehavesNormally)
{
    Cache cache(smallCache(), "t");
    cache.insert(0x0000, 0, true, nullptr, /*lru_insert=*/true);
    EXPECT_NE(cache.lookup(0x0000), nullptr);
}

} // namespace
} // namespace csp::mem
