/** @file Unit tests for configuration defaults (paper Table 2). */

#include <gtest/gtest.h>

#include "core/config.h"
#include "prefetch/context/cst.h"

namespace csp {
namespace {

TEST(Config, CoreDefaultsMatchTable2)
{
    const CoreConfig core;
    EXPECT_EQ(core.fetch_width, 4u);
    EXPECT_EQ(core.rob_entries, 192u);
    EXPECT_EQ(core.iq_entries, 64u);
    EXPECT_EQ(core.prf_entries, 256u);
    EXPECT_EQ(core.lq_entries, 32u);
    EXPECT_EQ(core.sq_entries, 32u);
}

TEST(Config, MemoryDefaultsMatchTable2)
{
    const MemoryConfig mem;
    EXPECT_EQ(mem.l1d.size_bytes, 64u * 1024);
    EXPECT_EQ(mem.l1d.ways, 8u);
    EXPECT_EQ(mem.l1d.access_latency, 2u);
    EXPECT_EQ(mem.l1d.mshrs, 4u);
    EXPECT_EQ(mem.l2.size_bytes, 2u * 1024 * 1024);
    EXPECT_EQ(mem.l2.ways, 16u);
    EXPECT_EQ(mem.l2.access_latency, 20u);
    EXPECT_EQ(mem.l2.mshrs, 20u);
    EXPECT_EQ(mem.dram_latency, 300u);
}

TEST(Config, CacheSetsComputed)
{
    const MemoryConfig mem;
    EXPECT_EQ(mem.l1d.sets(), 64u * 1024 / (8 * 64));
    EXPECT_EQ(mem.l2.sets(), 2u * 1024 * 1024 / (16 * 64));
}

TEST(Config, ContextPrefetcherDefaultsMatchTable2)
{
    const ContextPrefetcherConfig ctx;
    EXPECT_EQ(ctx.cst_entries, 2048u);
    EXPECT_EQ(prefetch::ctx::Cst::kLinks, 4u);
    EXPECT_EQ(ctx.reducer_entries, 16384u);
    EXPECT_EQ(ctx.history_entries, 50u);
    EXPECT_EQ(ctx.prefetch_queue_entries, 128u);
    EXPECT_EQ(ctx.reduced_hash_bits, 19u);
    EXPECT_EQ(ctx.full_hash_bits, 16u);
}

TEST(Config, ContextStorageNearPaperBudget)
{
    // Paper: ~31kB overall.
    const ContextPrefetcherConfig ctx;
    const double kb =
        static_cast<double>(ctx.storageBytes()) / 1024.0;
    EXPECT_GT(kb, 25.0);
    EXPECT_LT(kb, 40.0);
}

TEST(Config, L1MissPenaltyFormula)
{
    // Paper section 4.3: penalty = L2 latency + miss rate * DRAM.
    const MemoryConfig mem;
    EXPECT_DOUBLE_EQ(mem.l1MissPenalty(0.0), 20.0);
    EXPECT_DOUBLE_EQ(mem.l1MissPenalty(1.0), 320.0);
    EXPECT_DOUBLE_EQ(mem.l1MissPenalty(0.5), 170.0);
}

TEST(Config, RewardWindowMatchesPaper)
{
    const RewardConfig reward;
    EXPECT_EQ(reward.window_lo, 18u);
    EXPECT_EQ(reward.window_hi, 50u);
    EXPECT_GE(reward.window_center, reward.window_lo);
    EXPECT_LE(reward.window_center, reward.window_hi);
}

TEST(Config, CompetitorSizingMatchesTable2)
{
    const GhbConfig ghb;
    EXPECT_EQ(ghb.ghb_entries, 2048u);
    EXPECT_EQ(ghb.history_length, 3u);
    EXPECT_EQ(ghb.degree, 3u);
    const SmsConfig sms;
    EXPECT_EQ(sms.pht_entries, 2048u);
    EXPECT_EQ(sms.agt_entries, 32u);
    EXPECT_EQ(sms.filter_entries, 32u);
    EXPECT_EQ(sms.region_bytes, 2048u);
}

TEST(Config, DescribeMentionsKeyParameters)
{
    const SystemConfig config;
    const std::string text = config.describe();
    EXPECT_NE(text.find("192 ROB"), std::string::npos);
    EXPECT_NE(text.find("64kB"), std::string::npos);
    EXPECT_NE(text.find("300 cycles"), std::string::npos);
    EXPECT_NE(text.find("2048 entries x 4 links"), std::string::npos);
}

} // namespace
} // namespace csp
