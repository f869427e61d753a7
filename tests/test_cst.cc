/** @file Unit tests for the Context-States Table. */

#include <gtest/gtest.h>

#include "prefetch/context/cst.h"

namespace csp::prefetch::ctx {
namespace {

ContextPrefetcherConfig
smallConfig()
{
    ContextPrefetcherConfig config;
    config.cst_entries = 16;
    return config;
}

/** Whether the table holds an entry for @p key, asked the way the
 *  prefetcher asks: every live entry holds at least one link, and no
 *  score is below -128. */
bool
present(const Cst &cst, std::uint32_t key)
{
    std::int32_t deltas[Cst::kLinks];
    return cst.bestLinks(key, deltas, Cst::kLinks, -129) > 0;
}

TEST(Cst, LookupMissOnEmptyTable)
{
    Cst cst(smallConfig());
    EXPECT_FALSE(present(cst, 5));
}

TEST(Cst, AddLinkThenLookup)
{
    Cst cst(smallConfig());
    const CstAddResult result = cst.addLink(5, 3);
    EXPECT_TRUE(result.inserted);
    EXPECT_TRUE(result.entry_matches);
    std::int32_t deltas[4];
    EXPECT_EQ(cst.bestLinks(5, deltas, 4, -1), 1u);
    EXPECT_EQ(deltas[0], 3);
}

TEST(Cst, DuplicateDeltaReportedPresent)
{
    Cst cst(smallConfig());
    cst.addLink(5, 3);
    const CstAddResult again = cst.addLink(5, 3);
    EXPECT_FALSE(again.inserted);
    EXPECT_TRUE(again.already_present);
}

TEST(Cst, RewardRanksLinks)
{
    Cst cst(smallConfig());
    cst.addLink(5, 1);
    cst.addLink(5, 2);
    cst.addLink(5, 3);
    cst.reward(5, 2, 10);
    cst.reward(5, 3, 5);
    std::int32_t deltas[4];
    int scores[4];
    const unsigned n = cst.bestLinks(5, deltas, 4, -1, scores);
    ASSERT_EQ(n, 3u);
    EXPECT_EQ(deltas[0], 2);
    EXPECT_EQ(scores[0], 10);
    EXPECT_EQ(deltas[1], 3);
    EXPECT_EQ(deltas[2], 1);
}

TEST(Cst, MinScoreFiltersColdLinks)
{
    Cst cst(smallConfig());
    cst.addLink(5, 1);
    cst.addLink(5, 2);
    cst.reward(5, 2, 4);
    cst.reward(5, 1, -4);
    std::int32_t deltas[4];
    EXPECT_EQ(cst.bestLinks(5, deltas, 4, 0), 1u);
    EXPECT_EQ(deltas[0], 2);
}

TEST(Cst, FullEntryEvictsNonPositiveWeakest)
{
    Cst cst(smallConfig());
    for (std::int32_t d = 1; d <= 4; ++d)
        cst.addLink(5, d);
    cst.reward(5, 1, -5); // weakest
    const CstAddResult result = cst.addLink(5, 9);
    EXPECT_TRUE(result.inserted);
    EXPECT_TRUE(result.evicted_link);
    std::int32_t deltas[4];
    const unsigned n = cst.bestLinks(5, deltas, 4, -100);
    bool has_evicted = false;
    for (unsigned i = 0; i < n; ++i)
        has_evicted = has_evicted || deltas[i] == 1;
    EXPECT_FALSE(has_evicted);
}

TEST(Cst, PositiveLinksProtectedFromEviction)
{
    Cst cst(smallConfig());
    for (std::int32_t d = 1; d <= 4; ++d) {
        cst.addLink(5, d);
        cst.reward(5, d, 10);
    }
    const CstAddResult result = cst.addLink(5, 9);
    EXPECT_FALSE(result.inserted);
    EXPECT_TRUE(result.entry_matches);
    EXPECT_GT(result.churn, 0);
}

TEST(Cst, ChurnAccumulatesAndClears)
{
    Cst cst(smallConfig());
    CstAddResult last;
    for (std::int32_t d = 1; d <= 20; ++d)
        last = cst.addLink(5, d);
    ASSERT_TRUE(last.entry_matches);
    EXPECT_GT(last.churn, 0);
    cst.clearChurn(5);
    // Re-adding a live link changes nothing and reports the churn.
    const CstAddResult again = cst.addLink(5, 20);
    ASSERT_TRUE(again.already_present);
    EXPECT_EQ(again.churn, 0);
}

TEST(Cst, TagConflictProtectsLiveEntry)
{
    Cst cst(smallConfig()); // 16 entries: keys 5 and 21 share index 5
    cst.addLink(5, 3);
    cst.reward(5, 3, 20);
    const CstAddResult conflict = cst.addLink(5 + 16, 7);
    EXPECT_TRUE(conflict.entry_conflict);
    EXPECT_TRUE(present(cst, 5));
    EXPECT_FALSE(present(cst, 5 + 16));
}

TEST(Cst, AgedOutEntryYieldsToConflict)
{
    Cst cst(smallConfig());
    cst.addLink(5, 3); // score 0: not protected
    const CstAddResult conflict = cst.addLink(5 + 16, 7);
    EXPECT_TRUE(conflict.inserted);
    EXPECT_FALSE(present(cst, 5));
    EXPECT_TRUE(present(cst, 5 + 16));
}

TEST(Cst, RepeatedConflictsEventuallyEvict)
{
    Cst cst(smallConfig());
    cst.addLink(5, 3);
    cst.reward(5, 3, 6);
    // Each conflicting insertion ages the live entry by 1.
    for (int i = 0; i < 10; ++i)
        cst.addLink(5 + 16, 7);
    EXPECT_TRUE(present(cst, 5 + 16));
}

TEST(Cst, RandomLinkDrawsFromStoredDeltas)
{
    Cst cst(smallConfig());
    cst.addLink(5, 3);
    cst.addLink(5, -2);
    Rng rng(1);
    for (int i = 0; i < 20; ++i) {
        std::int32_t delta = 0;
        ASSERT_TRUE(cst.randomLink(5, rng, &delta));
        EXPECT_TRUE(delta == 3 || delta == -2);
    }
}

TEST(Cst, RandomLinkFalseWhenEmpty)
{
    Cst cst(smallConfig());
    Rng rng(1);
    std::int32_t delta = 0;
    EXPECT_FALSE(cst.randomLink(5, rng, &delta));
}

TEST(Cst, RewardOnMissingEntryIsNoop)
{
    Cst cst(smallConfig());
    cst.reward(5, 3, 10); // must not crash or create entries
    EXPECT_FALSE(present(cst, 5));
}

TEST(Cst, ScoreSaturates)
{
    Cst cst(smallConfig());
    cst.addLink(5, 3);
    for (int i = 0; i < 100; ++i)
        cst.reward(5, 3, 16);
    std::int32_t deltas[4];
    int scores[4];
    cst.bestLinks(5, deltas, 4, -1, scores);
    EXPECT_EQ(scores[0], 127);
}

} // namespace
} // namespace csp::prefetch::ctx
