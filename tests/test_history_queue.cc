/** @file Unit tests for the collection unit's history queue. */

#include <gtest/gtest.h>

#include <vector>

#include "prefetch/context/history_queue.h"

namespace csp::prefetch::ctx {
namespace {

HistoryEntry
entry(AccessSeq seq)
{
    HistoryEntry e;
    e.reduced_key = static_cast<std::uint32_t>(seq * 7);
    e.line = 0x1000 + seq * 64;
    e.seq = seq;
    return e;
}

/** The sampled entries, walked the way the collection unit walks
 *  them: at() of each configured depth, unfilled depths skipped. */
std::vector<const HistoryEntry *>
sampled(const HistoryQueue &q)
{
    std::vector<const HistoryEntry *> out;
    for (const unsigned depth : q.sampleDepths()) {
        if (const HistoryEntry *e = q.at(depth))
            out.push_back(e);
    }
    return out;
}

TEST(HistoryQueue, AtDepthOneIsNewest)
{
    HistoryQueue q(50);
    q.push(entry(1));
    q.push(entry(2));
    ASSERT_NE(q.at(1), nullptr);
    EXPECT_EQ(q.at(1)->seq, 2u);
    ASSERT_NE(q.at(2), nullptr);
    EXPECT_EQ(q.at(2)->seq, 1u);
}

TEST(HistoryQueue, DepthZeroIsInvalid)
{
    HistoryQueue q(50);
    q.push(entry(1));
    EXPECT_EQ(q.at(0), nullptr);
}

TEST(HistoryQueue, DepthBeyondSizeIsNull)
{
    HistoryQueue q(50);
    q.push(entry(1));
    EXPECT_EQ(q.at(2), nullptr);
    EXPECT_EQ(q.at(51), nullptr);
}

TEST(HistoryQueue, OldEntriesOverwrittenAtCapacity)
{
    HistoryQueue q(4);
    for (AccessSeq s = 0; s < 10; ++s)
        q.push(entry(s));
    EXPECT_EQ(q.at(1)->seq, 9u);
    EXPECT_EQ(q.at(4)->seq, 6u);
    EXPECT_EQ(q.at(5), nullptr);
}

TEST(HistoryQueue, DefaultSampleDepthsSpanRewardWindow)
{
    HistoryQueue q(50);
    const auto depths = q.sampleDepths();
    ASSERT_FALSE(depths.empty());
    EXPECT_GE(depths.front(), 18u);
    EXPECT_LE(depths.back(), 50u);
}

TEST(HistoryQueue, SampleReturnsConfiguredDepths)
{
    HistoryQueue q(50, {2, 5});
    for (AccessSeq s = 0; s < 20; ++s)
        q.push(entry(s));
    const std::vector<const HistoryEntry *> samples = sampled(q);
    ASSERT_EQ(samples.size(), 2u);
    EXPECT_EQ(samples[0]->seq, 18u); // depth 2
    EXPECT_EQ(samples[1]->seq, 15u); // depth 5
}

TEST(HistoryQueue, SampleSkipsUnfilledDepths)
{
    HistoryQueue q(50, {1, 30});
    q.push(entry(0));
    q.push(entry(1));
    EXPECT_EQ(sampled(q).size(), 1u);
}

TEST(HistoryQueue, CapacityMatchesPaperDefault)
{
    HistoryQueue q(50);
    EXPECT_EQ(q.capacity(), 50u);
}

} // namespace
} // namespace csp::prefetch::ctx
