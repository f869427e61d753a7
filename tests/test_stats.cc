/** @file Unit tests for stats primitives. */

#include <gtest/gtest.h>

#include "core/stats.h"

namespace csp {
namespace {

TEST(SaturatingCounter, StartsAtZero)
{
    Score8 score;
    EXPECT_EQ(score.value(), 0);
}

TEST(SaturatingCounter, AddsWithinBounds)
{
    Score8 score;
    score.add(5);
    EXPECT_EQ(score.value(), 5);
    score.add(-3);
    EXPECT_EQ(score.value(), 2);
}

TEST(SaturatingCounter, SaturatesHigh)
{
    Score8 score;
    score.add(1000);
    EXPECT_EQ(score.value(), 127);
    score.add(1);
    EXPECT_EQ(score.value(), 127);
}

TEST(SaturatingCounter, SaturatesLow)
{
    Score8 score;
    score.add(-1000);
    EXPECT_EQ(score.value(), -128);
    score.add(-1);
    EXPECT_EQ(score.value(), -128);
}

TEST(SaturatingCounter, SetClamps)
{
    SaturatingCounter<int, -4, 4> c;
    c.set(100);
    EXPECT_EQ(c.value(), 4);
    c.set(-100);
    EXPECT_EQ(c.value(), -4);
}

TEST(SaturatingCounter, Comparison)
{
    Score8 a(3);
    Score8 b(7);
    EXPECT_TRUE(a < b);
    EXPECT_FALSE(b < a);
}

TEST(Histogram, CountsSamples)
{
    Histogram h(128, 128);
    h.sample(0);
    h.sample(5);
    h.sample(127);
    EXPECT_EQ(h.count(), 3u);
    EXPECT_EQ(h.overflow(), 0u);
}

TEST(Histogram, OverflowBucket)
{
    Histogram h(128, 128);
    h.sample(128);
    h.sample(10000);
    EXPECT_EQ(h.count(), 2u);
    EXPECT_EQ(h.overflow(), 2u);
}

TEST(Histogram, MeanOfUniformSamples)
{
    Histogram h(1000, 100);
    for (std::uint64_t v = 0; v < 1000; ++v)
        h.sample(v);
    EXPECT_NEAR(h.mean(), 499.5, 1.0);
}

TEST(Histogram, MeanClampsOverflowAtMax)
{
    Histogram h(10, 10);
    h.sample(1000000);
    EXPECT_DOUBLE_EQ(h.mean(), 10.0);
}

TEST(Histogram, EmptyMeanIsZero)
{
    Histogram h(10, 10);
    EXPECT_DOUBLE_EQ(h.mean(), 0.0);
}

TEST(Log2Histogram, PercentileOfEmptyIsZero)
{
    Log2Histogram h;
    EXPECT_EQ(h.percentile(0.5), 0u);
    EXPECT_EQ(h.percentile(1.0), 0u);
}

TEST(Log2Histogram, PercentileOfSingleSampleIsTheSample)
{
    // A lone sample must come back exactly, not rounded up to its
    // power-of-two bucket ceiling (147 lives in the [128, 255]
    // bucket).
    Log2Histogram h;
    h.sample(147);
    EXPECT_EQ(h.percentile(0.01), 147u);
    EXPECT_EQ(h.percentile(0.5), 147u);
    EXPECT_EQ(h.percentile(1.0), 147u);
}

TEST(Log2Histogram, PercentileClampsP)
{
    Log2Histogram h;
    h.sample(2);
    h.sample(200);
    EXPECT_EQ(h.percentile(-0.5), h.percentile(0.0));
    EXPECT_EQ(h.percentile(2.0), h.percentile(1.0));
}

TEST(Log2Histogram, PercentileBucketEdges)
{
    Log2Histogram h;
    for (std::uint64_t v = 1; v <= 100; ++v)
        h.sample(v);
    // Rank 50 (p50) is value 50, in the [32, 63] bucket.
    EXPECT_EQ(h.percentile(0.5), 63u);
    EXPECT_EQ(h.percentile(1.0), 127u);
}

TEST(EwmaRate, ConvergesUp)
{
    EwmaRate rate(0.05, 0.0);
    for (int i = 0; i < 500; ++i)
        rate.record(true);
    EXPECT_GT(rate.value(), 0.95);
}

TEST(EwmaRate, ConvergesDown)
{
    EwmaRate rate(0.05, 1.0);
    for (int i = 0; i < 500; ++i)
        rate.record(false);
    EXPECT_LT(rate.value(), 0.05);
}

TEST(EwmaRate, TracksMixedRate)
{
    EwmaRate rate(0.01, 0.5);
    // 30% success rate.
    for (int i = 0; i < 5000; ++i)
        rate.record(i % 10 < 3);
    EXPECT_NEAR(rate.value(), 0.3, 0.1);
}

TEST(EwmaRate, StaysInUnitInterval)
{
    EwmaRate rate(0.5, 0.5);
    for (int i = 0; i < 100; ++i) {
        rate.record(i % 2 == 0);
        EXPECT_GE(rate.value(), 0.0);
        EXPECT_LE(rate.value(), 1.0);
    }
}

} // namespace
} // namespace csp
