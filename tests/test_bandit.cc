/** @file Unit tests for the epsilon-greedy bandit policy. */

#include <gtest/gtest.h>

#include "prefetch/context/bandit.h"

namespace csp::prefetch::ctx {
namespace {

ContextPrefetcherConfig
defaultConfig()
{
    return ContextPrefetcherConfig{};
}

TEST(Bandit, EpsilonStartsHigh)
{
    BanditPolicy policy(defaultConfig(), 1);
    EXPECT_NEAR(policy.epsilon(), defaultConfig().epsilon_max, 1e-9);
}

TEST(Bandit, EpsilonShrinksAsAccuracyConverges)
{
    // Tokic-style adaptation: exploration decays with convergence.
    BanditPolicy policy(defaultConfig(), 1);
    const double before = policy.epsilon();
    for (int i = 0; i < 2000; ++i)
        policy.recordOutcome(true);
    EXPECT_LT(policy.epsilon(), before);
    EXPECT_NEAR(policy.epsilon(), defaultConfig().epsilon_min, 0.01);
}

TEST(Bandit, EpsilonReboundsOnFailures)
{
    BanditPolicy policy(defaultConfig(), 1);
    for (int i = 0; i < 2000; ++i)
        policy.recordOutcome(true);
    for (int i = 0; i < 2000; ++i)
        policy.recordOutcome(false);
    EXPECT_NEAR(policy.epsilon(), defaultConfig().epsilon_max, 0.01);
}

TEST(Bandit, ExploreRateMatchesEpsilon)
{
    BanditPolicy policy(defaultConfig(), 7);
    int fires = 0;
    const int trials = 50000;
    for (int i = 0; i < trials; ++i)
        fires += policy.explore() ? 1 : 0;
    EXPECT_NEAR(static_cast<double>(fires) / trials,
                defaultConfig().epsilon_max, 0.01);
}

TEST(Bandit, ExplorationCanBeDisabled)
{
    ContextPrefetcherConfig config = defaultConfig();
    config.exploration = false;
    BanditPolicy policy(config, 7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_FALSE(policy.explore());
}

TEST(Bandit, DegreeGrowsWithAccuracy)
{
    BanditPolicy policy(defaultConfig(), 1);
    const unsigned cold = policy.degree(8);
    for (int i = 0; i < 5000; ++i)
        policy.recordOutcome(true);
    const unsigned hot = policy.degree(8);
    EXPECT_EQ(cold, 1u);
    EXPECT_GT(hot, cold);
    EXPECT_LE(hot, defaultConfig().max_degree);
}

TEST(Bandit, DegreeAtLeastOneUnderPressure)
{
    // The dispatch layer converts refused prefetches to shadows; the
    // policy itself always nominates at least one candidate.
    BanditPolicy policy(defaultConfig(), 1);
    for (int i = 0; i < 5000; ++i)
        policy.recordOutcome(true);
    EXPECT_EQ(policy.degree(0), 1u);
}

TEST(Bandit, DegreeCappedByMshrHeadroom)
{
    BanditPolicy policy(defaultConfig(), 1);
    for (int i = 0; i < 5000; ++i)
        policy.recordOutcome(true);
    EXPECT_LE(policy.degree(1), 2u);
}

TEST(Bandit, DeterministicPerSeed)
{
    BanditPolicy a(defaultConfig(), 42);
    BanditPolicy b(defaultConfig(), 42);
    for (int i = 0; i < 200; ++i)
        EXPECT_EQ(a.explore(), b.explore());
}

} // namespace
} // namespace csp::prefetch::ctx
