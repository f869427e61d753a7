/** @file Unit and property tests for the bell-shaped reward function. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "prefetch/context/reward.h"

namespace csp::prefetch::ctx {
namespace {

RewardConfig
paperReward()
{
    return RewardConfig{};
}

TEST(Reward, PositiveInsideWindow)
{
    const RewardFunction reward(paperReward());
    for (unsigned d = reward.windowLo(); d <= reward.windowHi(); ++d)
        EXPECT_GT(reward(d), 0) << "depth " << d;
}

TEST(Reward, NegativeBelowWindow)
{
    const RewardFunction reward(paperReward());
    for (unsigned d = 0; d < reward.windowLo(); ++d)
        EXPECT_LT(reward(d), 0) << "depth " << d;
}

TEST(Reward, NegativeAboveWindow)
{
    const RewardFunction reward(paperReward());
    for (unsigned d = reward.windowHi() + 1; d < 128; ++d)
        EXPECT_LT(reward(d), 0) << "depth " << d;
}

TEST(Reward, PeaksAtCenter)
{
    const RewardConfig config;
    const RewardFunction reward(config);
    const int at_center = reward(config.window_center);
    EXPECT_EQ(at_center, config.peak_reward);
    for (unsigned d = config.window_lo; d <= config.window_hi; ++d)
        EXPECT_LE(reward(d), at_center);
}

TEST(Reward, BellIsUnimodal)
{
    const RewardConfig config;
    const RewardFunction reward(config);
    // Non-decreasing up to the center, non-increasing after.
    for (unsigned d = config.window_lo; d < config.window_center; ++d)
        EXPECT_LE(reward(d), reward(d + 1));
    for (unsigned d = config.window_center; d < config.window_hi; ++d)
        EXPECT_GE(reward(d), reward(d + 1));
}

TEST(Reward, LatePenaltyStrongerThanEarly)
{
    // Paper: too-late prefetches are useless and demoted harder.
    const RewardConfig config;
    const RewardFunction reward(config);
    EXPECT_LE(reward(0), reward(127));
}

TEST(Reward, ExpiryPenaltyNegative)
{
    const RewardFunction reward(paperReward());
    EXPECT_LT(reward.expiryPenalty(), 0);
}

TEST(Reward, TabulateMatchesOperator)
{
    const RewardFunction reward(paperReward());
    const auto table = reward.tabulate(100);
    ASSERT_EQ(table.size(), 101u);
    for (unsigned d = 0; d <= 100; ++d)
        EXPECT_EQ(table[d], reward(d));
}

/** The reward function's formula, restated independently of
 *  RewardFunction (section 4.3: a Gaussian bell over the window, at
 *  least +1 inside it, flat penalties outside). */
int
referenceReward(const RewardConfig &config, unsigned depth)
{
    if (depth < config.window_lo)
        return config.late_penalty;
    if (depth > config.window_hi)
        return config.early_penalty;
    const double sigma =
        static_cast<double>(config.window_hi - config.window_lo) / 4.0;
    const double x = (static_cast<double>(depth) -
                      static_cast<double>(config.window_center)) /
                     sigma;
    const long reward = std::lround(std::exp(-0.5 * x * x) *
                                    static_cast<double>(config.peak_reward));
    return std::max(1, static_cast<int>(reward));
}

// operator() reads a table filled at construction; it must equal the
// formula everywhere, past the table's end too, for the stock config
// and every reward geometry bench/ablation_context runs.
TEST(Reward, TableMatchesClosedForm)
{
    std::vector<std::pair<std::string, ContextPrefetcherConfig>> configs;
    configs.emplace_back("full (paper)", ContextPrefetcherConfig{});
    ContextPrefetcherConfig no_negative;
    no_negative.negative_rewards = false;
    configs.emplace_back("no negative rewards", no_negative);
    ContextPrefetcherConfig flat;
    flat.reward.peak_reward = 4;
    flat.reward.window_center =
        (flat.reward.window_lo + flat.reward.window_hi) / 2;
    configs.emplace_back("flat reward (no bell)", flat);
    for (const auto &[name, config] : configs) {
        const RewardFunction reward(config.reward);
        for (unsigned d = 0; d <= 4 * config.reward.window_hi; ++d) {
            EXPECT_EQ(reward(d), referenceReward(config.reward, d))
                << name << " depth " << d;
        }
    }
}

/** Property sweep over alternative window geometries. */
class RewardWindowTest
    : public ::testing::TestWithParam<std::tuple<unsigned, unsigned>>
{};

TEST_P(RewardWindowTest, WindowEdgesStillEarnPositiveReward)
{
    const auto [lo, hi] = GetParam();
    RewardConfig config;
    config.window_lo = lo;
    config.window_hi = hi;
    config.window_center = (lo + hi) / 2;
    const RewardFunction reward(config);
    EXPECT_GE(reward(lo), 1);
    EXPECT_GE(reward(hi), 1);
    EXPECT_LT(reward(lo - 1), 0);
    EXPECT_LT(reward(hi + 1), 0);
}

INSTANTIATE_TEST_SUITE_P(
    WindowGeometries, RewardWindowTest,
    ::testing::Values(std::make_tuple(10u, 40u),
                      std::make_tuple(18u, 50u),
                      std::make_tuple(5u, 100u),
                      std::make_tuple(30u, 60u),
                      std::make_tuple(2u, 8u)));

} // namespace
} // namespace csp::prefetch::ctx
