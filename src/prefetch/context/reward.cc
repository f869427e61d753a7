#include "prefetch/context/reward.h"

#include <cmath>

#include "core/logging.h"

namespace csp::prefetch::ctx {

namespace {

/** The reward at @p depth <= window_hi. */
int
rewardAt(const RewardConfig &config, unsigned depth)
{
    if (depth < config.window_lo)
        return config.late_penalty;
    // Gaussian bell over the window, scaled so the window edges still
    // earn at least +1 (graceful degradation, paper section 4.3).
    const double center = static_cast<double>(config.window_center);
    const double width =
        static_cast<double>(config.window_hi - config.window_lo);
    const double sigma = width / 4.0;
    const double x = (static_cast<double>(depth) - center) / sigma;
    const double bell = std::exp(-0.5 * x * x);
    const int reward = static_cast<int>(
        std::lround(bell * config.peak_reward));
    return reward < 1 ? 1 : reward;
}

} // namespace

RewardFunction::RewardFunction(const RewardConfig &config)
    : config_(config)
{
    CSP_ASSERT(config.window_lo < config.window_hi);
    CSP_ASSERT(config.window_lo <= config.window_center &&
               config.window_center <= config.window_hi);
    CSP_ASSERT(config.peak_reward > 0);
    table_.reserve(config.window_hi + 1);
    for (unsigned depth = 0; depth <= config.window_hi; ++depth)
        table_.push_back(rewardAt(config, depth));
}

std::vector<int>
RewardFunction::tabulate(unsigned max_depth) const
{
    std::vector<int> table;
    table.reserve(max_depth + 1);
    for (unsigned depth = 0; depth <= max_depth; ++depth)
        table.push_back((*this)(depth));
    return table;
}

} // namespace csp::prefetch::ctx
