/**
 * @file
 * The bell-shaped reward function of paper section 4.3 / Figure 5.
 *
 * The reward maps the *depth* of a prefetch-queue hit — the number of
 * demand accesses between issuing a prediction and the demand fetch that
 * matched it — to a score delta for the context-address association that
 * produced the prediction:
 *
 *  - depths inside the effective prefetch window [window_lo, window_hi]
 *    earn a positive, bell-shaped reward peaking at window_center;
 *  - depths below the window (prediction too late to hide latency) and
 *    above it (data likely evicted before use) earn negative rewards,
 *    demoting associations that drifted out of the window;
 *  - predictions that expire unhit earn the expiry penalty.
 */

#ifndef CSP_PREFETCH_CONTEXT_REWARD_H
#define CSP_PREFETCH_CONTEXT_REWARD_H

#include <vector>

#include "core/config.h"

namespace csp::prefetch::ctx {

/** See file comment. */
class RewardFunction
{
  public:
    explicit RewardFunction(const RewardConfig &config);

    /** Reward for a prediction hit at @p depth demand accesses: a
     *  lookup in a table of the function filled at construction. */
    int
    operator()(unsigned depth) const
    {
        return depth < table_.size() ? table_[depth]
                                     : config_.early_penalty;
    }

    /** Reward for a prediction that left the queue unhit. */
    int expiryPenalty() const { return config_.expiry_penalty; }

    /** First depth with a positive reward. */
    unsigned windowLo() const { return config_.window_lo; }

    /** Last depth with a positive reward. */
    unsigned windowHi() const { return config_.window_hi; }

    const RewardConfig &config() const { return config_; }

    /** Tabulate rewards over [0, max_depth] (bench/fig05_reward). */
    std::vector<int> tabulate(unsigned max_depth) const;

  private:
    RewardConfig config_;
    std::vector<int> table_; ///< the reward over [0, window_hi]
};

} // namespace csp::prefetch::ctx

#endif // CSP_PREFETCH_CONTEXT_REWARD_H
