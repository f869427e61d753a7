/**
 * @file
 * The contextual-bandit action-selection policy (paper sections 4.1 and
 * 5): epsilon-greedy exploration over the CST's per-context action sets,
 * with the exploration rate adapted to prediction accuracy in the spirit
 * of Tokic's adaptive epsilon-greedy [29] — exploration shrinks as the
 * predictor converges — and a prediction degree throttled by the same
 * accuracy signal plus memory-system pressure (paper section 4.2).
 *
 * Epsilon and the accuracy-scaled degree are pure functions of the EWMA
 * accuracy, which only moves in recordOutcome — so both are computed
 * there (once per feedback event) and served from cached fields on the
 * per-access read paths (explore()/degree() run every observe; outcomes
 * arrive only when a queued prediction resolves).
 */

#ifndef CSP_PREFETCH_CONTEXT_BANDIT_H
#define CSP_PREFETCH_CONTEXT_BANDIT_H

#include <algorithm>

#include "core/config.h"
#include "core/rng.h"
#include "core/stats.h"
#include "obs/learning_observer.h"

namespace csp::prefetch::ctx {

/** See file comment. */
class BanditPolicy
{
  public:
    explicit BanditPolicy(const ContextPrefetcherConfig &config,
                          std::uint64_t seed);

    /** Record the outcome of one queued prediction (hit or expired). */
    void
    recordOutcome(bool hit)
    {
        accuracy_.record(hit);
        refreshDerived();
        if (learn_ != nullptr)
            learn_->onEpsilonAdapt({hit, accuracy_.value(), epsilon_});
    }

    /** Smoothed prefetch-queue hit rate. */
    double accuracy() const { return accuracy_.value(); }

    /**
     * Current exploration rate: linear between epsilon_min (converged)
     * and epsilon_max (untrained).
     */
    double epsilon() const { return epsilon_; }

    /** Draw: should this lookup issue an exploratory shadow prefetch? */
    bool
    explore()
    {
        return config_.exploration && rng_.chance(epsilon_);
    }

    /**
     * Number of real prefetches to issue for the current lookup, scaled
     * by accuracy and bounded by MSHR headroom (degree throttling,
     * paper section 4.2).
     */
    unsigned
    degree(unsigned free_mshrs) const
    {
        if (config_.max_degree == 0)
            return 0;
        // One prefetch is always attempted (the memory system may still
        // refuse it, converting it to a shadow operation); extra degree
        // must be earned by accuracy and backed by MSHR headroom.
        return std::min(degree_base_, 1 + free_mshrs);
    }

    Rng &rng() { return rng_; }

    /** Stream epsilon-adaptation events to a learning observer
     *  (notification only — never consulted by the policy). */
    void setLearningObserver(obs::LearningObserver *learn)
    {
        learn_ = learn;
    }

  private:
    /** Recompute the accuracy-derived caches (exact expressions the
     *  former on-demand getters used, so values are bit-identical). */
    void
    refreshDerived()
    {
        const double acc = accuracy_.value();
        const double spread = config_.epsilon_max - config_.epsilon_min;
        epsilon_ = config_.epsilon_min + spread * (1.0 - acc);
        if (config_.max_degree > 0) {
            degree_base_ = std::min(
                1 + static_cast<unsigned>(
                        acc * (config_.max_degree - 1) + 0.5),
                config_.max_degree);
        }
    }

    ContextPrefetcherConfig config_;
    Rng rng_;
    EwmaRate accuracy_;
    double epsilon_ = 0.0;       ///< cached; moves only on recordOutcome
    unsigned degree_base_ = 1;   ///< accuracy-scaled degree, pre-MSHR cap
    obs::LearningObserver *learn_ = nullptr; ///< borrowed, may be null
};

} // namespace csp::prefetch::ctx

#endif // CSP_PREFETCH_CONTEXT_BANDIT_H
