/**
 * @file
 * The context-based prefetcher — the paper's primary contribution
 * (sections 4 and 5). It approximates semantic locality by learning,
 * with a contextual-bandit policy, which block deltas follow each
 * machine context within the effective prefetch window.
 *
 * Per demand access (Algorithm 1), three units operate:
 *
 *  - the feedback unit searches the Prefetch Queue for predictions of
 *    the accessed block and rewards/demotes the producing CST links with
 *    the bell-shaped reward function;
 *  - the collection unit samples the History Queue at predefined depths
 *    and associates each sampled context with the current block (as a
 *    compact signed delta) in the CST, and drives the Reducer's
 *    overload/underload feature-set adaptation;
 *  - the prediction unit hashes the current context through the
 *    Reducer + CST (two-level indexing, Figure 7), issues the
 *    highest-scoring deltas as real prefetches (degree throttled by
 *    accuracy and MSHR pressure), re-queues duplicates as shadow
 *    prefetches, and occasionally explores a random link as a shadow
 *    prefetch (epsilon-greedy).
 */

#ifndef CSP_PREFETCH_CONTEXT_CONTEXT_PREFETCHER_H
#define CSP_PREFETCH_CONTEXT_CONTEXT_PREFETCHER_H

#include <cstdint>
#include <memory>
#include <vector>

#include "core/config.h"
#include "core/stats.h"
#include "prefetch/context/bandit.h"
#include "prefetch/context/cst.h"
#include "prefetch/context/history_queue.h"
#include "prefetch/context/prefetch_queue.h"
#include "prefetch/context/reducer.h"
#include "prefetch/context/reward.h"
#include "prefetch/prefetcher.h"

namespace csp::prof {
class Profiler;
}

namespace csp::prefetch::ctx {

/** Learning-specific statistics exposed for the evaluation figures. */
struct ContextStats
{
    std::uint64_t lookups = 0;
    std::uint64_t real_predictions = 0;
    std::uint64_t shadow_predictions = 0;
    std::uint64_t explorations = 0;
    std::uint64_t pq_hits = 0;         ///< predictions matched by demand
    std::uint64_t pq_hits_in_window = 0;
    std::uint64_t pq_expiries = 0;     ///< predictions never matched
    std::uint64_t associations = 0;    ///< links added by collection
    std::uint64_t overload_events = 0; ///< attribute activations
    std::uint64_t underload_events = 0;///< attribute deactivations
    std::uint64_t delta_overflows = 0; ///< associations out of delta range
};

/** See file comment. */
class ContextPrefetcher final : public Prefetcher
{
  public:
    ContextPrefetcher(const ContextPrefetcherConfig &config,
                      std::uint64_t seed = 1);

    std::string name() const override { return "context"; }

    void observe(const AccessInfo &info,
                 std::vector<PrefetchRequest> &out) override;

    void onPrefetchOutcome(Addr addr,
                           mem::PrefetchOutcome outcome) override;

    void finish() override;

    /** Learning telemetry under "context.*": the bandit's exploration
     *  state, CST occupancy/evictions/scores, prefetch-queue pressure
     *  and the reward mix — the dynamics behind paper Figures 5/8/9. */
    void registerStats(stats::Registry &registry) const override;

    /** Stream learning dynamics — arm selections, epsilon adaptation,
     *  CST probe/insert traffic, reward applications, bandit state and
     *  periodic learning-state snapshots — to the bundle's learning
     *  observer, and split observe() wall-clock into
     *  prof.prefetch.train (feedback + collection units) and
     *  prof.prefetch.predict (prediction unit) on its profiler. */
    void attach(const obs::RunObserver *observer) override;

    const Histogram *hitDepths() const override { return &hit_depths_; }

    const ContextStats &stats() const { return stats_; }
    const Cst &cst() const { return cst_; }
    const Reducer &reducer() const { return reducer_; }
    const BanditPolicy &policy() const { return policy_; }
    const RewardFunction &rewardFunction() const { return reward_; }

  private:
    /**
     * The whole of Algorithm 1, compiled twice: kInstr=true is the
     * instrumented build (learning observer, phase profiler — each
     * still null-checked at runtime), kInstr=false is the bare replay
     * hot path with every observer touch point compiled out. observe()
     * dispatches on whether either sink is attached, so runs with no
     * observability attached pay zero instrumentation cost (measured:
     * folding the two into runtime checks costs 1-5%, DESIGN.md §6).
     */
    template <bool kInstr>
    void observeImpl(const AccessInfo &info,
                     std::vector<PrefetchRequest> &out);

    template <bool kInstr>
    void expireEntry(const PendingPrefetch &entry);

    std::int64_t maxDelta() const;
    void captureLearnSnapshot(Cycle cycle);

    ContextPrefetcherConfig config_;
    RewardFunction reward_;
    Cst cst_;
    Reducer reducer_;
    HistoryQueue history_;
    PrefetchQueue pq_;
    BanditPolicy policy_;
    Histogram hit_depths_;
    /// Reward applications bucketed by prediction depth (log2) — the
    /// §4.3 reward-window shape as a percentile-capable distribution.
    Log2Histogram reward_by_depth_;
    ContextStats stats_;
    /// Scratch snapshot for the software-hints-off ablation (the only
    /// path that must mutate the simulator-owned context).
    trace::ContextSnapshot hint_scratch_;
    obs::LearningObserver *learn_ = nullptr; ///< borrowed, may be null
    std::uint64_t learn_snapshot_every_ = 0;
    std::uint64_t next_learn_snapshot_ = UINT64_MAX;
    /// Lookup count of the last snapshot sent to learn_.
    std::uint64_t last_learn_snapshot_ = UINT64_MAX;
    unsigned learn_top_k_ = 0;
    prof::Profiler *profiler_ = nullptr; ///< borrowed, may be null
    Cycle last_cycle_ = 0; ///< cycle of the access being observed
};

} // namespace csp::prefetch::ctx

#endif // CSP_PREFETCH_CONTEXT_CONTEXT_PREFETCHER_H
