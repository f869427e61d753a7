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
#include "core/profiling.h"
#include "core/stats.h"
#include "prefetch/context/bandit.h"
#include "prefetch/context/cst.h"
#include "prefetch/context/history_queue.h"
#include "prefetch/context/prefetch_queue.h"
#include "prefetch/context/reducer.h"
#include "prefetch/context/reward.h"
#include "prefetch/prefetcher.h"

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

    /** Every access is keyed by its machine context (paper Table 1)
     *  and throttled by the free L1 MSHRs. */
    bool readsContext() const override { return true; }

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
     *  CST probe/insert traffic and reward applications — to the
     *  bundle's learning observer, and split timed observe() calls
     *  into the prof.prefetch.{feedback,index,collect,select,enqueue}
     *  sub-layers on its ledger (train is the first three, predict the
     *  last two). */
    void attach(const obs::RunObserver *observer) override;

    /** Hand the learning observer, if any, a learning-state snapshot. */
    void onTick(const obs::Tick &tick) override;

    /** Accesses between prediction and use: context.pq.hit_depth. */
    const Histogram &hitDepths() const { return hit_depths_; }

    const ContextStats &stats() const { return stats_; }
    const Cst &cst() const { return cst_; }
    const Reducer &reducer() const { return reducer_; }
    const BanditPolicy &policy() const { return policy_; }
    const RewardFunction &rewardFunction() const { return reward_; }

  private:
    /** Apply the expiry penalty to a queued prediction that aged out
     *  unmatched. */
    [[gnu::always_inline]] void expireEntry(const PendingPrefetch &entry);

    /// Paper: 1-byte deltas of cache-line granularity, reaching 8 KiB
    /// in each direction.
    static constexpr std::int64_t kMaxDelta = 127;

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
    prof::Ledger *ledger_ = &prof::idle_ledger; ///< borrowed, never null
    Cycle last_cycle_ = 0; ///< cycle of the access being observed
    std::uint64_t full_hash_mask_;   ///< low full_hash_bits
    std::uint64_t reduced_key_mask_; ///< low reduced_hash_bits
};

} // namespace csp::prefetch::ctx

#endif // CSP_PREFETCH_CONTEXT_CONTEXT_PREFETCHER_H
