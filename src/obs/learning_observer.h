/**
 * @file
 * Learning-introspection tap: the interface through which an online-
 * learning prefetcher publishes its internal learning dynamics — arm
 * selections, epsilon adaptation, CST probe/insert/evict traffic,
 * reward applications and a full learning-state snapshot per
 * observation tick — without knowing anything about sinks. Header-only on
 * purpose: csp_prefetch sees only this pure interface and needs no
 * link dependency on csp_obs; the concrete sink (LearningRecorder)
 * lives in the obs library and is injected by the simulator through
 * RunObserver::learn.
 *
 * The interface is deliberately prefetcher-agnostic: the events speak
 * of "arms", "probes" and "contexts", not of the context prefetcher's
 * concrete tables, so a future Pythia-style or NN learner can feed the
 * same observatory. Hooks are notifications only — an observer can
 * never perturb the simulation (the bit-identical on/off contract is
 * tested).
 */

#ifndef CSP_OBS_LEARNING_OBSERVER_H
#define CSP_OBS_LEARNING_OBSERVER_H

#include <cstdint>
#include <vector>

#include "core/types.h"
#include "obs/run_observer.h"

namespace csp::stats {
class Registry;
}

namespace csp::obs {

/** Max per-arm links surfaced through probe and snapshot events; at
 *  least the CST's links per entry (Cst asserts it). */
inline constexpr unsigned kMaxLearnLinks = 16;

/** One reward application: the feedback unit credited (or penalised)
 *  a learned link for a prediction of @p block. */
struct RewardEvent
{
    Addr block = 0;           ///< predicted block address
    std::int64_t delta = 0;   ///< link delta (blocks)
    unsigned depth = 0;       ///< accesses between prediction and use
    int amount = 0;           ///< signed reward applied to the link
    bool in_window = false;   ///< inside the bell reward window
    bool expiry = false;      ///< prediction aged out unmatched
};

/** One prediction-unit probe of the learner's action-value store. */
struct CstProbeEvent
{
    bool hit = false;         ///< a live entry matched the context
    unsigned valid_links = 0; ///< links scanned in the entry
    int scores[kMaxLearnLinks] = {}; ///< scores of the valid links
};

/** One collection-unit insertion attempt. */
struct CstInsertEvent
{
    bool inserted = false;       ///< a new link was stored
    bool already_present = false;///< the association already existed
    bool new_entry = false;      ///< claimed a previously invalid entry
    bool entry_evicted = false;  ///< displaced a conflicting live entry
    bool link_evicted = false;   ///< displaced a link (score churn)
    bool tag_conflict = false;   ///< blocked by a protected live entry
};

/** Outcome of one lookup's arm selection (prediction unit). */
struct ArmSelectionEvent
{
    unsigned real = 0;     ///< arms dispatched as real prefetches
    unsigned shadow = 0;   ///< arms tracked as shadow operations
    bool explored = false; ///< an exploratory arm was drawn
    double epsilon = 0.0;  ///< exploration rate at selection time
};

/** Epsilon adaptation after one prediction outcome fed the policy. */
struct EpsilonEvent
{
    bool hit = false;       ///< the outcome that moved the accuracy EWMA
    double accuracy = 0.0;  ///< smoothed accuracy after the update
    double epsilon = 0.0;   ///< exploration rate after the update
};

/** One context's learned arms, as captured in a snapshot. */
struct SnapshotContext
{
    std::uint32_t key = 0;   ///< reduced context key
    std::uint8_t churn = 0;  ///< recent link evictions on the entry
    unsigned n_links = 0;
    std::int32_t deltas[kMaxLearnLinks] = {};
    int scores[kMaxLearnLinks] = {};
};

/** Full learning-state snapshot, one per observation tick: policy
 *  state plus the top-K contexts by best link score (deterministic
 *  order). */
struct LearningSnapshot
{
    std::uint64_t lookup = 0;  ///< demand accesses seen at capture
    double epsilon = 0.0;
    double accuracy = 0.0;
    std::uint64_t explorations = 0;
    std::uint64_t associations = 0;
    std::uint64_t pq_hits = 0;
    std::uint64_t pq_expiries = 0;
    std::uint64_t cst_live_entries = 0;
    std::uint64_t cst_entries = 0;
    std::vector<SnapshotContext> top_contexts;
};

/** See file comment. */
class LearningObserver
{
  public:
    virtual ~LearningObserver() = default;

    /** The prediction unit probed the action-value store. */
    virtual void onCstProbe(const CstProbeEvent &event) = 0;

    /** The collection unit tried to insert an association. */
    virtual void onCstInsert(const CstInsertEvent &event) = 0;

    /** One lookup's arms were selected. */
    virtual void onArmSelection(const ArmSelectionEvent &event) = 0;

    /** The adaptive policy consumed one prediction outcome. */
    virtual void onEpsilonAdapt(const EpsilonEvent &event) = 0;

    /** A reward or expiry penalty was applied at @p cycle. */
    virtual void onRewardApplied(Cycle cycle,
                                 const RewardEvent &event) = 0;

    /** Contexts to capture per snapshot. */
    virtual unsigned snapshotTopK() const { return 32; }

    /** The learning state at observation tick @p tick. */
    virtual void onSnapshot(const Tick &tick,
                            const LearningSnapshot &snap) = 0;

    /** Publish observer-side telemetry (entropy, churn histograms, ...)
     *  into the run's registry under "learn.*". Default: nothing. */
    virtual void registerStats(stats::Registry &registry)
    {
        (void)registry;
    }
};

} // namespace csp::obs

#endif // CSP_OBS_LEARNING_OBSERVER_H
