/**
 * @file
 * The concrete learning-observatory sink: a LearningObserver that
 * distils the event stream into convergence telemetry (policy entropy,
 * exploration ratio, cumulative reward, CST occupancy/churn,
 * probe-length and context-hash-collision histograms), publishes it
 * under "learn.*" in the run's stats registry (so interval sampling
 * picks it up as a time-series), and keeps the learning-state
 * snapshot of every observation tick for the
 * `--learn-out learn.json` export `csplearn` renders. With a Perfetto
 * writer attached it also emits the learning tracks: sampled "rl"
 * reward/expiry instants, and per snapshot the "bandit"
 * epsilon/accuracy counter and the "policy" epsilon/entropy counter.
 *
 * The recorder is strictly read-only with respect to the simulation:
 * it owns no RNG, touches no prefetcher state, and its presence never
 * changes a single simulated count (tested bit-for-bit).
 */

#ifndef CSP_OBS_LEARNING_H
#define CSP_OBS_LEARNING_H

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "core/stats.h"
#include "core/types.h"
#include "obs/learning_observer.h"

namespace csp::stats {
class Registry;
}

namespace csp::obs {

class TraceEventWriter;

/** See file comment. */
class LearningRecorder final : public LearningObserver
{
  public:
    struct Options
    {
        /** Contexts captured per snapshot. */
        unsigned top_k = 32;
        /** Emit one "rl" instant per this many reward applications
         *  (expiries included) when a trace-event writer is attached. */
        std::uint64_t trace_sample = 1;
    };

    /** Default options, no Perfetto tracks. */
    LearningRecorder() : LearningRecorder(Options(), nullptr) {}

    /** @param events optional Perfetto writer for the learning tracks
     *  (borrowed, may be null). */
    explicit LearningRecorder(Options options,
                              TraceEventWriter *events = nullptr);

    void onCstProbe(const CstProbeEvent &event) override;
    void onCstInsert(const CstInsertEvent &event) override;
    void onArmSelection(const ArmSelectionEvent &event) override;
    void onEpsilonAdapt(const EpsilonEvent &event) override;
    void onRewardApplied(Cycle cycle, const RewardEvent &event) override;
    /** Stores the snapshot; with a trace-event writer, also samples
     *  the "bandit" and "policy" counter tracks at the tick's cycle. */
    void onSnapshot(const Tick &tick,
                    const LearningSnapshot &snap) override;

    unsigned snapshotTopK() const override { return options_.top_k; }

    /** Publish the distilled telemetry under "learn.*". */
    void registerStats(stats::Registry &registry) override;

    /** One stored learning-state snapshot, with the recorder-side
     *  derived series captured alongside. */
    struct StoredSnapshot
    {
        Tick tick;
        double entropy = 0.0;
        std::int64_t cumulative_reward = 0;
        LearningSnapshot snap;
    };

    const std::vector<StoredSnapshot> &snapshots() const
    {
        return snapshots_;
    }

    /** Smoothed normalised policy entropy over probed action sets, in
     *  [0, 1]: 1 = uniform (nothing learned), 0 = deterministic. */
    double entropy() const { return entropy_; }

    std::int64_t cumulativeReward() const { return cumulative_reward_; }

    /**
     * Write the full learning-state document (schema "csp-learn-v2"):
     * the run's provenance manifest, the distilled summary and every
     * snapshot, as the JSON file `csplearn` and `cspdiff` consume.
     * @p manifest_json is the RunManifest as a JSON object literal.
     */
    void writeLearnJson(std::ostream &out,
                        const std::string &manifest_json,
                        const std::string &prefetcher) const;

  private:
    Options options_;
    TraceEventWriter *events_; ///< borrowed, may be null

    // CST traffic.
    std::uint64_t probes_ = 0;
    std::uint64_t probe_hits_ = 0;
    std::uint64_t insert_attempts_ = 0;
    std::uint64_t inserts_ = 0;
    std::uint64_t new_entries_ = 0;
    std::uint64_t entry_evictions_ = 0;
    std::uint64_t link_evictions_ = 0;
    std::uint64_t tag_conflicts_ = 0;
    std::uint64_t duplicates_ = 0;
    Log2Histogram probe_links_{8};     ///< valid links per probe
    Log2Histogram collision_gap_{32};  ///< insert attempts between
                                       ///< tag conflicts
    std::uint64_t since_conflict_ = 0;

    // Policy dynamics.
    std::uint64_t selections_ = 0;
    std::uint64_t real_ = 0;
    std::uint64_t shadow_ = 0;
    std::uint64_t explorations_ = 0;
    std::uint64_t epsilon_updates_ = 0;
    double last_epsilon_ = 0.0;
    double last_accuracy_ = 0.0;
    double entropy_ = 0.0; ///< EWMA of normalised softmax entropy
    std::uint64_t entropy_samples_ = 0;

    // Reward mix.
    std::int64_t cumulative_reward_ = 0;
    std::uint64_t rewards_positive_ = 0;
    std::uint64_t rewards_negative_ = 0;
    std::uint64_t expiries_ = 0;
    std::uint64_t rewards_seen_ = 0; ///< "rl" instant sampling phase
    Log2Histogram reward_depth_pos_{16};
    Log2Histogram reward_depth_neg_{16};

    std::vector<StoredSnapshot> snapshots_;
};

} // namespace csp::obs

#endif // CSP_OBS_LEARNING_H
