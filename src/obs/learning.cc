#include "obs/learning.h"

#include <cmath>
#include <iomanip>
#include <ostream>
#include <sstream>

#include "core/stats_registry.h"
#include "obs/trace_events.h"

namespace csp::obs {

namespace {

/**
 * Normalised Shannon entropy of the softmax (temperature 1) over the
 * probed action scores: 1 = the policy is indifferent between its
 * arms, 0 = one arm dominates. The max is subtracted before exp() so
 * saturated scores never overflow.
 */
double
normalisedEntropy(const int *scores, unsigned n)
{
    int max_score = scores[0];
    for (unsigned i = 1; i < n; ++i)
        max_score = std::max(max_score, scores[i]);
    double weights[kMaxLearnLinks];
    double total = 0.0;
    for (unsigned i = 0; i < n; ++i) {
        weights[i] = std::exp(
            static_cast<double>(scores[i] - max_score));
        total += weights[i];
    }
    double h = 0.0;
    for (unsigned i = 0; i < n; ++i) {
        const double p = weights[i] / total;
        if (p > 0.0)
            h -= p * std::log(p);
    }
    return h / std::log(static_cast<double>(n));
}

} // namespace

LearningRecorder::LearningRecorder(Options options,
                                   TraceEventWriter *events)
    : options_(options), events_(events)
{
    if (options_.trace_sample == 0)
        options_.trace_sample = 1;
}

void
LearningRecorder::onCstProbe(const CstProbeEvent &event)
{
    ++probes_;
    probe_links_.sample(event.valid_links);
    if (!event.hit)
        return;
    ++probe_hits_;
    if (event.valid_links >= 2) {
        const double h =
            normalisedEntropy(event.scores, event.valid_links);
        // EWMA smoothing so the entropy series reads as a trend, not
        // per-context noise; the first sample seeds the average.
        if (entropy_samples_ == 0)
            entropy_ = h;
        else
            entropy_ += 0.02 * (h - entropy_);
        ++entropy_samples_;
    }
}

void
LearningRecorder::onCstInsert(const CstInsertEvent &event)
{
    ++insert_attempts_;
    ++since_conflict_;
    if (event.inserted)
        ++inserts_;
    if (event.already_present)
        ++duplicates_;
    if (event.new_entry)
        ++new_entries_;
    if (event.entry_evicted)
        ++entry_evictions_;
    if (event.link_evicted)
        ++link_evictions_;
    if (event.tag_conflict || event.entry_evicted) {
        // Two distinct reduced contexts collided on one table slot —
        // the direct "how often does the reduced hash alias" evidence.
        ++tag_conflicts_;
        collision_gap_.sample(since_conflict_);
        since_conflict_ = 0;
    }
}

void
LearningRecorder::onArmSelection(const ArmSelectionEvent &event)
{
    ++selections_;
    real_ += event.real;
    shadow_ += event.shadow;
    if (event.explored)
        ++explorations_;
    last_epsilon_ = event.epsilon;
}

void
LearningRecorder::onEpsilonAdapt(const EpsilonEvent &event)
{
    ++epsilon_updates_;
    last_epsilon_ = event.epsilon;
    last_accuracy_ = event.accuracy;
}

void
LearningRecorder::onRewardApplied(Cycle cycle, const RewardEvent &event)
{
    if (events_ != nullptr &&
        rewards_seen_++ % options_.trace_sample == 0) {
        std::ostringstream args;
        args << "{\"block\":\"" << hexAddr(event.block)
             << "\",\"delta\":" << event.delta
             << ",\"depth\":" << event.depth
             << ",\"amount\":" << event.amount << ",\"in_window\":"
             << (event.in_window ? "true" : "false")
             << ",\"expiry\":" << (event.expiry ? "true" : "false")
             << '}';
        events_->instant("rl", event.expiry ? "expiry" : "reward",
                         TraceEventWriter::kTidRl, cycle, args.str());
    }
    cumulative_reward_ += event.amount;
    if (event.expiry) {
        ++expiries_;
        return;
    }
    if (event.amount > 0) {
        ++rewards_positive_;
        reward_depth_pos_.sample(event.depth);
    } else if (event.amount < 0) {
        ++rewards_negative_;
        reward_depth_neg_.sample(event.depth);
    }
}

void
LearningRecorder::onSnapshot(const Tick &tick,
                             const LearningSnapshot &snap)
{
    if (events_ != nullptr) {
        events_->counter("bandit", tick.cycle,
                         {{"epsilon", snap.epsilon},
                          {"accuracy", snap.accuracy}});
        // Convergence reads as epsilon and entropy decaying together.
        events_->counter("policy", tick.cycle,
                         {{"epsilon", snap.epsilon},
                          {"entropy", entropy_}});
    }
    StoredSnapshot stored;
    stored.tick = tick;
    stored.entropy = entropy_;
    stored.cumulative_reward = cumulative_reward_;
    stored.snap = snap;
    snapshots_.push_back(std::move(stored));
}

void
LearningRecorder::registerStats(stats::Registry &registry)
{
    registry.counter("learn.cst.probes", &probes_,
                     "action-store probes by the prediction unit");
    registry.counter("learn.cst.probe_hits", &probe_hits_,
                     "probes that found a live context entry");
    registry.distribution("learn.cst.probe_links", &probe_links_,
                          "valid links per probe (action-set size)");
    registry.counter("learn.cst.insert_attempts", &insert_attempts_,
                     "collection-unit insertion attempts");
    registry.counter("learn.cst.inserts", &inserts_,
                     "new links stored");
    registry.counter("learn.cst.duplicates", &duplicates_,
                     "insertions finding the association present");
    registry.counter("learn.cst.new_entries", &new_entries_,
                     "entries claimed from invalid slots");
    registry.counter("learn.cst.entry_evictions", &entry_evictions_,
                     "live entries displaced by colliding contexts");
    registry.counter("learn.cst.link_evictions", &link_evictions_,
                     "links displaced by score replacement (churn)");
    registry.counter("learn.cst.tag_conflicts", &tag_conflicts_,
                     "insertions hitting a different live context");
    registry.distribution(
        "learn.cst.collision_gap", &collision_gap_,
        "insert attempts between context-hash collisions");
    registry.gauge(
        "learn.cst.occupancy",
        [this] { return static_cast<double>(new_entries_); },
        "CST entries brought live so far (monotonic fill curve)");

    registry.counter("learn.policy.selections", &selections_,
                     "lookups whose arm selection completed");
    registry.counter("learn.policy.real", &real_,
                     "arms dispatched as real prefetches");
    registry.counter("learn.policy.shadow", &shadow_,
                     "arms tracked as shadow operations");
    registry.counter("learn.policy.explorations", &explorations_,
                     "lookups that drew an exploratory arm");
    registry.counter("learn.policy.epsilon_updates", &epsilon_updates_,
                     "prediction outcomes fed to the adaptive policy");
    registry.formula("learn.policy.explore_ratio",
                     "learn.policy.explorations",
                     "learn.policy.selections", 1.0,
                     "exploratory fraction of arm selections");
    registry.gauge(
        "learn.policy.epsilon", [this] { return last_epsilon_; },
        "exploration rate at the last selection");
    registry.gauge(
        "learn.policy.accuracy", [this] { return last_accuracy_; },
        "smoothed accuracy at the last policy update");
    registry.gauge(
        "learn.policy.entropy", [this] { return entropy_; },
        "smoothed normalised entropy of probed action sets");

    registry.gauge(
        "learn.reward.cumulative",
        [this] { return static_cast<double>(cumulative_reward_); },
        "sum of all reward applications (signed)");
    registry.counter("learn.reward.positive", &rewards_positive_,
                     "positive reward applications");
    registry.counter("learn.reward.negative", &rewards_negative_,
                     "negative (out-of-window) reward applications");
    registry.counter("learn.reward.expiries", &expiries_,
                     "expiry penalties applied");
    registry.distribution("learn.reward.depth_pos", &reward_depth_pos_,
                          "prediction depth of positive rewards");
    registry.distribution("learn.reward.depth_neg", &reward_depth_neg_,
                          "prediction depth of negative rewards");
}

void
LearningRecorder::writeLearnJson(std::ostream &out,
                                 const std::string &manifest_json,
                                 const std::string &prefetcher) const
{
    out << std::setprecision(12);
    out << "{\"schema\":\"csp-learn-v2\"";
    if (!manifest_json.empty())
        out << ",\"manifest\":" << manifest_json;
    out << ",\"prefetcher\":\"" << prefetcher << '"';
    out << ",\"learn\":{"
        << "\"tick_insts\":"
        << (snapshots_.empty() ? 0 : snapshots_.back().tick.every)
        << ",\"top_k\":" << options_.top_k
        << ",\"cst\":{\"probes\":" << probes_
        << ",\"probe_hits\":" << probe_hits_
        << ",\"insert_attempts\":" << insert_attempts_
        << ",\"inserts\":" << inserts_
        << ",\"duplicates\":" << duplicates_
        << ",\"new_entries\":" << new_entries_
        << ",\"entry_evictions\":" << entry_evictions_
        << ",\"link_evictions\":" << link_evictions_
        << ",\"tag_conflicts\":" << tag_conflicts_ << '}'
        << ",\"policy\":{\"selections\":" << selections_
        << ",\"real\":" << real_ << ",\"shadow\":" << shadow_
        << ",\"explorations\":" << explorations_
        << ",\"epsilon_updates\":" << epsilon_updates_
        << ",\"epsilon\":" << last_epsilon_
        << ",\"accuracy\":" << last_accuracy_
        << ",\"entropy\":" << entropy_ << '}'
        << ",\"reward\":{\"cumulative\":" << cumulative_reward_
        << ",\"positive\":" << rewards_positive_
        << ",\"negative\":" << rewards_negative_
        << ",\"expiries\":" << expiries_ << "}}";
    out << ",\"snapshots\":[";
    for (std::size_t i = 0; i < snapshots_.size(); ++i) {
        const StoredSnapshot &stored = snapshots_[i];
        const LearningSnapshot &snap = stored.snap;
        out << (i == 0 ? "" : ",")
            << "{\"instructions\":" << stored.tick.instructions
            << ",\"lookup\":" << snap.lookup
            << ",\"cycle\":" << stored.tick.cycle
            << ",\"epsilon\":" << snap.epsilon
            << ",\"accuracy\":" << snap.accuracy
            << ",\"entropy\":" << stored.entropy
            << ",\"cumulative_reward\":" << stored.cumulative_reward
            << ",\"explorations\":" << snap.explorations
            << ",\"associations\":" << snap.associations
            << ",\"pq_hits\":" << snap.pq_hits
            << ",\"pq_expiries\":" << snap.pq_expiries
            << ",\"cst_live_entries\":" << snap.cst_live_entries
            << ",\"cst_entries\":" << snap.cst_entries
            << ",\"top_contexts\":[";
        for (std::size_t c = 0; c < snap.top_contexts.size(); ++c) {
            const SnapshotContext &ctx = snap.top_contexts[c];
            out << (c == 0 ? "" : ",") << "{\"key\":" << ctx.key
                << ",\"churn\":" << static_cast<unsigned>(ctx.churn)
                << ",\"links\":[";
            for (unsigned l = 0; l < ctx.n_links; ++l) {
                out << (l == 0 ? "" : ",")
                    << "{\"delta\":" << ctx.deltas[l]
                    << ",\"score\":" << ctx.scores[l] << '}';
            }
            out << "]}";
        }
        out << "]}";
    }
    out << "]}\n";
}

} // namespace csp::obs
