#include "prefetch/context/context_prefetcher.h"

#include <algorithm>
#include <cstdlib>

#include "core/logging.h"
#include "core/profiling.h"
#include "core/stats_registry.h"
#include "core/types.h"
#include "obs/run_observer.h"

namespace csp::prefetch::ctx {

using trace::Attr;
using trace::AttrMask;
using trace::attrBit;

namespace {

/** Initial active-attribute set for fresh Reducer entries: the load
 *  site plus the compiler hints — cheap, general attributes; the
 *  adaptation machinery widens from there. */
AttrMask
initialMask(bool software_hints)
{
    AttrMask mask = attrBit(Attr::IP);
    if (software_hints) {
        mask |= attrBit(Attr::TypeInfo);
        mask |= attrBit(Attr::LinkOffset);
        mask |= attrBit(Attr::RefForm);
    }
    return mask;
}

} // namespace

ContextPrefetcher::ContextPrefetcher(
    const ContextPrefetcherConfig &config, std::uint64_t seed)
    : config_(config),
      reward_(config.reward),
      cst_(config),
      reducer_(config, initialMask(config.software_hints)),
      history_(config.history_entries),
      pq_(config.prefetch_queue_entries),
      policy_(config, seed),
      hit_depths_(config.prefetch_queue_entries,
                  config.prefetch_queue_entries)
{}

std::int64_t
ContextPrefetcher::maxDelta() const
{
    // Paper: 1-byte delta of cache-line granularity, pointing up to 8kB
    // in each direction.
    return 127;
}

void
ContextPrefetcher::attach(const obs::RunObserver *observer)
{
    obs::LearningObserver *const learn =
        observer != nullptr ? observer->learn : nullptr;
    profiler_ = observer != nullptr ? observer->profiler : nullptr;
    learn_ = learn;
    cst_.setLearningObserver(learn);
    policy_.setLearningObserver(learn);
    last_learn_snapshot_ = UINT64_MAX;
    if (learn != nullptr) {
        learn_snapshot_every_ = learn->snapshotEvery();
        learn_top_k_ = learn->snapshotTopK();
        next_learn_snapshot_ =
            learn_snapshot_every_ == 0
                ? UINT64_MAX
                : stats_.lookups + learn_snapshot_every_;
    } else {
        learn_snapshot_every_ = 0;
        next_learn_snapshot_ = UINT64_MAX;
        learn_top_k_ = 0;
    }
}

void
ContextPrefetcher::captureLearnSnapshot(Cycle cycle)
{
    obs::LearningSnapshot snap;
    snap.lookup = stats_.lookups;
    last_learn_snapshot_ = stats_.lookups;
    snap.epsilon = policy_.epsilon();
    snap.accuracy = policy_.accuracy();
    snap.explorations = stats_.explorations;
    snap.associations = stats_.associations;
    snap.pq_hits = stats_.pq_hits;
    snap.pq_expiries = stats_.pq_expiries;
    snap.cst_entries = cst_.entries();
    snap.cst_live_entries =
        cst_.snapshotTopK(learn_top_k_, snap.top_contexts);
    learn_->onSnapshot(cycle, snap);
}

template <bool kInstr>
void
ContextPrefetcher::expireEntry(const PendingPrefetch &entry)
{
    const int penalty =
        config_.negative_rewards ? reward_.expiryPenalty() : 0;
    cst_.reward(entry.reduced_key, entry.delta, penalty);
    policy_.recordOutcomeT<kInstr>(false);
    ++stats_.pq_expiries;
    if constexpr (kInstr) {
        if (learn_ != nullptr) {
            learn_->onRewardApplied(last_cycle_,
                                    {entry.line, entry.delta,
                                     /*depth=*/0, penalty,
                                     /*in_window=*/false,
                                     /*expiry=*/true});
        }
    }
}

void
ContextPrefetcher::observe(const AccessInfo &info,
                           std::vector<PrefetchRequest> &out)
{
    if (learn_ != nullptr || profiler_ != nullptr)
        observeImpl<true>(info, out);
    else
        observeImpl<false>(info, out);
}

template <bool kInstr>
void
ContextPrefetcher::observeImpl(const AccessInfo &info,
                               std::vector<PrefetchRequest> &out)
{
    CSP_ASSERT(info.context != nullptr);
    // Train/predict phase attribution (explicit clock reads, not
    // ScopedTimer, to avoid re-scoping the unit sections): everything
    // through the collection unit is training, the prediction unit
    // onward is prediction. No clock is touched unless a profiler is
    // attached.
    std::chrono::steady_clock::time_point phase_start;
    if constexpr (kInstr) {
        if (profiler_ != nullptr)
            phase_start = std::chrono::steady_clock::now();
    }
    const Addr block = alignDown(info.vaddr, config_.block_bytes);
    const AccessSeq seq = info.seq;
    last_cycle_ = info.cycle;
    ++stats_.lookups;
    if constexpr (kInstr) {
        if (learn_ != nullptr && (stats_.lookups & 4095) == 0) {
            learn_->onBandit(info.cycle,
                             {policy_.epsilon(), policy_.accuracy(),
                              stats_.explorations});
        }
    }

    // ------------------------------------------------------------------
    // Feedback unit: reward the predictions this access confirms.
    // ------------------------------------------------------------------
    pq_.onAccess(
        block, seq, [&](const PendingPrefetch &entry, unsigned depth) {
            int amount = reward_(depth);
            const bool in_window = depth >= reward_.windowLo() &&
                                   depth <= reward_.windowHi();
            if (!config_.negative_rewards && amount < 0)
                amount = 0;
            cst_.reward(entry.reduced_key, entry.delta, amount);
            hit_depths_.sample(depth);
            reward_by_depth_.sample(depth);
            policy_.recordOutcomeT<kInstr>(in_window);
            ++stats_.pq_hits;
            if (in_window)
                ++stats_.pq_hits_in_window;
            if constexpr (kInstr) {
                if (learn_ != nullptr) {
                    learn_->onRewardApplied(
                        info.cycle,
                        {entry.line, entry.delta, depth, amount,
                         in_window, /*expiry=*/false});
                }
            }
        });

    // ------------------------------------------------------------------
    // Two-level context indexing (Figure 7).
    // ------------------------------------------------------------------
    // The ablation path (software hints off) blanks the compiler-hint
    // attributes in a scratch copy; the normal path hashes the
    // simulator-owned snapshot in place (its lanes stay warm across
    // accesses — no copy, no re-mixing of unchanged attributes).
    const trace::ContextSnapshot *ctx_view = info.context;
    if (!config_.software_hints) {
        hint_scratch_ = *info.context;
        hint_scratch_.set(Attr::TypeInfo, 0);
        hint_scratch_.set(Attr::LinkOffset, 0);
        hint_scratch_.set(Attr::RefForm, 0);
        ctx_view = &hint_scratch_;
    }
    const auto full_hash = static_cast<std::uint16_t>(
        ctx_view->hash(trace::kAllAttrs, config_.full_hash_bits));
    const AttrMask mask = reducer_.lookup(full_hash);
    const auto reduced_key = static_cast<std::uint32_t>(
        ctx_view->hash(mask, config_.reduced_hash_bits));

    // ------------------------------------------------------------------
    // Collection unit: bind sampled history contexts to this block.
    // ------------------------------------------------------------------
    const auto expiry = [this](const PendingPrefetch &entry) {
        expireEntry<kInstr>(entry);
    };
    // Walk the sample ladder directly (same order HistoryQueue::sample
    // would visit, minus the scratch vector of pointers).
    for (const unsigned sample_depth : history_.sampleDepths()) {
        const HistoryEntry *hist = history_.at(sample_depth);
        if (hist == nullptr)
            continue;
        // Paper Algorithm 1: only contexts whose depth is within the
        // prefetch window are associated — a context bound to a
        // too-near address would only ever earn late penalties.
        const auto depth = static_cast<unsigned>(seq - hist->seq);
        if (depth < reward_.windowLo() || depth > reward_.windowHi())
            continue;
        const std::int64_t delta =
            blockDelta(hist->line, block, config_.block_bytes);
        if (delta == 0)
            continue;
        if (std::llabs(delta) > maxDelta()) {
            ++stats_.delta_overflows;
            continue;
        }
        const CstAddResult added = cst_.addLinkT<kInstr>(
            hist->reduced_key, static_cast<std::int32_t>(delta));
        if (added.inserted)
            ++stats_.associations;
        // Overload adaptation: heavy link churn on an entry that is
        // NOT earning rewards means too many distinct futures share
        // one reduced context — split it. Churn on a healthy entry
        // (one that already holds a vetted link) is just candidate
        // competition and is discarded. addLink already reports the
        // entry's post-insert churn, so the common (quiet) case needs
        // no second table probe.
        if (added.entry_matches &&
            added.churn >= config_.overload_threshold) {
            // "Healthy" = some link has accumulated at least one
            // full-strength reward; deliberately independent of the
            // dispatch threshold.
            if (cst_.bestScore(hist->reduced_key) <
                    config_.reward.peak_reward &&
                reducer_.onOverload(hist->full_hash)) {
                ++stats_.overload_events;
            }
            cst_.clearChurn(hist->reduced_key);
        }
    }

    if constexpr (kInstr) {
        if (profiler_ != nullptr) {
            const auto now = std::chrono::steady_clock::now();
            profiler_->add(prof::Phase::PrefetchTrain,
                           static_cast<std::uint64_t>(
                               std::chrono::duration_cast<
                                   std::chrono::nanoseconds>(
                                   now - phase_start)
                                   .count()));
            phase_start = now;
        }
    }

    // ------------------------------------------------------------------
    // Prediction unit: exploit the best links, explore a random one.
    // ------------------------------------------------------------------
    const std::uint64_t learn_real_before = stats_.real_predictions;
    const std::uint64_t learn_shadow_before = stats_.shadow_predictions;
    const std::uint64_t learn_explore_before = stats_.explorations;
    bool useful = false;
    std::int32_t deltas[16];
    int scores[16];
    const unsigned degree = policy_.degree(info.free_l1_mshrs);
    const unsigned want =
        std::max(degree, 1u); // track at least one candidate as shadow
    const unsigned n = cst_.bestLinksT<kInstr>(
        reduced_key, deltas, std::min<unsigned>(want, 16),
        /*min_score=*/-1, scores);
    for (unsigned i = 0; i < n; ++i) {
        const Addr target =
            block + static_cast<Addr>(
                        static_cast<std::int64_t>(deltas[i]) *
                        config_.block_bytes);
        // Unvetted links explore as shadow operations; only links the
        // reward loop has confirmed dispatch real prefetches.
        bool shadow = i >= degree ||
                      scores[i] < config_.real_score_threshold;
        // Paper: a duplicate of an earlier (dispatched) prefetch
        // re-enters the queue as a shadow operation to train another
        // pair. Pending shadows do not block dispatch.
        if (pq_.pendingReal(target))
            shadow = true;
        pq_.push(target, reduced_key, deltas[i], seq, shadow, expiry);
        // Shadow candidates are reported too (flagged) so the simulator
        // can account "predicted but not issued" demand misses.
        out.push_back({target, shadow, info.pc});
        if (shadow)
            ++stats_.shadow_predictions;
        else
            ++stats_.real_predictions;
        useful = true;
    }

    if (policy_.explore()) {
        std::int32_t delta = 0;
        const bool drew =
            config_.softmax_exploration
                ? cst_.softmaxLink(reduced_key, policy_.rng(),
                                   config_.softmax_temperature, &delta)
                : cst_.randomLink(reduced_key, policy_.rng(), &delta);
        if (drew) {
            const Addr target =
                block + static_cast<Addr>(
                            static_cast<std::int64_t>(delta) *
                            config_.block_bytes);
            if (!pq_.pending(target)) {
                pq_.push(target, reduced_key, delta, seq, true, expiry);
                out.push_back({target, true, info.pc});
                ++stats_.explorations;
                ++stats_.shadow_predictions;
            }
        }
    }

    if constexpr (kInstr) {
        if (learn_ != nullptr) {
            obs::ArmSelectionEvent sel;
            sel.real = static_cast<unsigned>(stats_.real_predictions -
                                             learn_real_before);
            sel.shadow = static_cast<unsigned>(
                stats_.shadow_predictions - learn_shadow_before);
            sel.explored = stats_.explorations != learn_explore_before;
            sel.epsilon = policy_.epsilon();
            learn_->onArmSelection(info.cycle, sel);
            if (stats_.lookups >= next_learn_snapshot_) {
                captureLearnSnapshot(info.cycle);
                next_learn_snapshot_ += learn_snapshot_every_;
            }
        }
    }

    // Underload adaptation: contexts that never yield a usable
    // prediction are over-specialised — merge them.
    if (reducer_.recordOutcome(full_hash, useful))
        ++stats_.underload_events;

    // ------------------------------------------------------------------
    // Remember this context for future associations.
    // ------------------------------------------------------------------
    history_.push({reduced_key, full_hash, block, seq});

    if constexpr (kInstr) {
        if (profiler_ != nullptr) {
            profiler_->add(prof::Phase::PrefetchPredict,
                           static_cast<std::uint64_t>(
                               std::chrono::duration_cast<
                                   std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now() -
                                   phase_start)
                                   .count()));
        }
    }
}

void
ContextPrefetcher::onPrefetchOutcome(Addr addr,
                                     mem::PrefetchOutcome outcome)
{
    if (outcome != mem::PrefetchOutcome::Issued) {
        // The memory system refused or elided the dispatch; keep the
        // prediction for training only (paper: prefetch operations may
        // be skipped under stress, converting them to shadow ops).
        pq_.demoteToShadow(alignDown(addr, config_.block_bytes));
    }
}

void
ContextPrefetcher::finish()
{
    if (learn_ != nullptr) {
        pq_.flush([this](const PendingPrefetch &entry) {
            expireEntry<true>(entry);
        });
    } else {
        pq_.flush([this](const PendingPrefetch &entry) {
            expireEntry<false>(entry);
        });
    }
    // Leave the observer one final snapshot of the converged learning
    // state (captured after the queue flush so the policy's accuracy
    // reflects every expiry), unless a periodic one already landed on
    // this lookup: snapshot lookups must strictly increase.
    if (learn_ != nullptr && last_learn_snapshot_ != stats_.lookups)
        captureLearnSnapshot(last_cycle_);
}

void
ContextPrefetcher::registerStats(stats::Registry &registry) const
{
    registry.counter("context.lookups", &stats_.lookups,
                     "demand accesses observed");
    registry.counter("context.predictions.real",
                     &stats_.real_predictions,
                     "predictions dispatched as real prefetches");
    registry.counter("context.predictions.shadow",
                     &stats_.shadow_predictions,
                     "predictions tracked as shadow operations");
    registry.counter("context.predictions.delta_overflows",
                     &stats_.delta_overflows,
                     "associations outside the delta range");

    registry.gauge(
        "context.bandit.epsilon", [this] { return policy_.epsilon(); },
        "current exploration rate");
    registry.gauge(
        "context.bandit.accuracy",
        [this] { return policy_.accuracy(); },
        "smoothed prefetch-queue hit rate");
    registry.counter("context.bandit.explorations",
                     &stats_.explorations,
                     "exploratory shadow prefetches drawn");

    registry.counter("context.cst.associations", &stats_.associations,
                     "links added by the collection unit");
    registry.counter("context.cst.link_evictions",
                     &cst_.linkEvictions(),
                     "links displaced by score-based replacement");
    registry.counter("context.cst.entry_evictions",
                     &cst_.entryEvictions(),
                     "entries displaced by conflicting contexts");
    registry.gauge(
        "context.cst.occupancy",
        [this] { return static_cast<double>(cst_.liveEntries()); },
        "valid CST entries");
    registry.gauge(
        "context.cst.occupancy_frac",
        [this] {
            return static_cast<double>(cst_.liveEntries()) /
                   static_cast<double>(cst_.entries());
        },
        "fraction of CST entries in use");
    registry.distribution(
        "context.cst.score", [this] { return cst_.scoreSummary(); },
        "scores of all valid CST links");

    registry.counter("context.pq.hits", &stats_.pq_hits,
                     "queued predictions matched by demand");
    registry.counter("context.pq.hits_in_window",
                     &stats_.pq_hits_in_window,
                     "matches inside the reward window");
    registry.counter("context.pq.expiries", &stats_.pq_expiries,
                     "queued predictions never matched");
    registry.gauge(
        "context.pq.depth",
        [this] { return static_cast<double>(pq_.size()); },
        "live prefetch-queue entries");
    registry.distribution("context.pq.hit_depth", &hit_depths_,
                          "accesses between prediction and use");
    registry.distribution("context.reward.by_depth", &reward_by_depth_,
                          "reward applications by prediction depth "
                          "(log2 buckets)");
    registry.formula("context.reward.in_window_rate",
                     "context.pq.hits_in_window", "context.pq.hits",
                     1.0, "fraction of rewards inside the bell window");
    registry.formula("context.reward.expiry_rate",
                     "context.pq.expiries", "context.lookups", 1.0,
                     "expiry penalties per demand access");

    registry.counter("context.reducer.overloads",
                     &stats_.overload_events,
                     "attribute activations (context splits)");
    registry.counter("context.reducer.underloads",
                     &stats_.underload_events,
                     "attribute deactivations (context merges)");
    registry.gauge(
        "context.reducer.active_attrs_mean",
        [this] { return reducer_.meanActiveAttrs(); },
        "mean active attributes per reducer entry");
}

} // namespace csp::prefetch::ctx
