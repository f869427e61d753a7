#include "prefetch/context/context_prefetcher.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdlib>

#include "core/logging.h"
#include "core/stats_registry.h"
#include "core/types.h"
#include "obs/run_observer.h"

namespace csp::prefetch::ctx {

using trace::Attr;
using trace::AttrMask;
using trace::attrBit;

namespace {

/** Mask keeping the low @p bits bits of a hash. */
std::uint64_t
lowBitsMask(unsigned bits)
{
    return bits >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << bits) - 1;
}

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
                  config.prefetch_queue_entries),
      full_hash_mask_(lowBitsMask(config.full_hash_bits)),
      reduced_key_mask_(lowBitsMask(config.reduced_hash_bits))
{}

void
ContextPrefetcher::attach(const obs::RunObserver *observer)
{
    obs::LearningObserver *const learn =
        observer != nullptr ? observer->learn : nullptr;
    ledger_ = observer != nullptr && observer->ledger != nullptr
                  ? observer->ledger
                  : &prof::idle_ledger;
    learn_ = learn;
    cst_.setLearningObserver(learn);
    policy_.setLearningObserver(learn);
}

void
ContextPrefetcher::onTick(const obs::Tick &tick)
{
    if (learn_ == nullptr)
        return;
    obs::LearningSnapshot snap;
    snap.lookup = stats_.lookups;
    snap.epsilon = policy_.epsilon();
    snap.accuracy = policy_.accuracy();
    snap.explorations = stats_.explorations;
    snap.associations = stats_.associations;
    snap.pq_hits = stats_.pq_hits;
    snap.pq_expiries = stats_.pq_expiries;
    snap.cst_entries = cst_.entries();
    snap.cst_live_entries =
        cst_.snapshotTopK(learn_->snapshotTopK(), snap.top_contexts);
    learn_->onSnapshot(tick, snap);
}

inline void
ContextPrefetcher::expireEntry(const PendingPrefetch &entry)
{
    const int penalty =
        config_.negative_rewards ? reward_.expiryPenalty() : 0;
    cst_.reward(entry.reduced_key, entry.delta, penalty);
    policy_.recordOutcome(false);
    ++stats_.pq_expiries;
    if (learn_ != nullptr) {
        learn_->onRewardApplied(last_cycle_,
                                {entry.line, entry.delta,
                                 /*depth=*/0, penalty,
                                 /*in_window=*/false,
                                 /*expiry=*/true});
    }
}

void
ContextPrefetcher::observe(const AccessInfo &info,
                           std::vector<PrefetchRequest> &out)
{
    CSP_ASSERT(info.context != nullptr);
    // The learning observer and whether this access is timed, read
    // once: the table's byte stores may alias both members, so a check
    // in place would re-read them after every store.
    obs::LearningObserver *const learn = learn_;
    const bool timing = ledger_->timing();
    // Sub-layer attribution on timed accesses (prof::Layer::Feedback
    // through Enqueue): each mark closes the sub-layer named.
    const auto mark = [this, timing](prof::Layer layer) {
        if (timing)
            ledger_->markNested(layer);
    };
    const Addr block = alignDown(info.vaddr, config_.block_bytes);
    const AccessSeq seq = info.seq;
    last_cycle_ = info.cycle;
    ++stats_.lookups;

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
            policy_.recordOutcome(in_window);
            ++stats_.pq_hits;
            if (in_window)
                ++stats_.pq_hits_in_window;
            if (learn != nullptr) {
                learn->onRewardApplied(info.cycle,
                                       {entry.line, entry.delta, depth,
                                        amount, in_window,
                                        /*expiry=*/false});
            }
        });
    mark(prof::Layer::Feedback);

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
    // The reducer's mask is a prefix of the attribute order, so the
    // reduced key is a state of the full-context chain: one chain
    // serves both levels.
    const std::array<std::uint64_t, trace::kNumAttrs> prefixes =
        ctx_view->prefixHashes();
    const auto full_hash = static_cast<std::uint16_t>(
        prefixes[trace::kNumAttrs - 1] & full_hash_mask_);
    const AttrMask mask = reducer_.lookup(full_hash);
    CSP_ASSERT(mask != 0 && trace::isPrefixMask(mask));
    const auto reduced_key = static_cast<std::uint32_t>(
        prefixes[std::bit_width(static_cast<unsigned>(mask)) - 1] &
        reduced_key_mask_);
    mark(prof::Layer::Index);

    // ------------------------------------------------------------------
    // Collection unit: bind sampled history contexts to this block.
    // ------------------------------------------------------------------
    const auto expiry = [this](const PendingPrefetch &entry) {
        expireEntry(entry);
    };
    // Walk the sample ladder directly (same order HistoryQueue::sample
    // would visit, minus the scratch vector of pointers). The loop's
    // bounds are read once: the table stores in it may alias them.
    const unsigned window_lo = reward_.windowLo();
    const unsigned window_hi = reward_.windowHi();
    const unsigned overload_threshold = config_.overload_threshold;
    const unsigned block_shift = floorLog2(config_.block_bytes);
    const auto block_index =
        static_cast<std::int64_t>(block >> block_shift);
    for (const unsigned sample_depth : history_.sampleDepths()) {
        const HistoryEntry *hist = history_.at(sample_depth);
        if (hist == nullptr)
            continue;
        // Paper Algorithm 1: only contexts whose depth is within the
        // prefetch window are associated — a context bound to a
        // too-near address would only ever earn late penalties.
        const auto depth = static_cast<unsigned>(seq - hist->seq);
        if (depth < window_lo || depth > window_hi)
            continue;
        // blockDelta(hist->line, block, block_bytes), shift hoisted.
        const std::int64_t delta =
            block_index -
            static_cast<std::int64_t>(hist->line >> block_shift);
        if (delta == 0)
            continue;
        if (std::llabs(delta) > kMaxDelta) {
            ++stats_.delta_overflows;
            continue;
        }
        const CstAddResult added = cst_.addLink(
            hist->reduced_key, static_cast<std::int32_t>(delta));
        stats_.associations += added.inserted;
        // Overload adaptation: heavy link churn on an entry that is
        // NOT earning rewards means too many distinct futures share
        // one reduced context — split it. Churn on a healthy entry
        // (one that already holds a vetted link) is just candidate
        // competition and is discarded. addLink already reports the
        // entry's post-insert churn, so the common (quiet) case needs
        // no second table probe.
        if (added.entry_matches && added.churn >= overload_threshold) {
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

    mark(prof::Layer::Collect);

    // ------------------------------------------------------------------
    // Prediction unit: exploit the best links, explore a random one.
    // ------------------------------------------------------------------
    const std::uint64_t learn_real_before = stats_.real_predictions;
    const std::uint64_t learn_shadow_before = stats_.shadow_predictions;
    const std::uint64_t learn_explore_before = stats_.explorations;
    bool useful = false;
    std::int32_t deltas[Cst::kLinks];
    int scores[Cst::kLinks];
    const unsigned degree = policy_.degree(info.free_l1_mshrs);
    const unsigned want =
        std::max(degree, 1u); // track at least one candidate as shadow
    const unsigned n = cst_.bestLinks(
        reduced_key, deltas, std::min(want, Cst::kLinks),
        /*min_score=*/-1, scores);
    mark(prof::Layer::Select);
    for (unsigned i = 0; i < n; ++i) {
        const Addr target =
            block + static_cast<Addr>(
                        static_cast<std::int64_t>(deltas[i]) *
                        config_.block_bytes);
        // Unvetted links explore as shadow operations; only links the
        // reward loop has confirmed dispatch real prefetches. Paper: a
        // duplicate of an earlier (dispatched) prefetch re-enters the
        // queue as a shadow operation to train another pair. Pending
        // shadows do not block dispatch.
        const bool shadow = pq_.pushUnlessPendingReal(
            target, reduced_key, deltas[i], seq,
            i >= degree || scores[i] < config_.real_score_threshold,
            expiry);
        // Shadow candidates are reported too (flagged) so the simulator
        // can account "predicted but not issued" demand misses.
        out.push_back({target, shadow, info.pc});
        if (shadow)
            ++stats_.shadow_predictions;
        else
            ++stats_.real_predictions;
        useful = true;
    }
    mark(prof::Layer::Enqueue);

    // The draw must follow the pushes: an expiry inside one moves the
    // bandit's epsilon and the scores a softmax draw weighs. So select
    // and enqueue each close twice.
    std::int32_t explore_delta = 0;
    const bool drew =
        policy_.explore() &&
        (config_.softmax_exploration
             ? cst_.softmaxLink(reduced_key, policy_.rng(),
                                config_.softmax_temperature,
                                &explore_delta)
             : cst_.randomLink(reduced_key, policy_.rng(),
                               &explore_delta));
    mark(prof::Layer::Select);
    if (drew) {
        const Addr target =
            block + static_cast<Addr>(
                        static_cast<std::int64_t>(explore_delta) *
                        config_.block_bytes);
        if (!pq_.pending(target)) {
            pq_.push(target, reduced_key, explore_delta, seq, true,
                     expiry);
            out.push_back({target, true, info.pc});
            ++stats_.explorations;
            ++stats_.shadow_predictions;
        }
    }

    if (learn != nullptr) {
        obs::ArmSelectionEvent sel;
        sel.real = static_cast<unsigned>(stats_.real_predictions -
                                         learn_real_before);
        sel.shadow = static_cast<unsigned>(stats_.shadow_predictions -
                                           learn_shadow_before);
        sel.explored = stats_.explorations != learn_explore_before;
        sel.epsilon = policy_.epsilon();
        learn->onArmSelection(sel);
    }

    // Underload adaptation: contexts that never yield a usable
    // prediction are over-specialised — merge them.
    if (reducer_.recordOutcome(full_hash, useful))
        ++stats_.underload_events;

    // ------------------------------------------------------------------
    // Remember this context for future associations.
    // ------------------------------------------------------------------
    history_.push({reduced_key, full_hash, block, seq});
    mark(prof::Layer::Enqueue);
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
    pq_.flush([this](const PendingPrefetch &entry) { expireEntry(entry); });
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
