/**
 * @file
 * The Context-States Table (CST) — the action-value store of the
 * contextual-bandit learner (paper section 5, Figure 6/7).
 *
 * The CST is direct-mapped and indexed by the *reduced* context hash
 * (low bits index, high bits tag). Each entry holds a small set of
 * (delta, score) links: candidate prefetch targets expressed as signed
 * block deltas relative to the address observed with the context, each
 * carrying a saturating score updated by the reward function. Links
 * compete for the entry's slots under score-based replacement, so that
 * associations that earn positive rewards survive (paper section 5).
 *
 * Storage is a single flat arena of fixed-stride entry blocks. Each
 * block packs the tag/valid/churn replacement metadata and the link
 * arms — struct-of-arrays int8 delta and score lanes — into one run of
 * bytes, so with the default 4 links an entry is exactly 16 bytes and a
 * probe touches one cache line (the whole default table is 32 KiB).
 * Scores are the paper's 1-byte saturating integers, applied
 * branchlessly; deltas are likewise 1-byte (the prefetcher's delta
 * range is +-127 by construction, asserted on insert).
 */

#ifndef CSP_PREFETCH_CONTEXT_CST_H
#define CSP_PREFETCH_CONTEXT_CST_H

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "core/config.h"
#include "core/logging.h"
#include "core/rng.h"
#include "core/stats.h"
#include "core/stats_registry.h"
#include "obs/learning_observer.h"

namespace csp::prefetch::ctx {

/** Result of a data-collection insertion. */
struct CstAddResult
{
    bool inserted = false;      ///< a new link was stored
    bool already_present = false;
    bool evicted_link = false;  ///< link churn: an overload signal
    bool entry_conflict = false;///< tag conflict with a live entry
    /// The entry now holding this key (false only on entry_conflict);
    /// when true, churn reports its post-insert churn counter so the
    /// caller's overload check needs no second probe.
    bool entry_matches = false;
    std::uint8_t churn = 0;
};

/** See file comment. */
class Cst
{
  public:
    explicit Cst(const ContextPrefetcherConfig &config);

    /** Entry header: replacement metadata, packed in front of the link
     *  lanes within the same arena block. */
    struct Entry
    {
        std::uint32_t tag = 0;
        std::uint8_t valid = 0;
        std::uint8_t churn = 0; ///< recent link evictions (overload cue)
        std::uint16_t link_mask = 0; ///< bit i set: link slot i holds a link
    };
    static_assert(sizeof(Entry) == 8, "header must pack into one word");

    /** Entry for @p reduced_key iff present with a matching tag. */
    const Entry *lookup(std::uint32_t reduced_key) const;

    /**
     * Data collection: associate @p delta with @p reduced_key. New links
     * start at score 0 and must earn rewards to survive; the
     * lowest-scoring link is evicted when the entry is full, but only if
     * its score is at or below zero (positive scores are protected and
     * the insertion is dropped instead).
     */
    CstAddResult
    addLink(std::uint32_t reduced_key, std::int32_t delta)
    {
        return learn_ != nullptr ? addLinkT<true>(reduced_key, delta)
                                 : addLinkT<false>(reduced_key, delta);
    }

    /** addLink with the learning-tap notifications compiled out
     *  (kLearn=false) — the replay hot path's entry point. */
    template <bool kLearn>
    [[gnu::always_inline]] CstAddResult
    addLinkT(std::uint32_t reduced_key, std::int32_t delta);

    /** Feedback: apply @p reward to the (key, delta) association. */
    void reward(std::uint32_t reduced_key, std::int32_t delta, int amount);

    /**
     * Exploitation: collect up to @p max_links deltas with score >
     * @p min_score, best first. Returns the number written to @p out
     * (and, when @p scores_out is non-null, the matching scores).
     */
    unsigned
    bestLinks(std::uint32_t reduced_key, std::int32_t *out,
              unsigned max_links, int min_score,
              int *scores_out = nullptr) const
    {
        return learn_ != nullptr
                   ? bestLinksT<true>(reduced_key, out, max_links,
                                      min_score, scores_out)
                   : bestLinksT<false>(reduced_key, out, max_links,
                                       min_score, scores_out);
    }

    /** bestLinks with the probe-event notification compiled out. */
    template <bool kLearn>
    [[gnu::always_inline]] unsigned
    bestLinksT(std::uint32_t reduced_key, std::int32_t *out,
               unsigned max_links, int min_score,
               int *scores_out = nullptr) const;

    /** Best valid-link score of the entry holding @p reduced_key
     *  (-128 when the entry has no links; key must be present). */
    int bestScore(std::uint32_t reduced_key) const;

    /**
     * Exploration: a uniformly random valid link of the entry (paper:
     * "choosing a random address from the set of previously correlated
     * ones"). Returns false when the entry has no links.
     */
    bool randomLink(std::uint32_t reduced_key, Rng &rng,
                    std::int32_t *delta_out) const;

    /**
     * Softmax exploration (the policy-search direction the paper's
     * conclusion points to): draw a link with probability proportional
     * to exp(score / temperature), biasing exploration toward
     * promising-but-unproven candidates instead of uniform chance.
     */
    bool softmaxLink(std::uint32_t reduced_key, Rng &rng,
                     double temperature, std::int32_t *delta_out) const;

    /** Clear the churn counter after the Reducer consumed the signal. */
    void clearChurn(std::uint32_t reduced_key);

    /**
     * Hint that the entry for @p reduced_key is about to be probed.
     * Purely a memory-system hint (the arena is far larger than the
     * data cache, so probes are almost always cold); never changes any
     * table state or result.
     */
    void
    prefetchEntry(std::uint32_t reduced_key) const
    {
        __builtin_prefetch(arena_.data() +
                           static_cast<std::size_t>(
                               indexOf(reduced_key)) *
                               stride_words_);
    }

    unsigned entries() const { return entries_; }

    /** Links per entry (the paper's action-set size). */
    unsigned linksPerEntry() const { return links_per_entry_; }

    /** Number of valid entries (occupancy diagnostics). */
    unsigned liveEntries() const;

    /** Links displaced by score-based replacement so far. */
    const std::uint64_t &linkEvictions() const { return link_evictions_; }

    /** Live entries displaced by a conflicting context so far. */
    const std::uint64_t &entryEvictions() const
    {
        return entry_evictions_;
    }

    /** Distribution of the scores of all currently valid links. */
    stats::DistSummary scoreSummary() const;

    /**
     * Capture the @p top_k live entries with the best link scores into
     * @p out (best score descending, table index ascending on ties —
     * a deterministic order). Returns the live-entry count.
     */
    unsigned snapshotTopK(unsigned top_k,
                          std::vector<obs::SnapshotContext> &out) const;

    /** Stream probe/insert events to a learning observer (notification
     *  only — table behaviour never depends on it). */
    void setLearningObserver(obs::LearningObserver *learn)
    {
        learn_ = learn;
    }

    /** Drop all learned state. */
    void reset();

  private:
    Entry *
    entryAt(std::uint32_t index)
    {
        return reinterpret_cast<Entry *>(arena_.data() +
                                         index * stride_words_);
    }

    const Entry *
    entryAt(std::uint32_t index) const
    {
        return reinterpret_cast<const Entry *>(arena_.data() +
                                               index * stride_words_);
    }

    /** Delta lane of the entry block at @p index; the score lane
     *  follows links_per_entry_ bytes later. */
    std::int8_t *
    deltasAt(std::uint32_t index)
    {
        return reinterpret_cast<std::int8_t *>(arena_.data() +
                                               index * stride_words_ + 1);
    }

    const std::int8_t *
    deltasAt(std::uint32_t index) const
    {
        return reinterpret_cast<const std::int8_t *>(
            arena_.data() + index * stride_words_ + 1);
    }

    std::uint32_t
    indexOf(std::uint32_t reduced_key) const
    {
        return reduced_key & index_mask_;
    }

    std::uint32_t
    tagOf(std::uint32_t reduced_key) const
    {
        return reduced_key >> index_bits_;
    }

    const Entry *entryIfMatch(std::uint32_t reduced_key) const;

    /** The delta and score lanes of a 4-link entry block as one word:
     *  delta i in byte i, score i in byte 4 + i. */
    std::uint64_t &
    linkLanes4(std::uint32_t index)
    {
        static_assert(std::endian::native == std::endian::little);
        return arena_[index * stride_words_ + 1];
    }

    static int
    laneScore4(std::uint64_t lanes, unsigned slot)
    {
        return static_cast<std::int8_t>(lanes >> (32 + 8 * slot));
    }

    /** Bit 7 of byte i set iff slot i of @p lanes is live in
     *  @p link_mask and holds @p delta: one compare over the four
     *  delta bytes (a zero byte of lanes ^ broadcast(delta), found
     *  without borrows between bytes), masked by the link mask spread
     *  to one bit per byte. */
    static std::uint32_t
    liveMatches4(std::uint64_t lanes, std::int32_t delta,
                 std::uint32_t link_mask)
    {
        const std::uint32_t x =
            static_cast<std::uint32_t>(lanes) ^
            (0x01010101u * static_cast<std::uint8_t>(delta));
        const std::uint32_t zero =
            ~(((x & 0x7f7f7f7fu) + 0x7f7f7f7fu) | x | 0x7f7f7f7fu);
        const std::uint32_t live =
            (((link_mask & 0xfu) * 0x00204081u) & 0x01010101u) * 0x80u;
        return zero & live;
    }

    /** addLinkT body, with the link count a compile-time constant on
     *  the common configuration (kLinks = 0 reads it at runtime) so the
     *  per-slot scans fully unroll. */
    template <bool kLearn, unsigned kLinks>
    [[gnu::always_inline]] CstAddResult
    addLinkImpl(std::uint32_t reduced_key, std::int32_t delta);

    /** reward() body under the same link-count specialization. */
    template <unsigned kLinks>
    [[gnu::always_inline]] void
    rewardImpl(std::uint32_t reduced_key, std::int32_t delta, int amount);

    unsigned index_bits_;
    std::uint32_t index_mask_;
    unsigned links_per_entry_;
    unsigned entries_;
    unsigned stride_words_; ///< 64-bit words per entry block
    /// entries_ * stride_words_ 64-bit words: per entry, one header
    /// word then the int8 delta lane and int8 score lane, padded to a
    /// word boundary.
    std::vector<std::uint64_t> arena_;
    std::uint64_t link_evictions_ = 0;
    std::uint64_t entry_evictions_ = 0;
    obs::LearningObserver *learn_ = nullptr; ///< borrowed, may be null
};

// The data-collection path runs several times per demand access (one
// addLink per sampled history depth), every reward lands here too and
// every access ranks one entry's links; all three are inlined so the
// replay loop never pays a call, and the first two dispatch to a body
// whose link count is a compile-time constant for the stock 4-link
// configuration so every per-slot scan unrolls.

template <bool kLearn>
inline CstAddResult
Cst::addLinkT(std::uint32_t reduced_key, std::int32_t delta)
{
    if (links_per_entry_ == 4)
        return addLinkImpl<kLearn, 4>(reduced_key, delta);
    return addLinkImpl<kLearn, 0>(reduced_key, delta);
}

template <bool kLearn, unsigned kLinks>
inline CstAddResult
Cst::addLinkImpl(std::uint32_t reduced_key, std::int32_t delta)
{
    const unsigned nlinks =
        kLinks != 0 ? kLinks : links_per_entry_;
    CSP_ASSERT(delta >= -128 && delta <= 127);
    CstAddResult result;
    bool new_entry = false;
    bool entry_evicted = false;
    // Notification only: the observer sees every insertion outcome but
    // can never influence one.
    const auto notify = [&] {
        if constexpr (kLearn) {
            if (learn_ != nullptr) {
                learn_->onCstInsert({result.inserted,
                                     result.already_present, new_entry,
                                     entry_evicted, result.evicted_link,
                                     result.entry_conflict});
            }
        }
    };
    const std::uint32_t index = indexOf(reduced_key);
    Entry &entry = *entryAt(index);
    std::int8_t *const deltas = deltasAt(index);
    std::int8_t *const scores = deltas + nlinks;
    const std::uint32_t tag = tagOf(reduced_key);

    if (entry.valid == 0 || entry.tag != tag) {
        if (entry.valid != 0) {
            // Conflicting live entry: protect it while it still holds
            // positively scored links, but age it so stale contexts
            // eventually yield the slot.
            int best = -128;
            for (unsigned i = 0; i < nlinks; ++i) {
                if (!(entry.link_mask & (1u << i)))
                    continue;
                best = std::max(best, static_cast<int>(scores[i]));
                scores[i] = static_cast<std::int8_t>(
                    std::max(static_cast<int>(scores[i]) - 1, -128));
            }
            if (best > 0) {
                result.entry_conflict = true;
                notify();
                return result;
            }
            ++entry_evictions_;
            entry_evicted = true;
        }
        new_entry = true;
        entry.valid = 1;
        entry.tag = tag;
        entry.churn = 0;
        entry.link_mask = 0;
    }

    const std::uint32_t full_mask = (1u << nlinks) - 1;
    const std::uint32_t free_bits = ~entry.link_mask & full_mask;
    if constexpr (kLinks == 4) {
        // The ladder's links nearly always land on the entry the last
        // one wrote, so each insertion waits on that one's stores. Both
        // lanes are one word, read and written whole, so the probe
        // forwards from the store; the duplicate check is one compare
        // and the victim a tree of selects. The outcome branches stay:
        // they predict well, and computing every outcome with selects
        // measured 1-10% slower (DESIGN.md section 6).
        std::uint64_t &lanes = linkLanes4(index);
        if (liveMatches4(lanes, delta, entry.link_mask) != 0) {
            result.already_present = true;
            result.entry_matches = true;
            result.churn = entry.churn;
            notify();
            return result;
        }
        unsigned slot = static_cast<unsigned>(std::countr_zero(free_bits));
        if (free_bits == 0) {
            // The victim: the first strictly-minimal score (a later
            // slot wins only when strictly lower).
            const int s0 = laneScore4(lanes, 0);
            const int s1 = laneScore4(lanes, 1);
            const int s2 = laneScore4(lanes, 2);
            const int s3 = laneScore4(lanes, 3);
            const unsigned low01 = s1 < s0 ? 1 : 0;
            const unsigned low23 = s3 < s2 ? 3 : 2;
            const int min01 = std::min(s0, s1);
            const int min23 = std::min(s2, s3);
            slot = min23 < min01 ? low23 : low01;
            // Score-based replacement: only displace non-positive links.
            if (std::min(min01, min23) > 0) {
                if (entry.churn < 255)
                    ++entry.churn;
                result.entry_matches = true;
                result.churn = entry.churn;
                notify();
                return result;
            }
            result.evicted_link = true;
            ++link_evictions_;
            if (entry.churn < 255)
                ++entry.churn;
        }
        // New link: this delta, score 0.
        const unsigned shift = 8 * slot;
        lanes = (lanes & ~((std::uint64_t{0xff} << shift) |
                           (std::uint64_t{0xff} << (32 + shift)))) |
                (std::uint64_t{static_cast<std::uint8_t>(delta)} << shift);
        entry.link_mask |= static_cast<std::uint16_t>(1u << slot);
        result.inserted = true;
        result.entry_matches = true;
        result.churn = entry.churn;
        notify();
        return result;
    }

    const unsigned no_slot = nlinks;
    unsigned weakest = no_slot;
    int weakest_score = 0;
    for (unsigned i = 0; i < nlinks; ++i) {
        if (!(entry.link_mask & (1u << i)))
            continue;
        if (deltas[i] == delta) {
            result.already_present = true;
            result.entry_matches = true;
            result.churn = entry.churn;
            notify();
            return result;
        }
        if (weakest == no_slot ||
            static_cast<int>(scores[i]) < weakest_score) {
            weakest = i;
            weakest_score = scores[i];
        }
    }

    unsigned slot;
    if (free_bits != 0) {
        slot = static_cast<unsigned>(std::countr_zero(free_bits));
    } else {
        // Score-based replacement: only displace non-positive links.
        if (weakest_score > 0) {
            if (entry.churn < 255)
                ++entry.churn;
            result.entry_matches = true;
            result.churn = entry.churn;
            notify();
            return result;
        }
        slot = weakest;
        result.evicted_link = true;
        ++link_evictions_;
        if (entry.churn < 255)
            ++entry.churn;
    }
    deltas[slot] = static_cast<std::int8_t>(delta);
    scores[slot] = 0;
    entry.link_mask |= static_cast<std::uint16_t>(1u << slot);
    result.inserted = true;
    result.entry_matches = true;
    result.churn = entry.churn;
    notify();
    return result;
}

inline void
Cst::reward(std::uint32_t reduced_key, std::int32_t delta, int amount)
{
    if (links_per_entry_ == 4)
        return rewardImpl<4>(reduced_key, delta, amount);
    return rewardImpl<0>(reduced_key, delta, amount);
}

template <unsigned kLinks>
inline void
Cst::rewardImpl(std::uint32_t reduced_key, std::int32_t delta,
                int amount)
{
    const unsigned nlinks =
        kLinks != 0 ? kLinks : links_per_entry_;
    const std::uint32_t index = indexOf(reduced_key);
    Entry &entry = *entryAt(index);
    if (entry.valid == 0 || entry.tag != tagOf(reduced_key))
        return;
    // A rewarded entry is healthy: candidate pressure on it is
    // competition, not overload. Decay the churn signal so the Reducer
    // only splits contexts that fail to earn rewards.
    const auto decay = [&] {
        if (amount > 0 && entry.churn > 0)
            --entry.churn;
    };
    if constexpr (kLinks == 4) {
        // Live links hold distinct in-range deltas, so at most one
        // matches.
        if (delta != static_cast<std::int8_t>(delta))
            return;
        std::uint64_t &lanes = linkLanes4(index);
        const std::uint32_t match =
            liveMatches4(lanes, delta, entry.link_mask);
        if (match == 0)
            return;
        const unsigned shift =
            32 + static_cast<unsigned>(std::countr_zero(match)) / 8 * 8;
        const int score = static_cast<std::int8_t>(lanes >> shift);
        const auto next = static_cast<std::uint8_t>(
            std::clamp(score + amount, -128, 127));
        lanes = (lanes & ~(std::uint64_t{0xff} << shift)) |
                (std::uint64_t{next} << shift);
        decay();
        return;
    }
    std::int8_t *const deltas = deltasAt(index);
    std::int8_t *const scores = deltas + nlinks;
    for (unsigned i = 0; i < nlinks; ++i) {
        if (!(entry.link_mask & (1u << i)))
            continue;
        if (deltas[i] == delta) {
            // Branchless saturating apply on the int8 score lane.
            scores[i] = static_cast<std::int8_t>(std::clamp(
                static_cast<int>(scores[i]) + amount, -128, 127));
            decay();
            return;
        }
    }
}

template <bool kLearn>
inline unsigned
Cst::bestLinksT(std::uint32_t reduced_key, std::int32_t *out,
                unsigned max_links, int min_score,
                int *scores_out) const
{
    const std::uint32_t index = indexOf(reduced_key);
    const Entry &entry = *entryAt(index);
    const bool hit =
        entry.valid != 0 && entry.tag == tagOf(reduced_key);
    const std::int8_t *const deltas = deltasAt(index);
    const std::int8_t *const scores = deltas + links_per_entry_;
    if constexpr (kLearn) {
        if (learn_ != nullptr) {
            obs::CstProbeEvent probe;
            probe.hit = hit;
            if (hit) {
                std::uint32_t mask = entry.link_mask;
                while (mask != 0 &&
                       probe.valid_links < obs::kMaxLearnLinks) {
                    const unsigned i =
                        static_cast<unsigned>(std::countr_zero(mask));
                    mask &= mask - 1;
                    probe.scores[probe.valid_links++] =
                        static_cast<int>(scores[i]);
                }
            }
            learn_->onCstProbe(probe);
        }
    }
    if (!hit)
        return 0;
    struct Candidate
    {
        std::int32_t delta;
        int score;
    };
    Candidate candidates[16];
    unsigned count = 0;
    std::uint32_t mask = entry.link_mask;
    while (mask != 0) {
        const unsigned i =
            static_cast<unsigned>(std::countr_zero(mask));
        mask &= mask - 1;
        const int score = scores[i];
        if (score > min_score && count < 16)
            candidates[count++] = {deltas[i], score};
    }
    // Stable descending insertion sort: equal scores keep slot order.
    // This is what std::sort does at this size (libstdc++ sorts up to
    // 16 elements by insertion), without its call and range checks.
    for (unsigned i = 1; i < count; ++i) {
        const Candidate next = candidates[i];
        unsigned j = i;
        for (; j > 0 && candidates[j - 1].score < next.score; --j)
            candidates[j] = candidates[j - 1];
        candidates[j] = next;
    }
    const unsigned emit = std::min(count, max_links);
    for (unsigned i = 0; i < emit; ++i) {
        out[i] = candidates[i].delta;
        if (scores_out != nullptr)
            scores_out[i] = candidates[i].score;
    }
    return emit;
}

} // namespace csp::prefetch::ctx

#endif // CSP_PREFETCH_CONTEXT_CST_H
