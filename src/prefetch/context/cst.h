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
 * Storage is a single flat arena of two-word entry blocks. Each block
 * packs the tag/valid/churn replacement metadata and the paper's four
 * link arms — struct-of-arrays int8 delta and score lanes — into 16
 * bytes, so a probe touches one cache line (the whole default table is
 * 32 KiB).
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
    /** Links per entry: the paper's action-set size (Table 2). */
    static constexpr unsigned kLinks = 4;
    static_assert(kLinks <= obs::kMaxLearnLinks);

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

    /**
     * Data collection: associate @p delta with @p reduced_key. New links
     * start at score 0 and must earn rewards to survive; the
     * lowest-scoring link is evicted when the entry is full, but only if
     * its score is at or below zero (positive scores are protected and
     * the insertion is dropped instead).
     */
    [[gnu::always_inline]] CstAddResult
    addLink(std::uint32_t reduced_key, std::int32_t delta);

    /** Feedback: apply @p reward to the (key, delta) association. */
    void reward(std::uint32_t reduced_key, std::int32_t delta, int amount);

    /**
     * Exploitation: collect up to @p max_links deltas with score >
     * @p min_score, best first. Returns the number written to @p out
     * (and, when @p scores_out is non-null, the matching scores).
     */
    [[gnu::always_inline]] unsigned
    bestLinks(std::uint32_t reduced_key, std::int32_t *out,
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

    unsigned entries() const { return entries_; }

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

  private:
    /// 64-bit words per entry block: the header word, then the delta
    /// lane and the score lane, which fill the second word exactly.
    static constexpr unsigned kStrideWords = 2;
    static_assert(2 * kLinks == 8, "both link lanes fill one word");

    Entry *
    entryAt(std::uint32_t index)
    {
        return reinterpret_cast<Entry *>(arena_.data() +
                                         index * kStrideWords);
    }

    const Entry *
    entryAt(std::uint32_t index) const
    {
        return reinterpret_cast<const Entry *>(arena_.data() +
                                               index * kStrideWords);
    }

    /** Delta lane of the entry block at @p index; the score lane
     *  follows kLinks bytes later. */
    const std::int8_t *
    deltasAt(std::uint32_t index) const
    {
        return reinterpret_cast<const std::int8_t *>(
            arena_.data() + index * kStrideWords + 1);
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

    /** The delta and score lanes of an entry block as one word:
     *  delta i in byte i, score i in byte kLinks + i. */
    std::uint64_t &
    linkLanes(std::uint32_t index)
    {
        static_assert(std::endian::native == std::endian::little);
        return arena_[index * kStrideWords + 1];
    }

    static int
    laneScore(std::uint64_t lanes, unsigned slot)
    {
        return static_cast<std::int8_t>(lanes >> (32 + 8 * slot));
    }

    /** Bit 7 of byte i set iff slot i of @p lanes is live in
     *  @p link_mask and holds @p delta: one compare over the four
     *  delta bytes (a zero byte of lanes ^ broadcast(delta), found
     *  without borrows between bytes), masked by the link mask spread
     *  to one bit per byte. */
    static std::uint32_t
    liveMatches(std::uint64_t lanes, std::int32_t delta,
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

    unsigned index_bits_;
    std::uint32_t index_mask_;
    unsigned entries_;
    /// entries_ * kStrideWords 64-bit words: per entry, one header
    /// word then the int8 delta lane and int8 score lane.
    std::vector<std::uint64_t> arena_;
    std::uint64_t link_evictions_ = 0;
    std::uint64_t entry_evictions_ = 0;
    obs::LearningObserver *learn_ = nullptr; ///< borrowed, may be null
};

// The data-collection path runs several times per demand access (one
// addLink per sampled history depth), every reward lands here too and
// every access ranks one entry's links; all three are inlined so the
// replay loop never pays a call. Each learning-observer notification
// is one check of learn_, read once per call: the byte stores to the
// entry may alias it, so a re-read would follow every store.

inline CstAddResult
Cst::addLink(std::uint32_t reduced_key, std::int32_t delta)
{
    CSP_ASSERT(delta >= -128 && delta <= 127);
    obs::LearningObserver *const learn = learn_;
    CstAddResult result;
    bool new_entry = false;
    bool entry_evicted = false;
    // Notification only: the observer sees every insertion outcome but
    // can never influence one.
    const auto notify = [&] {
        if (learn != nullptr) {
            learn->onCstInsert({result.inserted, result.already_present,
                                new_entry, entry_evicted,
                                result.evicted_link,
                                result.entry_conflict});
        }
    };
    const std::uint32_t index = indexOf(reduced_key);
    Entry &entry = *entryAt(index);
    std::uint64_t &lanes = linkLanes(index);
    const std::uint32_t tag = tagOf(reduced_key);

    if (entry.valid == 0 || entry.tag != tag) {
        if (entry.valid != 0) {
            // Conflicting live entry: protect it while it still holds
            // positively scored links, but age it so stale contexts
            // eventually yield the slot.
            auto *const scores =
                reinterpret_cast<std::int8_t *>(&lanes) + kLinks;
            int best = -128;
            for (unsigned i = 0; i < kLinks; ++i) {
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

    // The ladder's links nearly always land on the entry the last one
    // wrote, so each insertion waits on that one's stores. Both lanes
    // are one word, read and written whole, so the probe forwards from
    // the store; the duplicate check is one compare and the victim a
    // tree of selects. The outcome branches stay: they predict well,
    // and computing every outcome with selects measured 1-10% slower
    // (DESIGN.md section 6).
    if (liveMatches(lanes, delta, entry.link_mask) != 0) {
        result.already_present = true;
        result.entry_matches = true;
        result.churn = entry.churn;
        notify();
        return result;
    }
    const std::uint32_t free_bits =
        ~entry.link_mask & ((1u << kLinks) - 1);
    unsigned slot = static_cast<unsigned>(std::countr_zero(free_bits));
    if (free_bits == 0) {
        // The victim: the first strictly-minimal score (a later slot
        // wins only when strictly lower).
        const int s0 = laneScore(lanes, 0);
        const int s1 = laneScore(lanes, 1);
        const int s2 = laneScore(lanes, 2);
        const int s3 = laneScore(lanes, 3);
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

inline void
Cst::reward(std::uint32_t reduced_key, std::int32_t delta, int amount)
{
    const std::uint32_t index = indexOf(reduced_key);
    Entry &entry = *entryAt(index);
    if (entry.valid == 0 || entry.tag != tagOf(reduced_key))
        return;
    // Live links hold distinct in-range deltas, so at most one matches.
    if (delta != static_cast<std::int8_t>(delta))
        return;
    std::uint64_t &lanes = linkLanes(index);
    const std::uint32_t match =
        liveMatches(lanes, delta, entry.link_mask);
    if (match == 0)
        return;
    // Saturating apply on the link's int8 score byte.
    const unsigned shift =
        32 + static_cast<unsigned>(std::countr_zero(match)) / 8 * 8;
    const int score = static_cast<std::int8_t>(lanes >> shift);
    const auto next = static_cast<std::uint8_t>(
        std::clamp(score + amount, -128, 127));
    lanes = (lanes & ~(std::uint64_t{0xff} << shift)) |
            (std::uint64_t{next} << shift);
    // A rewarded entry is healthy: candidate pressure on it is
    // competition, not overload. Decay the churn signal so the Reducer
    // only splits contexts that fail to earn rewards.
    if (amount > 0 && entry.churn > 0)
        --entry.churn;
}

inline unsigned
Cst::bestLinks(std::uint32_t reduced_key, std::int32_t *out,
               unsigned max_links, int min_score, int *scores_out) const
{
    obs::LearningObserver *const learn = learn_;
    const std::uint32_t index = indexOf(reduced_key);
    const Entry &entry = *entryAt(index);
    const bool hit =
        entry.valid != 0 && entry.tag == tagOf(reduced_key);
    const std::int8_t *const deltas = deltasAt(index);
    const std::int8_t *const scores = deltas + kLinks;
    if (learn != nullptr) {
        obs::CstProbeEvent probe;
        probe.hit = hit;
        if (hit) {
            std::uint32_t mask = entry.link_mask;
            while (mask != 0) {
                const unsigned i =
                    static_cast<unsigned>(std::countr_zero(mask));
                mask &= mask - 1;
                probe.scores[probe.valid_links++] =
                    static_cast<int>(scores[i]);
            }
        }
        learn->onCstProbe(probe);
    }
    if (!hit)
        return 0;
    struct Candidate
    {
        std::int32_t delta;
        int score;
    };
    Candidate candidates[kLinks];
    unsigned count = 0;
    std::uint32_t mask = entry.link_mask;
    while (mask != 0) {
        const unsigned i =
            static_cast<unsigned>(std::countr_zero(mask));
        mask &= mask - 1;
        const int score = scores[i];
        if (score > min_score)
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
