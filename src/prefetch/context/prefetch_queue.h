/**
 * @file
 * The Prefetch Queue of the feedback unit (paper section 5, Figure 6):
 * a ring of the most recent predictions — real and shadow — awaiting
 * reward. On every demand access the queue is searched for entries that
 * predicted the accessed block; the depth at which an entry is hit (in
 * demand accesses since the prediction) feeds the reward function.
 * Entries popped without ever being hit earn the expiry penalty
 * (paper: the queue, at 128 entries, is deliberately larger than the
 * useful prefetch window so that too-early predictions are observed and
 * demoted).
 *
 * The ring is paired with an open-addressed index from block address to
 * a bitmap of the ring slots holding un-hit predictions of that block
 * (the sim/predicted_set.h idiom: Fibonacci hashing, backward-shift
 * deletion, load factor <= 1/4). Every per-access query — the feedback
 * search, the dedup checks, the demotion scan — is one hash probe
 * instead of a scan of all 128 slots. Bitmaps enumerate matching slots
 * in ascending slot order, which reproduces the original linear scan's
 * callback order exactly (reward application is order-sensitive: the
 * bandit's EWMA accuracy and saturating scores do not commute).
 */

#ifndef CSP_PREFETCH_CONTEXT_PREFETCH_QUEUE_H
#define CSP_PREFETCH_CONTEXT_PREFETCH_QUEUE_H

#include <bit>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "core/logging.h"
#include "core/types.h"

namespace csp::prefetch::ctx {

/** One pending prediction. */
struct PendingPrefetch
{
    Addr line = 0;              ///< predicted block address
    std::uint32_t reduced_key = 0; ///< CST entry that produced it
    std::int32_t delta = 0;     ///< which link of that entry
    AccessSeq seq = 0;          ///< demand-access index at prediction
    bool shadow = false;        ///< tracked only, never dispatched
    bool hit = false;           ///< matched by a demand access
    bool valid = false;
};

/** See file comment. */
class PrefetchQueue
{
    template <typename Fn>
    static constexpr bool kIsNullFn =
        std::is_same_v<std::decay_t<Fn>, std::nullptr_t>;

  public:
    explicit PrefetchQueue(unsigned capacity);

    /**
     * Queue a new prediction, evicting (and expiring) the oldest entry
     * when full. @p on_expiry is any callable taking
     * (const PendingPrefetch &), or nullptr.
     */
    template <typename ExpiryFn>
    void
    push(Addr line, std::uint32_t reduced_key, std::int32_t delta,
         AccessSeq seq, bool shadow, const ExpiryFn &on_expiry)
    {
        pushAt(indexFindOrInsert(line), line, reduced_key, delta, seq,
               shadow, on_expiry);
    }

    /**
     * push() for a prediction that must not duplicate a dispatched
     * one: it is stored as shadow when @p shadow is set or an un-hit
     * REAL entry for @p line was pending before the push evicted the
     * oldest slot (a pending shadow does not count, so it never blocks
     * a vetted link from dispatching). One index probe serves the
     * check and the push. Returns the shadow flag stored.
     */
    template <typename ExpiryFn>
    bool
    pushUnlessPendingReal(Addr line, std::uint32_t reduced_key,
                          std::int32_t delta, AccessSeq seq, bool shadow,
                          const ExpiryFn &on_expiry)
    {
        const std::size_t islot = indexFindOrInsert(line);
        shadow = shadow || anyReal(islot);
        pushAt(islot, line, reduced_key, delta, seq, shadow, on_expiry);
        return shadow;
    }

    /**
     * Search for predictions of @p line at demand access @p seq; each
     * un-hit match is marked hit and reported through @p on_hit (any
     * callable taking (const PendingPrefetch &, unsigned depth), or
     * nullptr) in ascending ring-slot order. Returns the match count.
     *
     * @p on_match_hint, when not nullptr, is called with each matched
     * entry (const, same ascending order) BEFORE any entry is reported
     * as hit. It exists solely so the caller can issue memory-prefetch
     * hints for the table lines the hit callback is about to probe; it
     * must not mutate anything.
     */
    template <typename HitFn, typename HintFn = std::nullptr_t>
    unsigned
    onAccess(Addr line, AccessSeq seq, const HitFn &on_hit,
             const HintFn &on_match_hint = nullptr)
    {
        const std::size_t islot = indexFind(line);
        if (islot == kNoSlot)
            return 0;
        unsigned matches = 0;
        std::uint64_t *bits = bitsAt(islot);
        if constexpr (!kIsNullFn<HintFn>) {
            for (unsigned w = 0; w < words_; ++w) {
                std::uint64_t word = bits[w];
                while (word != 0) {
                    const unsigned b =
                        static_cast<unsigned>(std::countr_zero(word));
                    word &= word - 1;
                    on_match_hint(static_cast<const PendingPrefetch &>(
                        ring_[w * 64 + b]));
                }
            }
        }
        for (unsigned w = 0; w < words_; ++w) {
            std::uint64_t word = bits[w];
            bits[w] = 0;
            while (word != 0) {
                const unsigned b =
                    static_cast<unsigned>(std::countr_zero(word));
                word &= word - 1;
                PendingPrefetch &entry = ring_[w * 64 + b];
                entry.hit = true;
                ++matches;
                if constexpr (!kIsNullFn<HitFn>) {
                    on_hit(static_cast<const PendingPrefetch &>(entry),
                           static_cast<unsigned>(seq - entry.seq));
                }
            }
        }
        indexEraseSlot(islot);
        return matches;
    }

    /** True iff an un-hit entry for @p line is pending (dedup check). */
    bool
    pending(Addr line) const
    {
        return indexFind(line) != kNoSlot;
    }

    /** Flip the most recent un-hit real entry for @p line to shadow
     *  (used when the memory system refused the dispatch). */
    void demoteToShadow(Addr line);

    /** Expire every remaining entry (end of run). */
    template <typename ExpiryFn>
    void
    flush(const ExpiryFn &on_expiry)
    {
        for (PendingPrefetch &entry : ring_) {
            if (entry.valid && !entry.hit) {
                if constexpr (!kIsNullFn<ExpiryFn>) {
                    on_expiry(
                        static_cast<const PendingPrefetch &>(entry));
                }
            }
            entry.valid = false;
        }
        indexClearAll();
    }

    unsigned capacity() const
    {
        return static_cast<unsigned>(ring_.size());
    }

    /** Live (valid) entry count. */
    unsigned size() const;

    /** Drop all entries without expiring them. */
    void clear();

  private:
    static constexpr std::size_t kNoSlot = ~std::size_t{0};

    struct IndexSlot
    {
        Addr line = 0;
        bool used = false;
    };

    std::size_t
    homeOf(Addr line) const
    {
        // Fibonacci hash; top bits select the bucket.
        return static_cast<std::size_t>(
            (line * 0x9e3779b97f4a7c15ull) >> home_shift_);
    }

    std::uint64_t *
    bitsAt(std::size_t islot)
    {
        return bits_.data() + islot * words_;
    }

    const std::uint64_t *
    bitsAt(std::size_t islot) const
    {
        return bits_.data() + islot * words_;
    }

    /** Store a prediction of the line indexed at @p islot in the
     *  oldest ring slot, expiring what it held. The new entry's bit is
     *  set before the old entry's is cleared, so @p islot is still
     *  valid (a clear may erase a slot and shift others). */
    template <typename ExpiryFn>
    [[gnu::always_inline]] void
    pushAt(std::size_t islot, Addr line, std::uint32_t reduced_key,
           std::int32_t delta, AccessSeq seq, bool shadow,
           const ExpiryFn &on_expiry)
    {
        const std::size_t s = head_;
        if (++head_ == ring_.size())
            head_ = 0;
        PendingPrefetch &slot = ring_[s];
        // Already set when the expiring entry predicted the same line.
        bitsAt(islot)[s / 64] |= std::uint64_t{1} << (s % 64);
        if (slot.valid && !slot.hit) {
            if (slot.line != line)
                indexClearBit(slot.line, s);
            if constexpr (!kIsNullFn<ExpiryFn>)
                on_expiry(static_cast<const PendingPrefetch &>(slot));
        }
        slot = PendingPrefetch{line, reduced_key, delta, seq, shadow,
                               false, true};
        setReal(s, !shadow);
        ++pushes_;
    }

    /** Record whether ring slot @p s holds a real entry. */
    void
    setReal(std::size_t s, bool real)
    {
        const std::uint64_t bit = std::uint64_t{1} << (s % 64);
        real_[s / 64] = (real_[s / 64] & ~bit) | (real ? bit : 0);
    }

    /** Whether any un-hit entry on @p islot's bitmap is real. */
    bool
    anyReal(std::size_t islot) const
    {
        const std::uint64_t *bits = bitsAt(islot);
        std::uint64_t any = 0;
        for (unsigned w = 0; w < words_; ++w)
            any |= bits[w] & real_[w];
        return any != 0;
    }

    /** Index slot holding @p line, or kNoSlot. */
    std::size_t
    indexFind(Addr line) const
    {
        std::size_t i = homeOf(line);
        while (slots_[i].used) {
            if (slots_[i].line == line)
                return i;
            i = (i + 1) & slot_mask_;
        }
        return kNoSlot;
    }

    /** Index slot holding @p line, claimed (with its all-zero
     *  bitmap) when absent. */
    std::size_t
    indexFindOrInsert(Addr line)
    {
        std::size_t i = homeOf(line);
        while (slots_[i].used) {
            if (slots_[i].line == line)
                return i;
            i = (i + 1) & slot_mask_;
        }
        slots_[i] = IndexSlot{line, true};
        return i;
    }

    void
    indexClearBit(Addr line, std::size_t ring_slot)
    {
        const std::size_t i = indexFind(line);
        CSP_ASSERT(i != kNoSlot);
        std::uint64_t *bits = bitsAt(i);
        bits[ring_slot / 64] &=
            ~(std::uint64_t{1} << (ring_slot % 64));
        for (unsigned w = 0; w < words_; ++w) {
            if (bits[w] != 0)
                return;
        }
        indexEraseSlot(i);
    }

    /** Erase @p islot, whose bitmap the caller has already emptied. */
    void
    indexEraseSlot(std::size_t islot)
    {
        // Backward-shift deletion (no tombstones): entries past the
        // hole move back into it unless that would break their own
        // probe chain. Bitmaps travel with their slots.
        std::size_t i = islot;
        std::size_t j = islot;
        for (;;) {
            slots_[i].used = false;
            for (;;) {
                j = (j + 1) & slot_mask_;
                if (!slots_[j].used) {
                    // The last hole still holds a moved bitmap's copy.
                    if (i != islot) {
                        std::uint64_t *bits = bitsAt(i);
                        for (unsigned w = 0; w < words_; ++w)
                            bits[w] = 0;
                    }
                    return;
                }
                const std::size_t h = homeOf(slots_[j].line);
                const bool stuck = i <= j ? (i < h && h <= j)
                                          : (i < h || h <= j);
                if (!stuck)
                    break;
            }
            slots_[i] = slots_[j];
            const std::uint64_t *src = bitsAt(j);
            std::uint64_t *dst = bitsAt(i);
            for (unsigned w = 0; w < words_; ++w)
                dst[w] = src[w];
            i = j;
        }
    }

    void indexClearAll();

    std::vector<PendingPrefetch> ring_;
    std::uint64_t pushes_ = 0;
    std::size_t head_ = 0; ///< next ring slot (pushes_ mod capacity)
    // line -> bitmap-of-ring-slots index. Invariants: a slot exists iff
    // at least one valid un-hit ring entry predicts its line; unused
    // slots have all-zero bitmaps.
    unsigned words_;        ///< bitmap words per index slot
    std::size_t slot_mask_; ///< index size - 1 (power of two)
    unsigned home_shift_;   ///< 64 - log2(index size)
    std::vector<IndexSlot> slots_;
    std::vector<std::uint64_t> bits_; ///< slots * words_, slot-major
    /// Ring-slot bitmap, words_ words: bit s set iff ring slot s was
    /// last written with a real entry that has not been demoted since.
    /// Only read through an index bitmap, so stale bits of invalid or
    /// hit slots never count.
    std::vector<std::uint64_t> real_;
};

} // namespace csp::prefetch::ctx

#endif // CSP_PREFETCH_CONTEXT_PREFETCH_QUEUE_H
