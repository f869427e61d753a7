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
 * The ring is paired with an index from block address to a bitmap of
 * the ring slots holding un-hit predictions of that block: a
 * FlatMap<Addr, uint32_t> from line to a row of a fixed pool of
 * capacity + 1 bitmap rows (at most capacity lines have un-hit entries,
 * plus one inside a push), so rows stay put while the map's probe
 * slots move. Every per-access query — the feedback search, the dedup
 * checks, the demotion scan — is one hash probe instead of a scan of
 * all 128 slots. Bitmaps enumerate matching slots in ascending slot
 * order, which reproduces the original linear scan's callback order
 * exactly (reward application is order-sensitive: the bandit's EWMA
 * accuracy and saturating scores do not commute).
 */

#ifndef CSP_PREFETCH_CONTEXT_PREFETCH_QUEUE_H
#define CSP_PREFETCH_CONTEXT_PREFETCH_QUEUE_H

#include <bit>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "core/flat_map.h"
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
        pushAt(rowFor(line), line, reduced_key, delta, seq, shadow,
               on_expiry);
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
        const std::uint32_t row = rowFor(line);
        shadow = shadow || anyReal(row);
        pushAt(row, line, reduced_key, delta, seq, shadow, on_expiry);
        return shadow;
    }

    /**
     * Search for predictions of @p line at demand access @p seq; each
     * un-hit match is marked hit and reported through @p on_hit (any
     * callable taking (const PendingPrefetch &, unsigned depth), or
     * nullptr) in ascending ring-slot order. Returns the match count.
     */
    template <typename HitFn>
    unsigned
    onAccess(Addr line, AccessSeq seq, const HitFn &on_hit)
    {
        const std::uint32_t *row = index_.find(line);
        if (row == nullptr)
            return 0;
        const std::uint32_t r = *row;
        unsigned matches = 0;
        std::uint64_t *bits = bitsOf(r);
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
        release(line, r);
        return matches;
    }

    /** True iff an un-hit entry for @p line is pending (dedup check). */
    bool
    pending(Addr line) const
    {
        return index_.find(line) != nullptr;
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
        clearIndex();
    }

    unsigned capacity() const
    {
        return static_cast<unsigned>(ring_.size());
    }

    /** Live (valid) entry count. */
    unsigned size() const;

  private:
    std::uint64_t *
    bitsOf(std::uint32_t row)
    {
        return bits_.data() + static_cast<std::size_t>(row) * words_;
    }

    const std::uint64_t *
    bitsOf(std::uint32_t row) const
    {
        return bits_.data() + static_cast<std::size_t>(row) * words_;
    }

    /** The bitmap row of @p line, taken (all zero) from the free pool
     *  when the line has none. */
    std::uint32_t
    rowFor(Addr line)
    {
        const auto [row, inserted] = index_.tryEmplace(line);
        if (inserted) {
            CSP_ASSERT(!free_rows_.empty());
            *row = free_rows_.back();
            free_rows_.pop_back();
        }
        return *row;
    }

    /** Unindex @p line and return its (already emptied) @p row. */
    void
    release(Addr line, std::uint32_t row)
    {
        index_.erase(line);
        free_rows_.push_back(row);
    }

    /** Store a prediction of @p line, whose bitmap is @p row, in the
     *  oldest ring slot, expiring what it held. The new entry's bit is
     *  set before the old entry's is cleared, so a slot that predicted
     *  the same line keeps the row alive. */
    template <typename ExpiryFn>
    [[gnu::always_inline]] void
    pushAt(std::uint32_t row, Addr line, std::uint32_t reduced_key,
           std::int32_t delta, AccessSeq seq, bool shadow,
           const ExpiryFn &on_expiry)
    {
        const std::size_t s = head_;
        if (++head_ == ring_.size())
            head_ = 0;
        PendingPrefetch &slot = ring_[s];
        // Already set when the expiring entry predicted the same line.
        bitsOf(row)[s / 64] |= std::uint64_t{1} << (s % 64);
        if (slot.valid && !slot.hit) {
            if (slot.line != line)
                clearBit(slot.line, s);
            if constexpr (!kIsNullFn<ExpiryFn>)
                on_expiry(static_cast<const PendingPrefetch &>(slot));
        }
        slot = PendingPrefetch{line, reduced_key, delta, seq, shadow,
                               false, true};
        setReal(s, !shadow);
    }

    /** Record whether ring slot @p s holds a real entry. */
    void
    setReal(std::size_t s, bool real)
    {
        const std::uint64_t bit = std::uint64_t{1} << (s % 64);
        real_[s / 64] = (real_[s / 64] & ~bit) | (real ? bit : 0);
    }

    /** Whether any un-hit entry on bitmap @p row is real. */
    bool
    anyReal(std::uint32_t row) const
    {
        const std::uint64_t *bits = bitsOf(row);
        std::uint64_t any = 0;
        for (unsigned w = 0; w < words_; ++w)
            any |= bits[w] & real_[w];
        return any != 0;
    }

    /** Clear ring slot @p ring_slot from @p line's bitmap, releasing
     *  the row once it is empty. */
    void
    clearBit(Addr line, std::size_t ring_slot)
    {
        const std::uint32_t *row = index_.find(line);
        CSP_ASSERT(row != nullptr);
        std::uint64_t *bits = bitsOf(*row);
        bits[ring_slot / 64] &=
            ~(std::uint64_t{1} << (ring_slot % 64));
        for (unsigned w = 0; w < words_; ++w) {
            if (bits[w] != 0)
                return;
        }
        release(line, *row);
    }

    /** Unindex every line; every row is zeroed and free. */
    void clearIndex();

    std::vector<PendingPrefetch> ring_;
    std::size_t head_ = 0; ///< next ring slot: the oldest entry
    unsigned words_;       ///< bitmap words per row
    // Invariants: a line is indexed iff at least one valid un-hit ring
    // entry predicts it; free rows are all zero.
    FlatMap<Addr, std::uint32_t> index_; ///< line -> bitmap row
    std::vector<std::uint64_t> bits_;    ///< (capacity + 1) rows
    std::vector<std::uint32_t> free_rows_;
    /// Ring-slot bitmap, words_ words: bit s set iff ring slot s was
    /// last written with a real entry that has not been demoted since.
    /// Only read through an index bitmap, so stale bits of invalid or
    /// hit slots never count.
    std::vector<std::uint64_t> real_;
};

} // namespace csp::prefetch::ctx

#endif // CSP_PREFETCH_CONTEXT_PREFETCH_QUEUE_H
