/**
 * @file
 * Set-associative cache state model with LRU replacement, in-flight fill
 * tracking (a line inserted on miss carries the cycle at which its data
 * arrives), and per-line prefetch/used bits for the accuracy
 * classification of paper Figure 9.
 */

#ifndef CSP_MEM_CACHE_H
#define CSP_MEM_CACHE_H

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "core/config.h"
#include "core/types.h"

namespace csp::mem {

/** State of one cache line. */
struct LineState
{
    Addr tag = 0;
    bool valid = false;
    bool prefetched = false; ///< filled by a prefetch
    bool used = false;       ///< demand-touched since fill
    bool dirty = false;      ///< written since fill (writeback needed)
    Cycle ready = 0;         ///< fill completion cycle (in-flight if > now)
    std::uint64_t lru = 0;   ///< global LRU stamp
};

/** Outcome of an eviction, reported so callers can account accuracy. */
struct EvictInfo
{
    bool valid = false;           ///< a line was displaced
    bool prefetched_unused = false; ///< it was a never-used prefetch
    bool dirty = false;           ///< it carried unwritten data
    Addr line_addr = kInvalidAddr;///< address of the displaced line
};

/** See file comment. */
class Cache
{
  public:
    Cache(const CacheConfig &config, std::string name);

    /**
     * Find the line holding @p addr. Returns nullptr on miss. When
     * @p touch is true a hit refreshes the LRU stamp.
     */
    LineState *
    lookup(Addr addr, bool touch = true)
    {
        // Dispatch to a constant-trip-count scan for the associativities
        // actually configured (L1d: 8 ways, L2: 16) so the way loop
        // fully unrolls; any other geometry takes the generic loop.
        if (ways_ == 8)
            return lookupImpl<8>(addr, touch);
        if (ways_ == 16)
            return lookupImpl<16>(addr, touch);
        return lookupImpl<0>(addr, touch);
    }

    const LineState *
    peek(Addr addr) const
    {
        const LineState *const set = &lines_[setIndex(addr) * ways_];
        const Addr tag = tagOf(addr);
        for (unsigned way = 0; way < ways_; ++way) {
            if (set[way].valid && set[way].tag == tag)
                return &set[way];
        }
        return nullptr;
    }

    /**
     * Install @p addr (victimising LRU in its set) with fill-completion
     * time @p ready. @p evicted reports what was displaced. With
     * @p lru_insert the new line enters at LRU priority (LIP) instead
     * of MRU — used for L2 prefetch fills so that wrong prefetches are
     * evicted before they damage the demand working set; a demand hit
     * promotes the line normally.
     */
    LineState &
    insert(Addr addr, Cycle ready, bool prefetched,
           EvictInfo *evicted = nullptr, bool lru_insert = false)
    {
        if (ways_ == 8)
            return insertImpl<8>(addr, ready, prefetched, evicted,
                                 lru_insert);
        if (ways_ == 16)
            return insertImpl<16>(addr, ready, prefetched, evicted,
                                  lru_insert);
        return insertImpl<0>(addr, ready, prefetched, evicted,
                             lru_insert);
    }

    /** Refresh @p line's LRU stamp — exactly what a touching lookup()
     *  hit does, for callers that already hold the line pointer. */
    void
    touch(LineState &line)
    {
        line.lru = ++lru_clock_;
    }

    /**
     * Count valid lines that were prefetched and never demand-used —
     * called at end of simulation to close the "prefetch never hit"
     * accounting.
     */
    std::uint64_t countUnusedPrefetches() const;

    /**
     * Count prefetched lines whose fill has not completed by @p now —
     * the in-flight component of the prefetch.inflight gauge.
     */
    std::uint64_t countInflightPrefetches(Cycle now) const;

    const CacheConfig &config() const { return config_; }
    const std::string &name() const { return name_; }

    /** Line-aligned address. */
    Addr
    lineAddr(Addr addr) const
    {
        return (addr >> line_shift_) << line_shift_;
    }

    /** Number of sets (observability: set-pressure attribution). */
    std::uint64_t sets() const { return sets_; }

    /** Set index @p addr maps to (observability: set-pressure
     *  attribution; same shift/mask the lookup path uses). */
    std::uint64_t setIndexOf(Addr addr) const { return setIndex(addr); }

  private:
    /** lookup() body with a compile-time way count (0 = runtime). */
    template <unsigned kWays>
    LineState *
    lookupImpl(Addr addr, bool touch)
    {
        const unsigned ways = kWays != 0 ? kWays : ways_;
        LineState *const set = &lines_[setIndex(addr) * ways];
        const Addr tag = tagOf(addr);
        for (unsigned way = 0; way < ways; ++way) {
            LineState &line = set[way];
            if (line.valid && line.tag == tag) {
                if (touch)
                    line.lru = ++lru_clock_;
                return &line;
            }
        }
        return nullptr;
    }

    /** insert() body with a compile-time way count (0 = runtime). */
    template <unsigned kWays>
    LineState &insertImpl(Addr addr, Cycle ready, bool prefetched,
                          EvictInfo *evicted, bool lru_insert);

    std::uint64_t
    setIndex(Addr addr) const
    {
        return (addr >> line_shift_) & set_mask_;
    }

    Addr
    tagOf(Addr addr) const
    {
        return addr >> (line_shift_ + set_shift_);
    }

    CacheConfig config_;
    std::string name_;
    std::uint64_t line_bytes_;
    std::uint64_t sets_;
    unsigned ways_;
    // Precomputed from the (power-of-two asserted) config so the
    // per-access index/tag math is shift/mask, never integer division.
    unsigned line_shift_;
    unsigned set_shift_;
    std::uint64_t set_mask_;
    std::vector<LineState> lines_; ///< sets_ * ways_, set-major
    std::uint64_t lru_clock_ = 0;
};

template <unsigned kWays>
LineState &
Cache::insertImpl(Addr addr, Cycle ready, bool prefetched,
                  EvictInfo *evicted, bool lru_insert)
{
    const unsigned ways = kWays != 0 ? kWays : ways_;
    const std::uint64_t set = setIndex(addr);
    const Addr tag = tagOf(addr);
    // One pass finds both the victim (first invalid way, else the
    // valid line with the lowest — i.e. first strictly-minimal — LRU
    // stamp) and the set's minimum valid LRU stamp for LIP insertion.
    LineState *const base = &lines_[set * ways];
    std::uint64_t set_min_lru = ~0ull;
    LineState *victim = nullptr;
    bool victim_invalid = false;
    for (unsigned way = 0; way < ways; ++way) {
        LineState &line = base[way];
        if (!line.valid) {
            if (!victim_invalid) {
                victim = &line;
                victim_invalid = true;
            }
            continue;
        }
        set_min_lru = std::min(set_min_lru, line.lru);
        if (!victim_invalid &&
            (victim == nullptr || line.lru < victim->lru)) {
            victim = &line;
        }
    }
    if (evicted != nullptr) {
        evicted->valid = victim->valid;
        evicted->prefetched_unused =
            victim->valid && victim->prefetched && !victim->used;
        evicted->dirty = victim->valid && victim->dirty;
        if (victim->valid) {
            evicted->line_addr =
                ((victim->tag << set_shift_) | set) << line_shift_;
        }
    }
    victim->tag = tag;
    victim->valid = true;
    victim->prefetched = prefetched;
    victim->used = false;
    victim->dirty = false;
    victim->ready = ready;
    if (lru_insert && set_min_lru != ~0ull) {
        // LIP: next in line for eviction unless a demand promotes it.
        victim->lru = set_min_lru == 0 ? 0 : set_min_lru - 1;
    } else {
        victim->lru = ++lru_clock_;
    }
    return *victim;
}

} // namespace csp::mem

#endif // CSP_MEM_CACHE_H
