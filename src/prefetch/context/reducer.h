/**
 * @file
 * The Reducer — the online feature-selection stage of the context-based
 * prefetcher (paper sections 4.4 and 5, Figure 7).
 *
 * The full context (all Table 1 attributes) is hashed to a 16-bit value;
 * its low 14 bits index the direct-mapped Reducer and the top 2 bits form
 * a tag. Each Reducer entry stores a bitmap of *active* attributes. The
 * active subset is re-hashed to produce the 19-bit reduced key that
 * indexes the CST.
 *
 * Adaptation (paper section 4.4):
 *  - overload — too many full contexts collapse onto one reduced context
 *    (detected through CST link churn): activate the next inactive
 *    attribute, splitting the reduced context;
 *  - underload — contexts are spread over too many unique states and
 *    never recur usefully (detected as many lookups with no usable
 *    prediction): deactivate the most recently activated attribute,
 *    merging states back together.
 *
 * Every mask is therefore a prefix of the activation order
 * (trace::prefixMask): the initial mask must be one, overload sets the
 * lowest clear bit and underload clears the highest bit outside the
 * initial set. The prefetcher relies on this to read both hashes off
 * one chain (trace::ContextSnapshot::prefixHashes).
 */

#ifndef CSP_PREFETCH_CONTEXT_REDUCER_H
#define CSP_PREFETCH_CONTEXT_REDUCER_H

#include <cstdint>
#include <vector>

#include "core/config.h"
#include "trace/context.h"

namespace csp::prefetch::ctx {

/** See file comment. */
class Reducer
{
  public:
    /**
     * @param config sizing, adaptation thresholds and the
     *        adaptive_reducer toggle (off freezes masks, ablation).
     * @param initial_mask attributes active for fresh entries; a
     *        non-empty prefix of the activation order.
     */
    Reducer(const ContextPrefetcherConfig &config,
            trace::AttrMask initial_mask);

    /**
     * Active-attribute mask for @p full_hash, allocating (or displacing,
     * direct-mapped) the entry if needed.
     */
    trace::AttrMask
    lookup(std::uint16_t full_hash)
    {
        return entryFor(full_hash).mask;
    }

    /** Overload signal for the entry: activate one more attribute.
     *  Returns true if the mask changed. */
    bool onOverload(std::uint16_t full_hash);

    /** Underload signal: deactivate the most recent attribute.
     *  Returns true if the mask changed. */
    bool onUnderload(std::uint16_t full_hash);

    /** Record whether a lookup produced a usable prediction; drives the
     *  underload heuristic internally. Returns true if the entry decided
     *  to underload itself (mask changed). */
    bool
    recordOutcome(std::uint16_t full_hash, bool useful)
    {
        Entry &entry = entryFor(full_hash);
        if (useful) {
            entry.barren_lookups = 0;
            return false;
        }
        if (!adaptive_)
            return false;
        if (++entry.barren_lookups >= underload_lookups_) {
            entry.barren_lookups = 0;
            return onUnderload(full_hash);
        }
        return false;
    }

    unsigned entries() const
    {
        return static_cast<unsigned>(table_.size());
    }

    /** Attribute-activation order (fixed priority, see trace::Attr). */
    static trace::Attr activationOrder(unsigned step);

    /** Mean number of active attributes over valid entries. */
    double meanActiveAttrs() const;

  private:
    struct Entry
    {
        std::uint8_t tag = 0;
        bool valid = false;
        trace::AttrMask mask = 0;
        std::uint16_t barren_lookups = 0; ///< lookups since last success
    };

    Entry &
    entryFor(std::uint16_t full_hash)
    {
        Entry &entry = table_[indexOf(full_hash)];
        if (!entry.valid || entry.tag != tagOf(full_hash)) {
            // Direct-mapped: conflicts simply displace (paper:
            // "conflicts have little impact on the prefetcher's
            // performance").
            entry.valid = true;
            entry.tag = tagOf(full_hash);
            entry.mask = initial_mask_;
            entry.barren_lookups = 0;
        }
        return entry;
    }

    std::uint32_t
    indexOf(std::uint16_t full_hash) const
    {
        return full_hash & ((1u << index_bits_) - 1);
    }

    std::uint8_t
    tagOf(std::uint16_t full_hash) const
    {
        return static_cast<std::uint8_t>(full_hash >> index_bits_);
    }

    unsigned index_bits_;
    trace::AttrMask initial_mask_;
    bool adaptive_;
    std::uint16_t underload_lookups_; ///< barren lookups before merging
    std::vector<Entry> table_;
};

} // namespace csp::prefetch::ctx

#endif // CSP_PREFETCH_CONTEXT_REDUCER_H
