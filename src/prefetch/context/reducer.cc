#include "prefetch/context/reducer.h"

#include <bit>

#include "core/logging.h"
#include "core/types.h"

namespace csp::prefetch::ctx {

using trace::Attr;
using trace::AttrMask;
using trace::attrBit;
using trace::kNumAttrs;

Reducer::Reducer(const ContextPrefetcherConfig &config,
                 AttrMask initial_mask)
    : index_bits_(floorLog2(config.reducer_entries)),
      initial_mask_(initial_mask),
      adaptive_(config.adaptive_reducer),
      underload_lookups_(16),
      table_(config.reducer_entries)
{
    CSP_ASSERT(isPowerOfTwo(config.reducer_entries));
    CSP_ASSERT(initial_mask != 0 && trace::isPrefixMask(initial_mask));
}

Attr
Reducer::activationOrder(unsigned step)
{
    // Fixed priority: matches the enumeration order of trace::Attr —
    // cheap/general attributes first, address history last (paper
    // Table 1 warns it must be used sparingly).
    CSP_ASSERT(step < kNumAttrs);
    return static_cast<Attr>(step);
}

bool
Reducer::onOverload(std::uint16_t full_hash)
{
    if (!adaptive_)
        return false;
    Entry &entry = entryFor(full_hash);
    for (unsigned step = 0; step < kNumAttrs; ++step) {
        const AttrMask bit = attrBit(activationOrder(step));
        if (!(entry.mask & bit)) {
            entry.mask |= bit;
            entry.barren_lookups = 0;
            return true;
        }
    }
    return false; // everything already active
}

bool
Reducer::onUnderload(std::uint16_t full_hash)
{
    if (!adaptive_)
        return false;
    Entry &entry = entryFor(full_hash);
    // Never shrink below the initial attribute set.
    for (unsigned step = kNumAttrs; step-- > 0;) {
        const AttrMask bit = attrBit(activationOrder(step));
        if ((entry.mask & bit) && !(initial_mask_ & bit)) {
            entry.mask &= static_cast<AttrMask>(~bit);
            entry.barren_lookups = 0;
            return true;
        }
    }
    return false;
}

double
Reducer::meanActiveAttrs() const
{
    std::uint64_t live = 0;
    std::uint64_t active = 0;
    for (const Entry &entry : table_) {
        if (entry.valid) {
            ++live;
            active += std::popcount(
                static_cast<unsigned>(entry.mask));
        }
    }
    return live == 0 ? 0.0
                     : static_cast<double>(active) /
                           static_cast<double>(live);
}

} // namespace csp::prefetch::ctx
