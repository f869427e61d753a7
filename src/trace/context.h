/**
 * @file
 * The machine context of a memory access: the attribute set of paper
 * Table 1, captured per access, with maskable hashing for the two-level
 * Reducer/CST indexing scheme (paper section 4.4, Figure 7).
 */

#ifndef CSP_TRACE_CONTEXT_H
#define CSP_TRACE_CONTEXT_H

#include <array>
#include <bit>
#include <cstdint>

#include "core/hashing.h"
#include "core/types.h"

namespace csp::trace {

/**
 * Context attributes (the rows of paper Table 1). The enumeration order
 * is also the order in which the Reducer activates attributes when a
 * context overloads: cheap, general attributes first; the
 * address-history attribute late because the paper warns it risks
 * "overly localized learning and must be used sparingly".
 */
enum class Attr : std::uint8_t
{
    IP = 0,        ///< instruction pointer of the access (hardware)
    TypeInfo,      ///< object type enumeration (compiler)
    LinkOffset,    ///< link-field offset within the object (compiler)
    RefForm,       ///< form of reference: . -> * [] (compiler)
    PrevData,      ///< data returned by the previous load (hardware)
    AddrHistory,   ///< recent memory-access history (hardware)
    BranchHistory, ///< recent branch outcome history (hardware)
    RegData,       ///< representative register contents (hardware)
    Count,
};

inline constexpr unsigned kNumAttrs = static_cast<unsigned>(Attr::Count);

/** Bitmask over Attr values; bit i covers Attr(i). */
using AttrMask = std::uint16_t;

/** Mask with every attribute active. */
inline constexpr AttrMask kAllAttrs = (1u << kNumAttrs) - 1;

/** Mask covering only the hardware-sourced attributes. */
inline constexpr AttrMask kHardwareAttrs =
    static_cast<AttrMask>(kAllAttrs &
                          ~((1u << static_cast<unsigned>(Attr::TypeInfo)) |
                            (1u << static_cast<unsigned>(Attr::LinkOffset)) |
                            (1u << static_cast<unsigned>(Attr::RefForm))));

/** Single-attribute mask. */
constexpr AttrMask
attrBit(Attr attr)
{
    return static_cast<AttrMask>(1u << static_cast<unsigned>(attr));
}

/** Mask of attributes 0..@p k: the only form a Reducer mask takes. */
constexpr AttrMask
prefixMask(unsigned k)
{
    return static_cast<AttrMask>((2u << k) - 1);
}

/** True iff @p mask is empty or prefixMask(k) for some k. */
constexpr bool
isPrefixMask(AttrMask mask)
{
    return (mask & (mask + 1u)) == 0;
}

/**
 * The captured context of one memory access: one 64-bit value per
 * attribute, plus maskable hashing.
 *
 * Hashing is incremental: each attribute keeps a pre-mixed hash lane
 * that is refreshed only when set() actually changes the value (most
 * attributes are stable across consecutive accesses), so the per-access
 * masked hash reduces to one cheap combine per selected attribute
 * instead of a full re-mix of every value.
 */
class ContextSnapshot
{
  public:
    std::uint64_t
    get(Attr attr) const
    {
        return values_[static_cast<unsigned>(attr)];
    }

    void
    set(Attr attr, std::uint64_t value)
    {
        const auto i = static_cast<unsigned>(attr);
        if (values_[i] != value) {
            values_[i] = value;
            lanes_[i] = laneOf(i, value);
        }
    }

    /**
     * Hash the attributes selected by @p mask down to @p bits bits.
     * Inactive attributes do not influence the result, which is what
     * makes the Reducer's merge/split behaviour possible. Equivalent to
     * (and bit-compatible with) a WordHasher chain over the selected
     * (index-salted) attribute values in index order.
     */
    std::uint64_t
    hash(AttrMask mask, unsigned bits) const
    {
        std::uint64_t state = kWordHasherSeed;
        auto rest = static_cast<std::uint32_t>(mask);
        while (rest != 0) {
            const unsigned i =
                static_cast<unsigned>(std::countr_zero(rest));
            rest &= rest - 1;
            state = hashCombinePremixed(state, lanes_[i]);
        }
        return bits >= 64 ? state : (state & ((1ull << bits) - 1));
    }

    /**
     * One chain over every attribute, keeping each prefix state:
     * element k is hash(prefixMask(k), 64), and the last element is
     * hash(kAllAttrs, 64). Both indexing levels read from one call.
     */
    std::array<std::uint64_t, kNumAttrs>
    prefixHashes() const
    {
        std::array<std::uint64_t, kNumAttrs> prefixes;
        std::uint64_t state = kWordHasherSeed;
        for (unsigned i = 0; i < kNumAttrs; ++i) {
            state = hashCombinePremixed(state, lanes_[i]);
            prefixes[i] = state;
        }
        return prefixes;
    }

  private:
    /** Pre-mixed lane of attribute @p i holding @p value: the attribute
     *  index is salted in so equal values in different attributes hash
     *  differently. */
    static constexpr std::uint64_t
    laneOf(unsigned i, std::uint64_t value)
    {
        return mix64((static_cast<std::uint64_t>(i) << 56) ^ value);
    }

    static constexpr std::array<std::uint64_t, kNumAttrs>
    zeroLanes()
    {
        std::array<std::uint64_t, kNumAttrs> lanes{};
        for (unsigned i = 0; i < kNumAttrs; ++i)
            lanes[i] = laneOf(i, 0);
        return lanes;
    }

    std::array<std::uint64_t, kNumAttrs> values_{};
    std::array<std::uint64_t, kNumAttrs> lanes_ = zeroLanes();
};

} // namespace csp::trace

#endif // CSP_TRACE_CONTEXT_H
