/**
 * @file
 * Hash primitives used to fold machine contexts into table indices.
 *
 * The context-based prefetcher hashes a variable-length list of context
 * attribute values twice (paper section 4.4 / Figure 7): once over the full
 * attribute vector to index the Reducer, and once over the active subset to
 * index the Context-States Table. Both hashes are built from the primitives
 * here.
 */

#ifndef CSP_CORE_HASHING_H
#define CSP_CORE_HASHING_H

#include <cstdint>
#include <span>

namespace csp {

/** FNV-1a initial state (offset basis), for chunked hashing. */
inline constexpr std::uint64_t kFnv1aBasis = 0xcbf29ce484222325ull;

/** One FNV-1a step: @p state with @p byte folded in. */
constexpr std::uint64_t
fnv1aStep(std::uint64_t state, std::uint8_t byte)
{
    return (state ^ byte) * 0x100000001b3ull;
}

/** 64-bit FNV-1a over a byte span. */
std::uint64_t fnv1a(std::span<const std::uint8_t> bytes);

/**
 * Continue an FNV-1a hash from @p state over @p bytes, so large inputs
 * can be hashed window-by-window: chaining from kFnv1aBasis across
 * consecutive chunks equals fnv1a over their concatenation. Lets the
 * mmap'd trace verifier hash a file without keeping it resident.
 */
std::uint64_t fnv1aResume(std::uint64_t state,
                          std::span<const std::uint8_t> bytes);

/** Strong 64-bit integer mix (splitmix64 finalizer). */
constexpr std::uint64_t
mix64(std::uint64_t x)
{
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/** Combine an accumulated hash with one more 64-bit value. */
constexpr std::uint64_t
hashCombine(std::uint64_t seed, std::uint64_t value)
{
    return mix64(seed ^ (mix64(value) + 0x9e3779b97f4a7c15ull +
                         (seed << 6) + (seed >> 2)));
}

/**
 * hashCombine with the value's mix64 precomputed:
 * hashCombinePremixed(seed, mix64(v)) == hashCombine(seed, v).
 * Callers that hash the same values repeatedly (the context snapshot's
 * per-attribute lanes) cache the mix and pay only the cheap combine.
 */
constexpr std::uint64_t
hashCombinePremixed(std::uint64_t seed, std::uint64_t mixed)
{
    return mix64(seed ^ (mixed + 0x9e3779b97f4a7c15ull + (seed << 6) +
                         (seed >> 2)));
}

/** Initial WordHasher state (exposed so incremental hashers can chain
 *  hashCombine themselves and still match WordHasher digests). */
inline constexpr std::uint64_t kWordHasherSeed = 0x51ed270b35ae7d25ull;

/**
 * Incremental hasher over 64-bit words. The order of added words matters,
 * which is what we want: context attributes are position-significant.
 */
class WordHasher
{
  public:
    /** Add one word to the running hash. */
    void
    add(std::uint64_t value)
    {
        state_ = hashCombine(state_, value);
    }

    /** Current digest. */
    std::uint64_t digest() const { return state_; }

    /** Digest truncated to the low @p bits bits. */
    std::uint64_t
    digestBits(unsigned bits) const
    {
        return bits >= 64 ? state_ : (state_ & ((1ull << bits) - 1));
    }

  private:
    std::uint64_t state_ = kWordHasherSeed;
};

} // namespace csp

#endif // CSP_CORE_HASHING_H
