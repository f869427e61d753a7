/**
 * @file
 * Hash primitives used to fold machine contexts into table indices.
 *
 * The context-based prefetcher hashes a variable-length list of context
 * attribute values twice (paper section 4.4 / Figure 7): once over the full
 * attribute vector to index the Reducer, and once over the active subset to
 * index the Context-States Table. Both hashes are built from the primitives
 * here. StreamDigest is the bulk-payload digest behind the trace
 * content digest.
 */

#ifndef CSP_CORE_HASHING_H
#define CSP_CORE_HASHING_H

#include <cstddef>
#include <cstdint>
#include <span>

namespace csp {

/** 64-bit FNV-1a over a byte span: a byte-serial hash for short keys
 *  (cache-entry names). Bulk payloads use StreamDigest. */
std::uint64_t fnv1a(std::span<const std::uint8_t> bytes);

/**
 * Streaming 64-bit digest of a byte stream: xxHash64 with seed 0.
 * Four 64-bit lanes each fold one word of every 32-byte stripe through
 * a multiply-rotate round, so the lanes run in parallel and the hash
 * keeps pace with memory bandwidth; the tail and the final avalanche
 * follow the xxHash64 specification, so the reference test vectors
 * hold.
 *
 * update() takes the input in windows of any size: a partial stripe is
 * buffered until the next window completes it, so the digest over any
 * split of the input equals streamDigest() over the whole of it. That
 * lets the mmap'd trace verifier hash a file without keeping it
 * resident.
 */
class StreamDigest
{
  public:
    /** Fold @p bytes, the next window of the input, into the state. */
    void update(std::span<const std::uint8_t> bytes);

    /** Digest of everything update() has seen so far. */
    std::uint64_t digest() const;

  private:
    static constexpr std::size_t kStripe = 32;

    std::uint64_t lanes_[4] = {0x60ea27eeadc0b5d6ull,  // P1 + P2
                               0xc2b2ae3d27d4eb4full,  // P2
                               0,                      // seed
                               0x61c8864e7a143579ull}; // -P1
    std::uint64_t total_ = 0;          ///< bytes seen
    std::uint8_t pending_[kStripe];    ///< incomplete trailing stripe
    std::size_t pending_size_ = 0;
};

/** StreamDigest over @p bytes in one window. */
std::uint64_t streamDigest(std::span<const std::uint8_t> bytes);

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
