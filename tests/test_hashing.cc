/** @file Unit tests for the hashing primitives. */

#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "core/hashing.h"
#include "core/rng.h"

namespace csp {
namespace {

TEST(Hashing, Fnv1aKnownVector)
{
    // FNV-1a of the empty input is the offset basis.
    EXPECT_EQ(fnv1a({}), 0xcbf29ce484222325ull);
}

TEST(Hashing, Fnv1aDiffersPerByte)
{
    const std::array<std::uint8_t, 3> a{1, 2, 3};
    const std::array<std::uint8_t, 3> b{1, 2, 4};
    EXPECT_NE(fnv1a(a), fnv1a(b));
}

std::span<const std::uint8_t>
bytesOf(const char *text)
{
    return {reinterpret_cast<const std::uint8_t *>(text),
            std::strlen(text)};
}

TEST(StreamDigest, MatchesTheXxHash64ReferenceVectors)
{
    // xxHash64, seed 0: the published vectors cover the short-input
    // path ("", "a", "abc") and, at 39 bytes, the four-lane stripes.
    EXPECT_EQ(streamDigest(bytesOf("")), 0xef46db3751d8e999ull);
    EXPECT_EQ(streamDigest(bytesOf("a")), 0xd24ec4f1a98c6e5bull);
    EXPECT_EQ(streamDigest(bytesOf("abc")), 0x44bc2cf5ad770999ull);
    EXPECT_EQ(
        streamDigest(bytesOf("Nobody inspects the spammish repetition")),
        0xfbcea83c8a378bf1ull);
}

/** @p n bytes of a fixed pseudo-random stream. */
std::vector<std::uint8_t>
randomBytes(std::size_t n)
{
    Rng rng(11);
    std::vector<std::uint8_t> bytes(n);
    for (std::uint8_t &byte : bytes)
        byte = static_cast<std::uint8_t>(rng.next());
    return bytes;
}

TEST(StreamDigest, PinsEveryTailLength)
{
    // One length per tail path after whole stripes: 8-byte words, a
    // 4-byte word and single bytes, each alone and together. The
    // values were cross-checked against an independent implementation
    // of the xxHash64 specification.
    std::array<std::uint8_t, 64 + 15> bytes;
    for (std::size_t i = 0; i < bytes.size(); ++i)
        bytes[i] = static_cast<std::uint8_t>(i * 167 + 13);
    const std::span<const std::uint8_t> all(bytes);
    EXPECT_EQ(streamDigest(all.first(1)), 0x2078e1ad38ad738bull);
    EXPECT_EQ(streamDigest(all.first(4)), 0xeed340908a1ac6c6ull);
    EXPECT_EQ(streamDigest(all.first(8)), 0x76f916c7bb523126ull);
    EXPECT_EQ(streamDigest(all.first(31)), 0x65c5feb01da7464dull);
    EXPECT_EQ(streamDigest(all.first(32)), 0x7665c921c9bf2ec7ull);
    EXPECT_EQ(streamDigest(all.first(64 + 15)), 0x8714d70f32af1c73ull);
}

TEST(StreamDigest, AnyWindowSplitEqualsTheOneShotDigest)
{
    const std::vector<std::uint8_t> bytes =
        randomBytes((std::size_t{4} << 20) + 77);
    const std::span<const std::uint8_t> all(bytes);
    // Windows of fixed size: empty windows interleaved, single bytes,
    // sizes that straddle stripes and the verifier's 4 MiB window.
    for (const std::size_t window :
         {std::size_t{1}, std::size_t{7}, std::size_t{31},
          std::size_t{33}, std::size_t{4096} + 5,
          std::size_t{4} << 20}) {
        for (const std::size_t len :
             {std::size_t{0}, std::size_t{1}, std::size_t{31},
              std::size_t{32}, std::size_t{100}, std::size_t{65537},
              bytes.size()}) {
            if (window == 1 && len > 65537)
                continue; // a byte per call: covered by shorter inputs
            StreamDigest d;
            for (std::size_t off = 0; off < len; off += window) {
                d.update({});
                d.update(all.subspan(off, std::min(window, len - off)));
            }
            EXPECT_EQ(d.digest(), streamDigest(all.first(len)))
                << "window " << window << ", length " << len;
        }
    }
    // Random window sizes over the whole input, digest read mid-way.
    Rng rng(3);
    StreamDigest d;
    std::size_t off = 0;
    while (off < bytes.size()) {
        const std::size_t n =
            std::min<std::size_t>(rng.below(200000), bytes.size() - off);
        d.update(all.subspan(off, n));
        off += n;
        ASSERT_EQ(d.digest(), streamDigest(all.first(off))) << off;
    }
}

TEST(Hashing, Mix64IsDeterministicAndNontrivial)
{
    EXPECT_EQ(mix64(42), mix64(42));
    EXPECT_NE(mix64(42), 42u);
    EXPECT_NE(mix64(0), mix64(1));
}

TEST(Hashing, Mix64AvalanchesLowBits)
{
    // Flipping one input bit should flip many output bits.
    const std::uint64_t a = mix64(0x1000);
    const std::uint64_t b = mix64(0x1001);
    int flipped = __builtin_popcountll(a ^ b);
    EXPECT_GT(flipped, 16);
}

TEST(Hashing, CombineOrderMatters)
{
    const std::uint64_t ab = hashCombine(hashCombine(0, 1), 2);
    const std::uint64_t ba = hashCombine(hashCombine(0, 2), 1);
    EXPECT_NE(ab, ba);
}

TEST(Hashing, WordHasherDeterministic)
{
    WordHasher a;
    WordHasher b;
    for (std::uint64_t v : {1ull, 99ull, 0xdeadbeefull}) {
        a.add(v);
        b.add(v);
    }
    EXPECT_EQ(a.digest(), b.digest());
}

TEST(Hashing, WordHasherOrderSensitive)
{
    WordHasher a;
    a.add(1);
    a.add(2);
    WordHasher b;
    b.add(2);
    b.add(1);
    EXPECT_NE(a.digest(), b.digest());
}

TEST(Hashing, DigestBitsMasks)
{
    WordHasher h;
    h.add(0x123456789abcdef0ull);
    EXPECT_LT(h.digestBits(16), 1ull << 16);
    EXPECT_LT(h.digestBits(19), 1ull << 19);
    EXPECT_EQ(h.digestBits(64), h.digest());
    EXPECT_EQ(h.digestBits(16), h.digest() & 0xffff);
}

TEST(Hashing, FewCollisionsOnSmallDomain)
{
    // 1000 consecutive integers into 19 bits: expect mostly unique.
    std::set<std::uint64_t> seen;
    WordHasher base;
    for (std::uint64_t i = 0; i < 1000; ++i) {
        WordHasher h;
        h.add(i);
        seen.insert(h.digestBits(19));
    }
    EXPECT_GT(seen.size(), 995u);
}

} // namespace
} // namespace csp
