#include "core/hashing.h"

#include <algorithm>
#include <bit>
#include <cstring>

namespace csp {

namespace {

constexpr std::uint64_t kP1 = 0x9e3779b185ebca87ull;
constexpr std::uint64_t kP2 = 0xc2b2ae3d27d4eb4full;
constexpr std::uint64_t kP3 = 0x165667b19e3779f9ull;
constexpr std::uint64_t kP4 = 0x85ebca77c2b2ae63ull;
constexpr std::uint64_t kP5 = 0x27d4eb2f165667c5ull;

static_assert(kP1 + kP2 == 0x60ea27eeadc0b5d6ull);
static_assert(0 - kP1 == 0x61c8864e7a143579ull);

std::uint64_t
load64(const std::uint8_t *p)
{
    std::uint64_t v;
    std::memcpy(&v, p, sizeof v);
    return v;
}

std::uint32_t
load32(const std::uint8_t *p)
{
    std::uint32_t v;
    std::memcpy(&v, p, sizeof v);
    return v;
}

/** One lane step: fold @p word into @p lane. */
constexpr std::uint64_t
round(std::uint64_t lane, std::uint64_t word)
{
    return std::rotl(lane + word * kP2, 31) * kP1;
}

constexpr std::uint64_t
mergeLane(std::uint64_t acc, std::uint64_t lane)
{
    return (acc ^ round(0, lane)) * kP1 + kP4;
}

/** Fold every whole stripe of [@p p, @p end) into @p lanes; returns
 *  the first byte not consumed. */
const std::uint8_t *
stripes(std::uint64_t *lanes, const std::uint8_t *p,
        const std::uint8_t *end)
{
    std::uint64_t l0 = lanes[0], l1 = lanes[1], l2 = lanes[2],
                  l3 = lanes[3];
    for (; end - p >= 32; p += 32) {
        l0 = round(l0, load64(p));
        l1 = round(l1, load64(p + 8));
        l2 = round(l2, load64(p + 16));
        l3 = round(l3, load64(p + 24));
    }
    lanes[0] = l0;
    lanes[1] = l1;
    lanes[2] = l2;
    lanes[3] = l3;
    return p;
}

constexpr std::uint64_t kFnv1aBasis = 0xcbf29ce484222325ull;

} // namespace

std::uint64_t
fnv1a(std::span<const std::uint8_t> bytes)
{
    std::uint64_t state = kFnv1aBasis;
    for (std::uint8_t byte : bytes)
        state = (state ^ byte) * 0x100000001b3ull;
    return state;
}

void
StreamDigest::update(std::span<const std::uint8_t> bytes)
{
    if (bytes.empty())
        return;
    const std::uint8_t *p = bytes.data();
    const std::uint8_t *const end = p + bytes.size();
    total_ += bytes.size();
    if (pending_size_ != 0) {
        const std::size_t n =
            std::min(kStripe - pending_size_, bytes.size());
        std::memcpy(pending_ + pending_size_, p, n);
        pending_size_ += n;
        p += n;
        if (pending_size_ < kStripe)
            return;
        stripes(lanes_, pending_, pending_ + kStripe);
        pending_size_ = 0;
    }
    p = stripes(lanes_, p, end);
    pending_size_ = static_cast<std::size_t>(end - p);
    std::memcpy(pending_, p, pending_size_);
}

std::uint64_t
StreamDigest::digest() const
{
    std::uint64_t h;
    if (total_ >= kStripe) {
        h = std::rotl(lanes_[0], 1) + std::rotl(lanes_[1], 7) +
            std::rotl(lanes_[2], 12) + std::rotl(lanes_[3], 18);
        for (const std::uint64_t lane : lanes_)
            h = mergeLane(h, lane);
    } else {
        h = kP5; // seed + P5
    }
    h += total_;
    const std::uint8_t *p = pending_;
    const std::uint8_t *const end = pending_ + pending_size_;
    for (; end - p >= 8; p += 8)
        h = std::rotl(h ^ round(0, load64(p)), 27) * kP1 + kP4;
    if (end - p >= 4) {
        h = std::rotl(h ^ (std::uint64_t{load32(p)} * kP1), 23) * kP2 +
            kP3;
        p += 4;
    }
    for (; p < end; ++p)
        h = std::rotl(h ^ (*p * kP5), 11) * kP1;
    h ^= h >> 33;
    h *= kP2;
    h ^= h >> 29;
    h *= kP3;
    h ^= h >> 32;
    return h;
}

std::uint64_t
streamDigest(std::span<const std::uint8_t> bytes)
{
    StreamDigest d;
    d.update(bytes);
    return d.digest();
}

} // namespace csp
