/**
 * @file
 * Equivalence proof for the incremental (lane-cached) context hashing
 * against the from-scratch WordHasher chain it replaces.
 *
 * ContextSnapshot keeps one pre-mixed hash lane per attribute and
 * refreshes a lane only when set() changes the value; hash(mask, bits)
 * then combines the selected lanes. The documented contract is that
 * this is bit-compatible with a WordHasher chain over the index-salted
 * attribute values in index order. This test replays real workload
 * traces through HwContextTracker — the producer whose capture pattern
 * (most attributes stable across consecutive accesses) the lane cache
 * is built for — and checks, for every memory access and a spread of
 * (mask, bits) pairs, that the incremental snapshot, a freshly
 * constructed snapshot, and the explicit WordHasher chain all agree.
 * It also checks the prefix states of the one full-context chain
 * (ContextSnapshot::prefixHashes) against the masked hash of each
 * prefix mask, the identity the prefetcher's two-level index rests on.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <vector>

#include "core/hashing.h"
#include "trace/context.h"
#include "trace/hw_state.h"
#include "trace_util.h"
#include "workloads/registry.h"

namespace csp::trace {
namespace {

/** Ground truth: WordHasher over the index-salted values of the
 *  attributes selected by @p mask, ascending attribute index. */
std::uint64_t
scratchHash(const ContextSnapshot &ctx, AttrMask mask, unsigned bits)
{
    WordHasher hasher;
    for (unsigned i = 0; i < kNumAttrs; ++i) {
        if (!(mask & (1u << i)))
            continue;
        hasher.add((static_cast<std::uint64_t>(i) << 56) ^
                   ctx.get(static_cast<Attr>(i)));
    }
    return hasher.digestBits(bits);
}

/** Every mask worth checking: each single attribute, the two named
 *  masks, the empty mask, and a handful of mixed patterns. */
std::vector<AttrMask>
masksUnderTest()
{
    std::vector<AttrMask> masks;
    for (unsigned i = 0; i < kNumAttrs; ++i)
        masks.push_back(static_cast<AttrMask>(1u << i));
    masks.push_back(kAllAttrs);
    masks.push_back(kHardwareAttrs);
    masks.push_back(0);
    masks.push_back(0b10101010);
    masks.push_back(0b01010101);
    masks.push_back(0b00110011);
    return masks;
}

void
replayAndCompare(const std::string &workload_name)
{
    workloads::WorkloadParams params;
    params.scale = 20000;
    params.seed = 3;
    const auto workload =
        workloads::Registry::builtin().create(workload_name);
    const std::vector<TraceRecord> records =
        decodeAll(workload->generate(params));
    ASSERT_FALSE(records.empty());

    const std::vector<AttrMask> masks = masksUnderTest();
    const unsigned widths[] = {12, 16, 19, 32, 64};

    HwContextTracker hw;
    // The incremental snapshot lives across the whole replay, exactly
    // like the simulator's run-local snapshot: captureInto() only
    // re-mixes lanes whose values changed since the last access.
    ContextSnapshot incremental;
    std::uint64_t accesses = 0;
    std::uint64_t mismatches = 0;
    std::uint64_t prefix_mismatches = 0;
    for (const TraceRecord &rec : records) {
        if (rec.kind == InstKind::Load ||
            rec.kind == InstKind::Store) {
            hw.captureInto(rec, incremental);
            // From-scratch control: a fresh snapshot re-mixes every
            // lane from the captured values.
            ContextSnapshot fresh;
            for (unsigned i = 0; i < kNumAttrs; ++i) {
                fresh.set(static_cast<Attr>(i),
                          incremental.get(static_cast<Attr>(i)));
            }
            ++accesses;
            // The one chain both indexing levels read: each prefix
            // state is the hash of that prefix mask, at every width
            // the prefetcher uses.
            const std::array<std::uint64_t, kNumAttrs> prefixes =
                incremental.prefixHashes();
            for (unsigned k = 0; k < kNumAttrs; ++k) {
                for (const unsigned bits : {16u, 19u, 64u}) {
                    const std::uint64_t low =
                        bits >= 64 ? ~std::uint64_t{0}
                                   : (std::uint64_t{1} << bits) - 1;
                    if ((prefixes[k] & low) !=
                        incremental.hash(prefixMask(k), bits)) {
                        ++prefix_mismatches;
                    }
                }
            }
            for (const AttrMask mask : masks) {
                for (const unsigned bits : widths) {
                    const std::uint64_t want =
                        scratchHash(incremental, mask, bits);
                    if (incremental.hash(mask, bits) != want ||
                        fresh.hash(mask, bits) != want) {
                        ++mismatches;
                    }
                }
            }
        }
        hw.update(rec);
    }
    EXPECT_GT(accesses, 1000u);
    EXPECT_EQ(mismatches, 0u);
    EXPECT_EQ(prefix_mismatches, 0u);
}

TEST(HashEquivalence, McfReplay)
{
    replayAndCompare("mcf");
}

TEST(HashEquivalence, ListReplay)
{
    replayAndCompare("list");
}

// Directed check, independent of any trace: after arbitrary set()
// churn — including writes that do not change the value, the case the
// lane cache optimises — the cached-lane hash still equals the
// from-scratch chain for every mask.
TEST(HashEquivalence, RepeatedSetsKeepLanesCoherent)
{
    ContextSnapshot ctx;
    std::uint64_t v = 0x1234'5678'9abc'def0ull;
    for (int round = 0; round < 64; ++round) {
        for (unsigned i = 0; i < kNumAttrs; ++i) {
            // Every third round rewrites the same value (no-op path).
            if (round % 3 != 0)
                v = mix64(v + i);
            ctx.set(static_cast<Attr>(i), v);
        }
        for (const AttrMask mask : masksUnderTest()) {
            EXPECT_EQ(ctx.hash(mask, 64), scratchHash(ctx, mask, 64))
                << "round " << round << " mask " << mask;
        }
    }
}

} // namespace
} // namespace csp::trace
