/** @file Unit tests for the Reducer's online feature selection. */

#include <gtest/gtest.h>

#include <bit>

#include "core/rng.h"
#include "prefetch/context/reducer.h"

namespace csp::prefetch::ctx {
namespace {

using trace::Attr;
using trace::AttrMask;
using trace::attrBit;

ContextPrefetcherConfig
smallConfig()
{
    ContextPrefetcherConfig config;
    config.reducer_entries = 64;
    return config;
}

AttrMask
initialMask()
{
    return attrBit(Attr::IP) | attrBit(Attr::TypeInfo);
}

TEST(Reducer, FreshEntryHasInitialMask)
{
    Reducer reducer(smallConfig(), initialMask());
    EXPECT_EQ(reducer.lookup(7), initialMask());
}

TEST(Reducer, OverloadActivatesNextAttribute)
{
    Reducer reducer(smallConfig(), initialMask());
    reducer.lookup(7);
    EXPECT_TRUE(reducer.onOverload(7));
    const AttrMask mask = reducer.lookup(7);
    EXPECT_NE(mask, initialMask());
    EXPECT_EQ(std::popcount(static_cast<unsigned>(mask)), 3);
}

TEST(Reducer, ActivationFollowsPriorityOrder)
{
    Reducer reducer(smallConfig(), attrBit(Attr::IP));
    reducer.onOverload(7);
    // Priority order is the Attr enumeration: TypeInfo comes next.
    EXPECT_NE(reducer.lookup(7) & attrBit(Attr::TypeInfo), 0);
    EXPECT_EQ(reducer.lookup(7) & attrBit(Attr::AddrHistory), 0);
}

TEST(Reducer, AddrHistoryActivatedBeforeBranchHistory)
{
    // Paper Table 1: address history is risky but still more useful
    // than raw branch noise; our fixed order reflects that.
    Reducer reducer(smallConfig(), attrBit(Attr::IP));
    AttrMask mask = 0;
    for (int i = 0; i < 8; ++i) {
        mask = reducer.lookup(7);
        if (mask & attrBit(Attr::AddrHistory))
            break;
        reducer.onOverload(7);
    }
    EXPECT_NE(mask & attrBit(Attr::AddrHistory), 0);
    EXPECT_EQ(mask & attrBit(Attr::BranchHistory), 0);
}

TEST(Reducer, OverloadSaturatesAtAllAttrs)
{
    Reducer reducer(smallConfig(), attrBit(Attr::IP));
    for (unsigned i = 0; i < trace::kNumAttrs; ++i)
        reducer.onOverload(7);
    EXPECT_EQ(reducer.lookup(7), trace::kAllAttrs);
    EXPECT_FALSE(reducer.onOverload(7));
}

TEST(Reducer, UnderloadDeactivatesMostRecent)
{
    Reducer reducer(smallConfig(), initialMask());
    reducer.onOverload(7);
    const AttrMask widened = reducer.lookup(7);
    EXPECT_TRUE(reducer.onUnderload(7));
    EXPECT_EQ(reducer.lookup(7), initialMask());
    EXPECT_NE(widened, initialMask());
}

TEST(Reducer, UnderloadNeverShrinksBelowInitial)
{
    Reducer reducer(smallConfig(), initialMask());
    EXPECT_FALSE(reducer.onUnderload(7));
    EXPECT_EQ(reducer.lookup(7), initialMask());
}

TEST(Reducer, BarrenLookupsTriggerUnderload)
{
    Reducer reducer(smallConfig(), initialMask());
    reducer.onOverload(7);
    bool merged = false;
    for (int i = 0; i < 400 && !merged; ++i)
        merged = reducer.recordOutcome(7, false);
    EXPECT_TRUE(merged);
    EXPECT_EQ(reducer.lookup(7), initialMask());
}

TEST(Reducer, UsefulLookupsResetBarrenCount)
{
    Reducer reducer(smallConfig(), initialMask());
    reducer.onOverload(7);
    for (int i = 0; i < 1000; ++i) {
        // Interleaved successes keep the entry from merging.
        EXPECT_FALSE(reducer.recordOutcome(7, i % 2 == 0));
    }
    EXPECT_NE(reducer.lookup(7), initialMask());
}

TEST(Reducer, NonAdaptiveModeFreezesMasks)
{
    ContextPrefetcherConfig config = smallConfig();
    config.adaptive_reducer = false;
    Reducer reducer(config, initialMask());
    EXPECT_FALSE(reducer.onOverload(7));
    for (int i = 0; i < 1000; ++i)
        EXPECT_FALSE(reducer.recordOutcome(7, false));
    EXPECT_EQ(reducer.lookup(7), initialMask());
}

TEST(Reducer, ConflictDisplacesEntry)
{
    Reducer reducer(smallConfig(), initialMask());
    reducer.onOverload(7); // widen entry at index 7
    // 64 entries -> index bits 6; full hashes 7 and 7+64 share the
    // index but differ in tag.
    reducer.lookup(7 + 64);
    // Returning to the original hash finds a displaced (reset) entry.
    EXPECT_EQ(reducer.lookup(7), initialMask());
}

TEST(Reducer, MeanActiveAttrsTracksWidening)
{
    Reducer reducer(smallConfig(), attrBit(Attr::IP));
    reducer.lookup(1);
    reducer.lookup(2);
    EXPECT_DOUBLE_EQ(reducer.meanActiveAttrs(), 1.0);
    reducer.onOverload(1);
    EXPECT_DOUBLE_EQ(reducer.meanActiveAttrs(), 1.5);
}

// The prefetcher reads the reduced key off the full-context hash chain
// (trace::ContextSnapshot::prefixHashes), which is only right while
// every mask is a prefix {0..k} of the activation order. Random
// overload/underload/outcome sequences, over a small table so entries
// also get displaced, must never leave another shape.
TEST(Reducer, MasksStayPrefixesUnderRandomAdaptation)
{
    const AttrMask hints = attrBit(Attr::IP) | attrBit(Attr::TypeInfo) |
                           attrBit(Attr::LinkOffset) |
                           attrBit(Attr::RefForm);
    for (const AttrMask initial : {attrBit(Attr::IP), hints}) {
        Reducer reducer(smallConfig(), initial);
        Rng rng(initial);
        for (int step = 0; step < 20000; ++step) {
            const auto key = static_cast<std::uint16_t>(rng.below(256));
            switch (rng.below(4)) {
            case 0:
                reducer.onOverload(key);
                break;
            case 1:
                reducer.onUnderload(key);
                break;
            default:
                reducer.recordOutcome(key, rng.chance(0.2));
                break;
            }
            const AttrMask mask = reducer.lookup(key);
            ASSERT_EQ(mask & (mask + 1), 0) << "step " << step;
            ASSERT_EQ(mask & initial, initial) << "step " << step;
        }
    }
}

TEST(ReducerDeathTest, InitialMaskMustBeAPrefix)
{
    EXPECT_DEATH(Reducer(smallConfig(), attrBit(Attr::TypeInfo)), "");
    EXPECT_DEATH(Reducer(smallConfig(),
                         attrBit(Attr::IP) | attrBit(Attr::RefForm)),
                 "");
}

} // namespace
} // namespace csp::prefetch::ctx
