/** @file Unit tests for context snapshots and maskable hashing. */

#include <gtest/gtest.h>

#include <set>

#include "trace/context.h"

namespace csp::trace {
namespace {

ContextSnapshot
sample()
{
    ContextSnapshot ctx;
    ctx.set(Attr::IP, 0x400010);
    ctx.set(Attr::TypeInfo, 3);
    ctx.set(Attr::LinkOffset, 8);
    ctx.set(Attr::RefForm, 2);
    ctx.set(Attr::PrevData, 0xdead);
    ctx.set(Attr::AddrHistory, 0x123);
    ctx.set(Attr::BranchHistory, 0xa5a5);
    ctx.set(Attr::RegData, 42);
    return ctx;
}

TEST(ContextSnapshot, GetSetRoundTrip)
{
    ContextSnapshot ctx;
    ctx.set(Attr::RegData, 99);
    EXPECT_EQ(ctx.get(Attr::RegData), 99u);
    EXPECT_EQ(ctx.get(Attr::IP), 0u);
}

TEST(ContextSnapshot, HashIsDeterministic)
{
    const ContextSnapshot a = sample();
    const ContextSnapshot b = sample();
    EXPECT_EQ(a.hash(kAllAttrs, 19), b.hash(kAllAttrs, 19));
}

TEST(ContextSnapshot, HashFitsBitWidth)
{
    const ContextSnapshot ctx = sample();
    EXPECT_LT(ctx.hash(kAllAttrs, 16), 1u << 16);
    EXPECT_LT(ctx.hash(kAllAttrs, 19), 1u << 19);
}

TEST(ContextSnapshot, InactiveAttributesDoNotAffectHash)
{
    ContextSnapshot a = sample();
    ContextSnapshot b = sample();
    b.set(Attr::BranchHistory, 0x1111); // differs, but masked out
    const AttrMask mask =
        attrBit(Attr::IP) | attrBit(Attr::TypeInfo);
    EXPECT_EQ(a.hash(mask, 19), b.hash(mask, 19));
    EXPECT_NE(a.hash(kAllAttrs, 19), b.hash(kAllAttrs, 19));
}

TEST(ContextSnapshot, ActiveAttributeChangesHash)
{
    ContextSnapshot a = sample();
    ContextSnapshot b = sample();
    b.set(Attr::IP, 0x400020);
    const AttrMask mask = attrBit(Attr::IP);
    EXPECT_NE(a.hash(mask, 19), b.hash(mask, 19));
}

TEST(ContextSnapshot, SameValueDifferentAttributeHashesDifferently)
{
    ContextSnapshot a;
    a.set(Attr::IP, 7);
    ContextSnapshot b;
    b.set(Attr::TypeInfo, 7);
    EXPECT_NE(a.hash(kAllAttrs, 19), b.hash(kAllAttrs, 19));
}

TEST(ContextSnapshot, HashSpreadsOverBuckets)
{
    std::set<std::uint64_t> seen;
    for (std::uint64_t ip = 0; ip < 500; ++ip) {
        ContextSnapshot ctx;
        ctx.set(Attr::IP, 0x400000 + ip * 4);
        seen.insert(ctx.hash(kAllAttrs, 16));
    }
    EXPECT_GT(seen.size(), 490u);
}

TEST(ContextAttrs, MaskConstantsConsistent)
{
    EXPECT_EQ(kAllAttrs, (1u << kNumAttrs) - 1);
    // Hardware mask excludes exactly the three compiler attributes.
    EXPECT_EQ(kHardwareAttrs & attrBit(Attr::TypeInfo), 0);
    EXPECT_EQ(kHardwareAttrs & attrBit(Attr::LinkOffset), 0);
    EXPECT_EQ(kHardwareAttrs & attrBit(Attr::RefForm), 0);
    EXPECT_NE(kHardwareAttrs & attrBit(Attr::IP), 0);
    EXPECT_NE(kHardwareAttrs & attrBit(Attr::BranchHistory), 0);
}

} // namespace
} // namespace csp::trace
