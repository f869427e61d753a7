/** @file Unit tests for the simulated heap. */

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "runtime/arena.h"

namespace csp::runtime {
namespace {

TEST(Arena, SequentialAllocationsAreContiguousPerClass)
{
    Arena arena(1 << 20, Placement::Sequential, 1);
    const Addr a = arena.addrOf(arena.allocate(16));
    const Addr b = arena.addrOf(arena.allocate(16));
    const Addr c = arena.addrOf(arena.allocate(16));
    EXPECT_EQ(b - a, 16u);
    EXPECT_EQ(c - b, 16u);
}

TEST(Arena, RandomizedAllocationsAreScattered)
{
    Arena arena(1 << 20, Placement::Randomized, 1);
    std::vector<Addr> addrs;
    for (int i = 0; i < 32; ++i)
        addrs.push_back(arena.addrOf(arena.allocate(16)));
    int contiguous = 0;
    for (std::size_t i = 1; i < addrs.size(); ++i) {
        if (addrs[i] == addrs[i - 1] + 16)
            ++contiguous;
    }
    // A shuffled slab leaves few adjacent pairs.
    EXPECT_LT(contiguous, 8);
}

TEST(Arena, RandomizedIsDeterministicPerSeed)
{
    Arena a(1 << 20, Placement::Randomized, 99);
    Arena b(1 << 20, Placement::Randomized, 99);
    for (int i = 0; i < 100; ++i) {
        EXPECT_EQ(a.addrOf(a.allocate(32)),
                  b.addrOf(b.allocate(32)));
    }
}

TEST(Arena, DifferentSeedsShuffleDifferently)
{
    Arena a(1 << 20, Placement::Randomized, 1);
    Arena b(1 << 20, Placement::Randomized, 2);
    bool any_diff = false;
    for (int i = 0; i < 64; ++i) {
        if (a.addrOf(a.allocate(16)) != b.addrOf(b.allocate(16)))
            any_diff = true;
    }
    EXPECT_TRUE(any_diff);
}

TEST(Arena, BaseAddressRespected)
{
    Arena arena(1 << 16, Placement::Sequential, 1, 0xdead0000);
    EXPECT_EQ(arena.baseAddr(), 0xdead0000u);
    EXPECT_GE(arena.addrOf(arena.allocate(16)), 0xdead0000u);
}

TEST(Arena, BytesLiveTracksAllocations)
{
    Arena arena(1 << 20, Placement::Sequential, 1);
    EXPECT_EQ(arena.bytesLive(), 0u);
    arena.allocate(16);
    EXPECT_EQ(arena.bytesLive(), 16u);
    arena.allocate(100000); // large: counted at its exact size
    EXPECT_EQ(arena.bytesLive(), 100016u);
}

TEST(Arena, SizeClassRounding)
{
    Arena arena(1 << 20, Placement::Sequential, 1);
    arena.allocate(17); // rounds to the 32-byte class
    EXPECT_EQ(arena.bytesLive(), 32u);
}

TEST(Arena, LargeAllocationsBumpAllocated)
{
    Arena arena(1 << 20, Placement::Sequential, 1);
    void *big = arena.allocate(100000);
    const Addr addr = arena.addrOf(big);
    EXPECT_EQ(addr % 64, 0u); // 64-byte aligned
    EXPECT_GE(arena.bytesCarved(), 100000u);
}

TEST(Arena, MakeConstructsInPlace)
{
    struct Node
    {
        int x = 7;
    };
    Arena arena(1 << 20, Placement::Sequential, 1);
    Node *node = arena.make<Node>();
    EXPECT_EQ(node->x, 7);
    EXPECT_EQ(arena.bytesLive(), 16u);
}

TEST(Arena, DistinctAddressesAcrossManyAllocations)
{
    Arena arena(1 << 22, Placement::Randomized, 5);
    std::set<Addr> seen;
    for (int i = 0; i < 10000; ++i)
        EXPECT_TRUE(seen.insert(arena.addrOf(arena.allocate(48))).second);
}

TEST(ArenaDeathTest, ExhaustionIsFatal)
{
    EXPECT_DEATH(
        {
            Arena arena(16 * 1024, Placement::Sequential, 1);
            for (int i = 0; i < 100000; ++i)
                arena.allocate(64);
        },
        "exhausted");
}

} // namespace
} // namespace csp::runtime
