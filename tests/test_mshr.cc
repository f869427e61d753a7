/** @file Unit tests for the MSHR file. */

#include <gtest/gtest.h>

#include "mem/mshr.h"

namespace csp::mem {
namespace {

TEST(Mshr, StartsAllFree)
{
    MshrFile mshrs(4);
    EXPECT_EQ(mshrs.freeAt(0), 4u);
    EXPECT_EQ(mshrs.availableAt(0), 0u);
}

TEST(Mshr, AllocationConsumesSlot)
{
    MshrFile mshrs(2);
    mshrs.allocate(100);
    EXPECT_EQ(mshrs.freeAt(50), 1u);
    EXPECT_EQ(mshrs.freeAt(100), 2u); // completion frees the slot
}

TEST(Mshr, AvailableAtWaitsForEarliestCompletion)
{
    MshrFile mshrs(2);
    mshrs.allocate(100);
    mshrs.allocate(200);
    EXPECT_EQ(mshrs.availableAt(50), 100u);
    EXPECT_EQ(mshrs.availableAt(150), 150u); // one slot already free
}

TEST(Mshr, AllocateReusesEarliestSlot)
{
    MshrFile mshrs(2);
    mshrs.allocate(100);
    mshrs.allocate(200);
    mshrs.allocate(300); // replaces the slot completing at 100
    EXPECT_EQ(mshrs.availableAt(150), 200u);
}

TEST(Mshr, FreeWithinWindow)
{
    MshrFile mshrs(3);
    mshrs.allocate(100);
    mshrs.allocate(500);
    EXPECT_EQ(mshrs.freeWithin(0, 50), 1u);   // only the idle slot
    EXPECT_EQ(mshrs.freeWithin(0, 100), 2u);  // +slot finishing at 100
    EXPECT_EQ(mshrs.freeWithin(0, 1000), 3u); // all
}

TEST(Mshr, BoundsParallelismUnderSaturation)
{
    MshrFile mshrs(4);
    // Issue 8 fills of 300 cycles back-to-back starting at time 0.
    Cycle now = 0;
    Cycle last_fill = 0;
    for (int i = 0; i < 8; ++i) {
        const Cycle start = mshrs.availableAt(now);
        const Cycle fill = start + 300;
        mshrs.allocate(fill);
        last_fill = fill;
    }
    // Two rounds of 4-way parallelism: the last fill lands at 600.
    EXPECT_EQ(last_fill, 600u);
}

TEST(Mshr, SlotsReported)
{
    MshrFile mshrs(20);
    EXPECT_EQ(mshrs.slots(), 20u);
}

} // namespace
} // namespace csp::mem
