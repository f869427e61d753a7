/** @file Unit tests for the hardware-context tracker. */

#include <gtest/gtest.h>

#include "trace/hw_state.h"

namespace csp::trace {
namespace {

TraceRecord
loadRec(Addr pc, Addr vaddr, std::uint64_t loaded = 0)
{
    TraceRecord rec;
    rec.kind = InstKind::Load;
    rec.pc = pc;
    rec.vaddr = vaddr;
    rec.loaded_value = loaded;
    return rec;
}

TraceRecord
branchRec(bool taken)
{
    TraceRecord rec;
    rec.kind = InstKind::Branch;
    rec.taken = taken;
    return rec;
}

/** The context of @p rec, captured into a fresh snapshot. */
ContextSnapshot
capture(const HwContextTracker &hw, const TraceRecord &rec)
{
    ContextSnapshot ctx;
    hw.captureInto(rec, ctx);
    return ctx;
}

TEST(HwState, CaptureReflectsIp)
{
    HwContextTracker hw;
    const auto ctx = capture(hw, loadRec(0x400100, 0x1000));
    EXPECT_EQ(ctx.get(Attr::IP), 0x400100u);
}

TEST(HwState, BranchHistoryShiftsIn)
{
    HwContextTracker hw;
    hw.update(branchRec(true));
    hw.update(branchRec(false));
    hw.update(branchRec(true));
    EXPECT_EQ(hw.branchHistory(), 0b101u);
}

TEST(HwState, BranchHistoryVisibleInContext)
{
    HwContextTracker hw;
    hw.update(branchRec(true));
    const auto ctx = capture(hw, loadRec(0x400100, 0x1000));
    EXPECT_EQ(ctx.get(Attr::BranchHistory), 1u);
}

TEST(HwState, PrevDataIsLastLoadedValue)
{
    HwContextTracker hw;
    hw.update(loadRec(0x400100, 0x1000, 0xfeed));
    const auto ctx = capture(hw, loadRec(0x400104, 0x2000));
    EXPECT_EQ(ctx.get(Attr::PrevData), 0xfeedu);
}

TEST(HwState, CaptureBeforeUpdateExcludesCurrentAccess)
{
    HwContextTracker hw(64);
    hw.update(loadRec(0x400100, 0x1000, 1));
    const auto before = capture(hw, loadRec(0x400104, 0x2000, 2));
    hw.update(loadRec(0x400104, 0x2000, 2));
    const auto after = capture(hw, loadRec(0x400108, 0x3000, 3));
    EXPECT_NE(before.get(Attr::AddrHistory),
              after.get(Attr::AddrHistory));
    EXPECT_EQ(before.get(Attr::PrevData), 1u);
    EXPECT_EQ(after.get(Attr::PrevData), 2u);
}

TEST(HwState, AddrHistoryAtBlockGranularity)
{
    HwContextTracker hw(64);
    hw.update(loadRec(0x400100, 0x1000));
    const auto a = capture(hw, loadRec(0x400104, 0x9000));
    HwContextTracker hw2(64);
    hw2.update(loadRec(0x400100, 0x1020)); // same 64B block as 0x1000
    const auto b = capture(hw2, loadRec(0x400104, 0x9000));
    EXPECT_EQ(a.get(Attr::AddrHistory), b.get(Attr::AddrHistory));
}

TEST(HwState, StoresUpdateAddressHistoryNotPrevData)
{
    HwContextTracker hw(64);
    hw.update(loadRec(0x400100, 0x1000, 0x11));
    TraceRecord store;
    store.kind = InstKind::Store;
    store.pc = 0x400104;
    store.vaddr = 0x5000;
    hw.update(store);
    const auto ctx = capture(hw, loadRec(0x400108, 0x2000));
    EXPECT_EQ(ctx.get(Attr::PrevData), 0x11u);
}

TEST(HwState, HintsMergeIntoContext)
{
    HwContextTracker hw;
    TraceRecord rec = loadRec(0x400100, 0x1000);
    rec.hint = hints::Hint{9, 16, hints::RefForm::Arrow};
    const auto ctx = capture(hw, rec);
    EXPECT_EQ(ctx.get(Attr::TypeInfo), 9u);
    EXPECT_EQ(ctx.get(Attr::LinkOffset), 16u);
    EXPECT_EQ(ctx.get(Attr::RefForm),
              static_cast<std::uint64_t>(hints::RefForm::Arrow));
}

TEST(HwState, MissingHintYieldsSentinels)
{
    HwContextTracker hw;
    const auto ctx = capture(hw, loadRec(0x400100, 0x1000));
    EXPECT_EQ(ctx.get(Attr::TypeInfo), 0u);
    EXPECT_EQ(ctx.get(Attr::LinkOffset), hints::kNoLinkOffset);
    EXPECT_EQ(ctx.get(Attr::RefForm), 0u);
}

TEST(HwState, ComputeDoesNotTouchState)
{
    HwContextTracker hw;
    hw.update(loadRec(0x400100, 0x1000, 5));
    TraceRecord compute;
    compute.kind = InstKind::Compute;
    hw.update(compute);
    const auto ctx = capture(hw, loadRec(0x400104, 0x2000));
    EXPECT_EQ(ctx.get(Attr::PrevData), 5u);
}

} // namespace
} // namespace csp::trace
