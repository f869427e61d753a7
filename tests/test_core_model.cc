/** @file Unit tests for the OoO core timing model. */

#include <gtest/gtest.h>

#include "cpu/core_model.h"

namespace csp::cpu {
namespace {

CoreConfig
defaultCore()
{
    return CoreConfig{};
}

TEST(CoreModel, PureComputeRunsAtFetchWidth)
{
    CoreModel core(defaultCore());
    core.computeBurst(4000);
    // 4-wide: 4000 instructions in ~1000 cycles (+pipeline slack).
    EXPECT_NEAR(core.ipc(), 4.0, 0.1);
}

TEST(CoreModel, FetchWidthBoundsDispatchPerCycle)
{
    CoreConfig config = defaultCore();
    config.fetch_width = 2;
    CoreModel core(config);
    core.computeBurst(1000);
    EXPECT_NEAR(core.ipc(), 2.0, 0.1);
}

TEST(CoreModel, DependentLoadsSerialise)
{
    CoreModel core(defaultCore());
    // 100 dependent loads, each with 10-cycle latency.
    for (int i = 0; i < 100; ++i) {
        const Cycle dispatch = core.dispatchNext();
        const Cycle issue = core.loadIssueAt(dispatch, true);
        core.completeLoad(issue + 10);
    }
    // Serialised: ~10 cycles per load.
    EXPECT_GE(core.elapsed(), 990u);
}

TEST(CoreModel, IndependentLoadsOverlap)
{
    CoreModel core(defaultCore());
    for (int i = 0; i < 100; ++i) {
        const Cycle dispatch = core.dispatchNext();
        const Cycle issue = core.loadIssueAt(dispatch, false);
        core.completeLoad(issue + 10);
    }
    // Overlapped: latency hidden behind the fetch stream.
    EXPECT_LT(core.elapsed(), 200u);
}

TEST(CoreModel, RobFullGatesDispatch)
{
    CoreConfig config = defaultCore();
    config.rob_entries = 8;
    CoreModel core(config);
    // One very long load, then compute: the compute stream stalls when
    // the tiny ROB fills behind the load.
    const Cycle dispatch = core.dispatchNext();
    core.completeLoad(core.loadIssueAt(dispatch, false) + 1000);
    core.computeBurst(100);
    EXPECT_GE(core.elapsed(), 1000u);
}

TEST(CoreModel, LargeRobHidesLongLatency)
{
    CoreModel core(defaultCore()); // 192-entry ROB
    const Cycle dispatch = core.dispatchNext();
    core.completeLoad(core.loadIssueAt(dispatch, false) + 100);
    core.computeBurst(150); // fits in the ROB alongside the load
    // Compute retires behind the load but dispatch never stalls:
    // elapsed is the load latency, not load + compute.
    EXPECT_LE(core.elapsed(), 140u);
}

TEST(CoreModel, RetirementIsInOrder)
{
    CoreModel core(defaultCore());
    const Cycle d1 = core.dispatchNext();
    core.completeLoad(core.loadIssueAt(d1, false) + 500);
    const Cycle d2 = core.dispatchNext();
    core.complete(d2 + 1);
    // The younger 1-cycle instruction cannot retire before the load:
    // elapsed reflects the load.
    EXPECT_GE(core.elapsed(), 500u);
}

TEST(CoreModel, LoadQueueBoundsOutstandingLoads)
{
    CoreConfig config = defaultCore();
    config.lq_entries = 2;
    config.rob_entries = 1000;
    CoreModel core(config);
    Cycle last_issue = 0;
    for (int i = 0; i < 10; ++i) {
        const Cycle dispatch = core.dispatchNext();
        const Cycle issue = core.loadIssueAt(dispatch, false);
        core.completeLoad(issue + 100);
        last_issue = issue;
    }
    // Only 2 loads in flight: the 10th issues around (10-2)/2*100.
    EXPECT_GE(last_issue, 300u);
}

TEST(CoreModel, InstructionsCounted)
{
    CoreModel core(defaultCore());
    core.computeBurst(10);
    core.dispatchNext();
    core.complete(5);
    EXPECT_EQ(core.instructions(), 11u);
}

TEST(CoreModel, IpcZeroBeforeAnyWork)
{
    CoreModel core(defaultCore());
    EXPECT_DOUBLE_EQ(core.ipc(), 0.0);
}

} // namespace
} // namespace csp::cpu
