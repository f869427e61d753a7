/** @file Trace-level tests for every registered workload (paper
 *  Table 3): generation succeeds, respects the access budget, is
 *  deterministic, and carries the expected annotations. */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "sim/experiment.h"
#include "trace_util.h"
#include "workloads/registry.h"
#include "workloads/ubench/listsort.h"

namespace csp::workloads {
namespace {

WorkloadParams
smallParams()
{
    WorkloadParams params;
    params.scale = 20000;
    params.seed = 3;
    return params;
}

class WorkloadTraceTest
    : public ::testing::TestWithParam<std::string>
{};

TEST_P(WorkloadTraceTest, GeneratesNearTheAccessBudget)
{
    const auto workload = Registry::builtin().create(GetParam());
    const trace::TraceBuffer buffer =
        workload->generate(smallParams());
    EXPECT_GE(buffer.memAccesses(), smallParams().scale / 3);
    // Budget overshoot is bounded (one inner iteration at most).
    EXPECT_LE(buffer.memAccesses(), smallParams().scale * 3);
    EXPECT_GE(buffer.instructions(), buffer.memAccesses());
}

TEST_P(WorkloadTraceTest, DeterministicPerSeed)
{
    const auto workload = Registry::builtin().create(GetParam());
    const trace::TraceBuffer a = workload->generate(smallParams());
    const trace::TraceBuffer b = workload->generate(smallParams());
    ASSERT_EQ(a.size(), b.size());
    const auto a_recs = decodeAll(a);
    const auto b_recs = decodeAll(b);
    for (std::size_t i = 0; i < a_recs.size(); i += 97) {
        EXPECT_EQ(a_recs[i].vaddr, b_recs[i].vaddr) << "record " << i;
        EXPECT_EQ(a_recs[i].pc, b_recs[i].pc) << "record " << i;
    }
}

TEST_P(WorkloadTraceTest, SeedChangesTheTrace)
{
    const auto workload = Registry::builtin().create(GetParam());
    WorkloadParams other = smallParams();
    other.seed = 4;
    const trace::TraceBuffer a = workload->generate(smallParams());
    const trace::TraceBuffer b = workload->generate(other);
    bool differs = a.size() != b.size();
    trace::TraceCursor ca = a.cursor();
    trace::TraceCursor cb = b.cursor();
    while (!differs) {
        const trace::TraceRecord *ra = ca.next();
        const trace::TraceRecord *rb = cb.next();
        if (ra == nullptr || rb == nullptr)
            break;
        differs = ra->vaddr != rb->vaddr ||
                  ra->loaded_value != rb->loaded_value;
    }
    EXPECT_TRUE(differs);
}

TEST_P(WorkloadTraceTest, UsesMultipleCodeSites)
{
    const auto workload = Registry::builtin().create(GetParam());
    const trace::TraceBuffer buffer =
        workload->generate(smallParams());
    std::set<Addr> pcs;
    trace::TraceCursor cursor = buffer.cursor();
    while (const trace::TraceRecord *rec = cursor.next())
        pcs.insert(rec->pc);
    EXPECT_GE(pcs.size(), 2u);
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, WorkloadTraceTest,
    ::testing::ValuesIn(sim::allWorkloads()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        std::string name = info.param;
        for (char &c : name) {
            if (!std::isalnum(static_cast<unsigned char>(c)))
                c = '_';
        }
        return name;
    });

TEST(Registry, ContainsPaperTable3Suites)
{
    const Registry &registry = Registry::builtin();
    EXPECT_EQ(registry.namesInSuite("spec2006").size(), 16u);
    EXPECT_GE(registry.namesInSuite("ubench").size(), 8u);
    EXPECT_GE(registry.namesInSuite("pbbs").size(), 4u);
    EXPECT_EQ(registry.namesInSuite("graph500").size(), 2u);
    EXPECT_EQ(registry.namesInSuite("hpcs").size(), 2u);
}

TEST(Registry, UnknownNameReported)
{
    EXPECT_FALSE(Registry::builtin().contains("no-such-workload"));
    EXPECT_TRUE(Registry::builtin().contains("listsort"));
}

TEST(Registry, NamesSortedAndUnique)
{
    // Each suite lists its names sorted, no name sits in two suites,
    // and sim::allWorkloads(), which the parameterised tests run over,
    // names every registered workload once.
    std::set<std::string> registered;
    std::size_t listed = 0;
    for (const std::string suite :
         {"spec2006", "pbbs", "graph500", "hpcs", "ubench"}) {
        const auto names = Registry::builtin().namesInSuite(suite);
        EXPECT_TRUE(std::is_sorted(names.begin(), names.end())) << suite;
        registered.insert(names.begin(), names.end());
        listed += names.size();
    }
    EXPECT_EQ(registered.size(), listed);
    const auto all = sim::allWorkloads();
    EXPECT_EQ(std::set<std::string>(all.begin(), all.end()), registered);
    EXPECT_EQ(all.size(), registered.size());
}

TEST(WorkloadHints, PointerWorkloadsCarryArrowHints)
{
    // Paper section 6: the compiler hints accesses through
    // program-level pointers.
    for (const std::string name :
         {"list", "listsort", "bst", "maptest", "graph500-list"}) {
        const auto workload = Registry::builtin().create(name);
        const trace::TraceBuffer buffer =
            workload->generate(smallParams());
        std::uint64_t hinted = 0;
        trace::TraceCursor cursor = buffer.cursor();
        while (const trace::TraceRecord *rec = cursor.next()) {
            if (rec->isMem() &&
                rec->hint.ref_form == hints::RefForm::Arrow)
                ++hinted;
        }
        EXPECT_GT(hinted, buffer.memAccesses() / 10) << name;
    }
}

TEST(WorkloadHints, PointerChasesCarryDependenceFlags)
{
    for (const std::string name : {"list", "mcf", "maptest"}) {
        const auto workload = Registry::builtin().create(name);
        const trace::TraceBuffer buffer =
            workload->generate(smallParams());
        std::uint64_t dependent = 0;
        trace::TraceCursor cursor = buffer.cursor();
        while (const trace::TraceRecord *rec = cursor.next()) {
            if (rec->isMem() && rec->dep_on_prev_load)
                ++dependent;
        }
        EXPECT_GT(dependent, 0u) << name;
    }
}

TEST(WorkloadHints, ArrayWorkloadUsesIndexForm)
{
    const auto workload = Registry::builtin().create("array");
    const trace::TraceBuffer buffer = workload->generate(smallParams());
    std::uint64_t indexed = 0;
    trace::TraceCursor cursor = buffer.cursor();
    while (const trace::TraceRecord *rec = cursor.next()) {
        if (rec->isMem() && rec->hint.ref_form == hints::RefForm::Index)
            ++indexed;
    }
    EXPECT_GT(indexed, buffer.memAccesses() / 2);
}

TEST(ListSort, Fig1PatternSemanticallyLinear)
{
    // Paper Figure 1: logical indices advance 0,1,2,... within each
    // insertion walk even though addresses scatter.
    const auto samples =
        ubench::ListSort::accessPattern(100, 1);
    ASSERT_FALSE(samples.empty());
    std::uint64_t prev_logical = 0;
    bool monotone_within_walks = true;
    for (const auto &s : samples) {
        if (s.logical_index != 0 &&
            s.logical_index != prev_logical + 1)
            monotone_within_walks = false;
        prev_logical = s.logical_index;
    }
    EXPECT_TRUE(monotone_within_walks);
    // Addresses are not monotone (scattered placement).
    bool addr_monotone = true;
    for (std::size_t i = 1; i < samples.size(); ++i) {
        if (samples[i].addr < samples[i - 1].addr)
            addr_monotone = false;
    }
    EXPECT_FALSE(addr_monotone);
}

} // namespace
} // namespace csp::workloads
