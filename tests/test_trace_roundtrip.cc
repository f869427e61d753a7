/** @file Golden tests for the packed trace representation.
 *
 *  A reference array-of-structs trace model (the representation the
 *  packed encoding replaced, fold semantics and all) is rebuilt here
 *  and fed every record exactly as the workload pushed it, via the
 *  TraceBuffer push tap. The packed buffer must decode to the exact
 *  same record sequence for every registered workload, and replaying
 *  the reference records (pushed into a fresh TraceBuffer) must
 *  produce bit-identical RunStats to the packed-trace sweep at jobs=1
 *  and jobs=4. */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/experiment.h"
#include "sim/simulator.h"
#include "sweep_util.h"
#include "trace/trace.h"
#include "workloads/registry.h"

namespace csp {
namespace {

using trace::InstKind;
using trace::TraceBuffer;
using trace::TraceRecord;

/** The retired AoS TraceBuffer semantics, verbatim. */
struct ReferenceAos
{
    std::vector<TraceRecord> records;
    std::uint64_t instructions = 0;
    std::uint64_t mem_accesses = 0;

    void
    push(const TraceRecord &rec)
    {
        if (rec.kind == InstKind::Compute && !records.empty()) {
            TraceRecord &back = records.back();
            if (back.kind == InstKind::Compute && back.pc == rec.pc) {
                back.repeat += rec.repeat;
                instructions += rec.repeat;
                return;
            }
        }
        records.push_back(rec);
        instructions +=
            rec.kind == InstKind::Compute ? rec.repeat : 1;
        if (rec.isMem())
            ++mem_accesses;
    }
};

void
referenceTap(void *user, const TraceRecord &rec)
{
    static_cast<ReferenceAos *>(user)->push(rec);
}

/** Generate @p name with the reference model riding the push tap. */
TraceBuffer
generateTapped(const std::string &name,
               const workloads::WorkloadParams &params,
               ReferenceAos &ref)
{
    TraceBuffer::setThreadPushTap(&referenceTap, &ref);
    TraceBuffer buffer =
        workloads::Registry::builtin().create(name)->generate(params);
    TraceBuffer::setThreadPushTap(nullptr, nullptr);
    return buffer;
}

void
expectSameRecord(const TraceRecord &a, const TraceRecord &b,
                 const std::string &what, std::size_t i)
{
    ASSERT_EQ(a.kind, b.kind) << what << " record " << i;
    ASSERT_EQ(a.pc, b.pc) << what << " record " << i;
    ASSERT_EQ(a.vaddr, b.vaddr) << what << " record " << i;
    ASSERT_EQ(a.repeat, b.repeat) << what << " record " << i;
    ASSERT_EQ(a.size, b.size) << what << " record " << i;
    ASSERT_EQ(a.dep_on_prev_load, b.dep_on_prev_load)
        << what << " record " << i;
    ASSERT_EQ(a.taken, b.taken) << what << " record " << i;
    ASSERT_EQ(a.hint, b.hint) << what << " record " << i;
    ASSERT_EQ(a.reg_value, b.reg_value) << what << " record " << i;
    ASSERT_EQ(a.loaded_value, b.loaded_value)
        << what << " record " << i;
}

class TraceRoundTripTest
    : public ::testing::TestWithParam<std::string>
{};

TEST_P(TraceRoundTripTest, PackedDecodesToReferenceRecords)
{
    workloads::WorkloadParams params;
    params.scale = 20000;
    params.seed = 5;
    ReferenceAos ref;
    const TraceBuffer buffer = generateTapped(GetParam(), params, ref);

    EXPECT_EQ(buffer.size(), ref.records.size());
    EXPECT_EQ(buffer.instructions(), ref.instructions);
    EXPECT_EQ(buffer.memAccesses(), ref.mem_accesses);

    // Streaming cursor against the reference, field by field.
    trace::TraceCursor cursor = buffer.cursor();
    std::size_t i = 0;
    while (const TraceRecord *rec = cursor.next()) {
        ASSERT_LT(i, ref.records.size()) << GetParam();
        expectSameRecord(*rec, ref.records[i], GetParam(), i);
        ++i;
    }
    EXPECT_EQ(i, ref.records.size()) << GetParam();

    // The packed form must beat the 56-byte AoS record by >= 2x.
    EXPECT_LT(buffer.bytesPerRecord(),
              sizeof(TraceRecord) / 2.0)
        << GetParam();
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, TraceRoundTripTest,
    ::testing::ValuesIn(sim::allWorkloads()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        std::string name = info.param;
        for (char &c : name) {
            if (!std::isalnum(static_cast<unsigned char>(c)))
                c = '_';
        }
        return name;
    });

void
expectIdenticalStats(const sim::RunStats &a, const sim::RunStats &b,
                     const std::string &what)
{
    EXPECT_EQ(a.instructions, b.instructions) << what;
    EXPECT_EQ(a.cycles, b.cycles) << what;
    EXPECT_EQ(a.demand_accesses, b.demand_accesses) << what;
    EXPECT_EQ(a.l1_misses, b.l1_misses) << what;
    EXPECT_EQ(a.l2_demand_misses, b.l2_demand_misses) << what;
    EXPECT_EQ(a.prefetch_never_hit, b.prefetch_never_hit) << what;
    for (std::size_t c = 0; c < a.classes.size(); ++c)
        EXPECT_EQ(a.classes[c], b.classes[c])
            << what << " class " << c;
    EXPECT_EQ(a.hierarchy.demand_accesses,
              b.hierarchy.demand_accesses)
        << what;
    EXPECT_EQ(a.hierarchy.l1_misses, b.hierarchy.l1_misses) << what;
    EXPECT_EQ(a.hierarchy.l2_demand_misses,
              b.hierarchy.l2_demand_misses)
        << what;
    EXPECT_EQ(a.hierarchy.prefetches_issued,
              b.hierarchy.prefetches_issued)
        << what;
    EXPECT_EQ(a.hierarchy.prefetches_duplicate,
              b.hierarchy.prefetches_duplicate)
        << what;
    EXPECT_EQ(a.hierarchy.prefetches_dropped,
              b.hierarchy.prefetches_dropped)
        << what;
    EXPECT_EQ(a.hierarchy.l1_writebacks, b.hierarchy.l1_writebacks)
        << what;
    EXPECT_EQ(a.hierarchy.l2_writebacks, b.hierarchy.l2_writebacks)
        << what;
}

/** Replaying the reference AoS records, pushed into a fresh
 *  TraceBuffer, must match the packed-trace sweep bit for bit, serial
 *  and parallel. */
TEST(TraceGoldenStats, ReferenceReplayMatchesSweep)
{
    const std::vector<std::string> workload_names = {"array", "list",
                                                     "bst"};
    const std::vector<std::string> prefetchers = {"none", "stride",
                                                  "context"};
    workloads::WorkloadParams params;
    params.scale = 12000;
    SystemConfig config;

    // Expected grid: replay each workload's REFERENCE records.
    std::vector<sim::RunStats> expected;
    for (const std::string &wname : workload_names) {
        ReferenceAos ref;
        (void)generateTapped(wname, params, ref);
        TraceBuffer repacked;
        for (const TraceRecord &rec : ref.records)
            repacked.push(rec);
        for (const std::string &pname : prefetchers) {
            auto prefetcher = sim::makePrefetcher(pname, config);
            sim::Simulator simulator(config);
            expected.push_back(simulator.run(repacked, *prefetcher));
        }
    }

    for (unsigned jobs : {1u, 4u}) {
        sim::SweepOptions options;
        options.verbose = false;
        options.jobs = jobs;
        const sim::SweepResult sweep = sim::runSweep(
            sim::crossGrid(workload_names, prefetchers, params, config),
            options);
        ASSERT_EQ(sweep.cells.size(), expected.size());
        for (std::size_t i = 0; i < sweep.cells.size(); ++i) {
            expectIdenticalStats(
                sweep.cells[i].stats, expected[i],
                sweep.cells[i].workload + "/" +
                    sweep.cells[i].prefetcher + " jobs=" +
                    std::to_string(jobs));
        }
    }
}

} // namespace
} // namespace csp
