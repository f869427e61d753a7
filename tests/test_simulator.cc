/** @file End-to-end simulator tests: timing sanity, accounting
 *  invariants, and prefetcher benefit on the flagship workloads. */

#include <gtest/gtest.h>

#include <numeric>

#include "core/profiling.h"
#include "sim/experiment.h"
#include "sim/simulator.h"
#include "workloads/registry.h"

namespace csp::sim {
namespace {

trace::TraceBuffer
makeTrace(const std::string &name, std::uint64_t scale = 60000)
{
    workloads::WorkloadParams params;
    params.scale = scale;
    params.seed = 2;
    return workloads::Registry::builtin().create(name)->generate(
        params);
}

RunStats
runWith(const trace::TraceBuffer &trace, const std::string &pf_name)
{
    SystemConfig config;
    auto prefetcher = makePrefetcher(pf_name, config);
    Simulator simulator(config);
    return simulator.run(trace, *prefetcher);
}

TEST(Simulator, InstructionCountMatchesTrace)
{
    const auto trace = makeTrace("array");
    const RunStats stats = runWith(trace, "none");
    EXPECT_EQ(stats.instructions, trace.instructions());
    EXPECT_EQ(stats.demand_accesses, trace.memAccesses());
}

TEST(Simulator, IpcWithinPhysicalBounds)
{
    for (const std::string name : {"array", "list", "hashtest"}) {
        const RunStats stats = runWith(makeTrace(name), "none");
        EXPECT_GT(stats.ipc(), 0.0) << name;
        EXPECT_LE(stats.ipc(), 4.0) << name;
    }
}

TEST(Simulator, ClassificationPartitionsDemandAccesses)
{
    for (const std::string pf : {"none", "sms", "context"}) {
        const RunStats stats = runWith(makeTrace("list"), pf);
        std::uint64_t sum = 0;
        for (std::size_t c = 0;
             c < static_cast<std::size_t>(AccessClass::Count); ++c) {
            sum += stats.classes[c];
        }
        EXPECT_EQ(sum, stats.demand_accesses) << pf;
    }
}

TEST(Simulator, NoPrefetcherMeansNoPrefetchCategories)
{
    const RunStats stats = runWith(makeTrace("list"), "none");
    EXPECT_EQ(stats.classCount(AccessClass::HitPrefetchedLine), 0u);
    EXPECT_EQ(stats.classCount(AccessClass::ShorterWait), 0u);
    EXPECT_EQ(stats.prefetch_never_hit, 0u);
}

TEST(Simulator, MpkiConsistentWithCounters)
{
    const RunStats stats = runWith(makeTrace("list"), "none");
    EXPECT_NEAR(stats.l1Mpki(),
                1000.0 * static_cast<double>(stats.l1_misses) /
                    static_cast<double>(stats.instructions),
                1e-9);
    EXPECT_LE(stats.l2_demand_misses, stats.l1_misses);
}

TEST(Simulator, DeterministicRuns)
{
    const auto trace = makeTrace("listsort");
    const RunStats a = runWith(trace, "context");
    const RunStats b = runWith(trace, "context");
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.l1_misses, b.l1_misses);
    EXPECT_EQ(a.hierarchy.prefetches_issued,
              b.hierarchy.prefetches_issued);
}

TEST(Simulator, ContextPrefetcherSpeedsUpLinkedTraversal)
{
    // The paper's headline behaviour: big gains on semantically
    // regular, spatially scattered pointer chasing.
    const auto trace = makeTrace("list", 150000);
    const RunStats base = runWith(trace, "none");
    const RunStats ctx = runWith(trace, "context");
    EXPECT_GT(ctx.ipc(), base.ipc() * 1.3);
    EXPECT_LT(ctx.l1Mpki(), base.l1Mpki());
    EXPECT_GT(ctx.classCount(AccessClass::HitPrefetchedLine), 0u);
}

TEST(Simulator, ContextPrefetcherBeatsSpatioTemporalOnLinkedList)
{
    const auto trace = makeTrace("list", 150000);
    const double ctx = runWith(trace, "context").ipc();
    const double sms = runWith(trace, "sms").ipc();
    const double ghb = runWith(trace, "ghb-gdc").ipc();
    EXPECT_GT(ctx, sms);
    EXPECT_GT(ctx, ghb);
}

TEST(Simulator, StridePrefetcherCoversStreamingWorkload)
{
    const auto trace = makeTrace("libquantum", 80000);
    const RunStats base = runWith(trace, "none");
    const RunStats stride = runWith(trace, "stride");
    EXPECT_GT(stride.ipc(), base.ipc() * 1.5);
}

TEST(Simulator, PrefetchersNeverBreakCorrectnessCounters)
{
    for (const std::string &pf : paperPrefetchers()) {
        const RunStats stats = runWith(makeTrace("bst"), pf);
        // Demand-side counters must not depend on the prefetcher.
        EXPECT_EQ(stats.demand_accesses,
                  runWith(makeTrace("bst"), "none").demand_accesses)
            << pf;
    }
}

TEST(Simulator, HitDepthHistogramPopulatedForContext)
{
    SystemConfig config;
    auto prefetcher = makePrefetcher("context", config);
    Simulator simulator(config);
    const auto trace = makeTrace("list", 100000);
    simulator.run(trace, *prefetcher);
    // The report carries every bucket of the width-1 depth histogram.
    const stats::ReportEntry *depths =
        simulator.lastReport().find("context.pq.hit_depth");
    ASSERT_NE(depths, nullptr);
    EXPECT_GT(depths->dist.count, 0u);
    ASSERT_EQ(depths->dist.buckets.size(),
              config.context.prefetch_queue_entries);
    EXPECT_LE(std::accumulate(depths->dist.buckets.begin(),
                              depths->dist.buckets.end(), std::uint64_t{0}),
              depths->dist.count);
}

/** The layer ledger is always on: over bst/context every layer, the
 *  context prefetcher's train/predict split and the observation ticks
 *  included, is timed, and the report carries the replay total and the
 *  share the layers leave unattributed. */
TEST(Simulator, LedgerAttributesEveryLayer)
{
    SystemConfig config;
    auto prefetcher = makePrefetcher("context", config);
    Simulator simulator(config);
    simulator.setSampling(10000); // ticks, so sim.tick is timed too
    simulator.run(makeTrace("bst"), *prefetcher);
    const stats::Report &report = simulator.lastReport();
    for (std::size_t l = 0;
         l < static_cast<std::size_t>(prof::Layer::Count); ++l) {
        const std::string base =
            std::string("prof.") +
            prof::layerName(static_cast<prof::Layer>(l));
        ASSERT_TRUE(report.contains(base + ".calls")) << base;
        EXPECT_GT(report.value(base + ".calls"), 0.0) << base;
        EXPECT_GT(report.value(base + ".ns"), 0.0) << base;
        EXPECT_GT(report.value(base + ".ns_per_access"), 0.0) << base;
    }
    // The context prefetcher's sub-layers: feedback, index and collect
    // close once per timed observe, select and enqueue twice (before
    // and after the exploration draw); train and predict are their
    // sums.
    const auto calls = [&](const char *layer) {
        return report.value(std::string("prof.prefetch.") + layer +
                            ".calls");
    };
    const auto ns = [&](const char *layer) {
        return report.value(std::string("prof.prefetch.") + layer + ".ns");
    };
    const double observes = calls("observe");
    for (const char *layer : {"feedback", "index", "collect"})
        EXPECT_EQ(calls(layer), observes) << layer;
    for (const char *layer : {"select", "enqueue"})
        EXPECT_EQ(calls(layer), 2 * observes) << layer;
    EXPECT_EQ(calls("train"), 3 * observes);
    EXPECT_EQ(calls("predict"), 4 * observes);
    // Each layer's ns is rounded on its own.
    EXPECT_NEAR(ns("train"), ns("feedback") + ns("index") + ns("collect"),
                2.0);
    EXPECT_NEAR(ns("predict"), ns("select") + ns("enqueue"), 2.0);
    EXPECT_GT(report.value("prof.timed_accesses"), 0.0);
    EXPECT_GT(report.value("prof.replay.ns"), 0.0);
    EXPECT_GT(report.value("prof.replay.ns_per_access"), 0.0);
    EXPECT_TRUE(report.contains("prof.unattributed_frac"));
    // Wall-clock never enters the interval series.
    for (const std::string &column : simulator.lastSeries().columns)
        EXPECT_NE(column.rfind("prof.", 0), 0u) << column;
}

TEST(Simulator, AccessClassNamesAreDistinct)
{
    std::set<std::string> names;
    for (std::size_t c = 0;
         c < static_cast<std::size_t>(AccessClass::Count); ++c) {
        names.insert(accessClassName(static_cast<AccessClass>(c)));
    }
    EXPECT_EQ(names.size(),
              static_cast<std::size_t>(AccessClass::Count));
}

} // namespace
} // namespace csp::sim
