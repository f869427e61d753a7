/** @file Observability-layer contract tests: the per-prefetch lifecycle
 *  classifier reaches every terminal state with the expected counts,
 *  autopsy tables render those counts, the Perfetto trace-event stream
 *  is well-formed, attaching an observer never changes simulation
 *  results (bit-identical sweeps), and the Log2Histogram stat kind
 *  buckets and summarises correctly. */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "core/stats.h"
#include "mem/hierarchy.h"
#include "obs/lifecycle.h"
#include "obs/run_observer.h"
#include "obs/trace_events.h"
#include "sim/experiment.h"
#include "sweep_util.h"

namespace csp {
namespace {

using mem::Hierarchy;
using mem::PrefetchOutcome;
using obs::PrefetchClass;
using obs::PrefetchTracker;

/** Default hierarchy: L1D 64KB/8-way/64B (128 sets, 8KB set stride),
 *  4 MSHRs; L2 2MB/16-way, 20 MSHRs; DRAM 300 cycles. */
MemoryConfig
defaultMemory()
{
    return MemoryConfig{};
}

TEST(LifecycleClassifier, FiveTerminalStatesWithExactCounts)
{
    Hierarchy hierarchy(defaultMemory());
    PrefetchTracker tracker;
    obs::RunObserver observer;
    observer.tracker = &tracker;
    hierarchy.attach(&observer);

    // Timely: prefetch into L1, demand arrives after the fill.
    const Addr timely = 0x40; // set 1
    ASSERT_EQ(hierarchy.prefetch(timely, 0, 0, 0xA0),
              PrefetchOutcome::Issued);
    const auto timely_hit = hierarchy.access(timely, 2000, false, 0xB0);
    EXPECT_TRUE(timely_hit.hit_prefetched_line);
    EXPECT_EQ(tracker.classCount(PrefetchClass::Timely), 1u);

    // Late: demand arrives while the prefetch fill is in flight.
    const Addr late = 0x80; // set 2
    ASSERT_EQ(hierarchy.prefetch(late, 2100, 0, 0xA1),
              PrefetchOutcome::Issued);
    const auto late_hit = hierarchy.access(late, 2110, false, 0xB1);
    EXPECT_TRUE(late_hit.shorter_wait);
    EXPECT_EQ(tracker.classCount(PrefetchClass::Late), 1u);

    // Redundant: prefetch a line a demand already brought in.
    const Addr redundant = 0xC0; // set 3
    hierarchy.access(redundant, 3000, false, 0xB2);
    ASSERT_EQ(hierarchy.prefetch(redundant, 4000, 0, 0xA2),
              PrefetchOutcome::AlreadyHere);
    EXPECT_EQ(tracker.classCount(PrefetchClass::Redundant), 1u);

    // Early: prefetch lands at the LRU position (LIP fill) of L1 set 0,
    // then eight demand misses to the same set displace it unused.
    const Addr early = 0x10000; // set 0
    ASSERT_EQ(hierarchy.prefetch(early, 5000, 0, 0xA3),
              PrefetchOutcome::Issued);
    for (unsigned k = 0; k < 8; ++k) {
        hierarchy.access(0x20000 + static_cast<Addr>(k) * 0x2000,
                         6000 + k * 10, false, 0xB3);
    }
    EXPECT_EQ(tracker.classCount(PrefetchClass::Early), 1u);

    // Useless: prefetched, never referenced, still live at end of run.
    const Addr useless = 0x100; // set 4
    ASSERT_EQ(hierarchy.prefetch(useless, 7000, 0, 0xA4),
              PrefetchOutcome::Issued);
    EXPECT_EQ(tracker.classCount(PrefetchClass::Useless), 0u);
    tracker.finish(8000);
    EXPECT_EQ(tracker.classCount(PrefetchClass::Useless), 1u);

    EXPECT_EQ(tracker.attempts(), 5u);
    EXPECT_EQ(tracker.issued(), 4u);
    EXPECT_EQ(tracker.covered(), 2u); // timely + late
    EXPECT_EQ(tracker.classCount(PrefetchClass::Dropped), 0u);
    // Demand L1 misses: the late merge, the redundant line's fill, and
    // the eight conflict misses.
    EXPECT_EQ(tracker.demandMisses(), 10u);
    EXPECT_DOUBLE_EQ(tracker.accuracy(), 2.0 / 4.0);
    EXPECT_DOUBLE_EQ(tracker.timeliness(), 1.0 / 2.0);
    EXPECT_DOUBLE_EQ(tracker.coverage(), 2.0 / 11.0);
}

TEST(LifecycleClassifier, DroppedUnderMshrPressure)
{
    Hierarchy hierarchy(defaultMemory());
    PrefetchTracker tracker;
    obs::RunObserver observer;
    observer.tracker = &tracker;
    hierarchy.attach(&observer);

    // min_free_mshrs = 4 forbids L1 fills (L1 has exactly 4 MSHRs), so
    // every issue books an L2 MSHR; the backlog eventually exhausts the
    // prefetch headroom and issues start refusing.
    std::uint64_t dropped = 0;
    for (unsigned i = 0; i < 1000; ++i) {
        const Addr addr = 0x100000 + static_cast<Addr>(i) * 64;
        if (hierarchy.prefetch(addr, 0, 4, 0xA5) ==
            PrefetchOutcome::NoMshr) {
            ++dropped;
        }
    }
    EXPECT_GT(dropped, 0u);
    EXPECT_EQ(tracker.classCount(PrefetchClass::Dropped), dropped);
    EXPECT_EQ(tracker.attempts(), 1000u);
    EXPECT_EQ(tracker.issued() + dropped, 1000u);
}

TEST(LifecycleClassifier, AutopsyTablesRenderTheCounts)
{
    Hierarchy hierarchy(defaultMemory());
    PrefetchTracker tracker;
    obs::RunObserver observer;
    observer.tracker = &tracker;
    hierarchy.attach(&observer);

    const Addr line = 0x40;
    ASSERT_EQ(hierarchy.prefetch(line, 0, 0, 0xAA),
              PrefetchOutcome::Issued);
    hierarchy.access(line, 2000, false, 0xBB);
    tracker.finish(3000);

    std::ostringstream csv;
    tracker.writeAutopsyCsv(csv, "stride");
    const std::string csv_text = csv.str();
    EXPECT_NE(csv_text.find("label,kind,pc,attempts,issued,timely"),
              std::string::npos);
    EXPECT_NE(csv_text.find("stride,total,-,1,1,1"), std::string::npos);
    EXPECT_NE(csv_text.find("stride,issuer_pc,0xaa"), std::string::npos);
    EXPECT_NE(csv_text.find("stride,demand_pc,0xbb"), std::string::npos);

    std::ostringstream json;
    tracker.writeAutopsyJson(json, "stride");
    const std::string json_text = json.str();
    EXPECT_NE(json_text.find("\"prefetcher\":\"stride\""),
              std::string::npos);
    EXPECT_NE(json_text.find("\"timely\":1"), std::string::npos);
    EXPECT_NE(json_text.find("\"by_issuer_pc\""), std::string::npos);
    EXPECT_NE(json_text.find("\"by_demand_pc\""), std::string::npos);
}

TEST(TraceEvents, StreamIsWellFormed)
{
    std::ostringstream out;
    {
        obs::TraceEventWriter events(out);
        PrefetchTracker tracker(&events, /*sample_every=*/1);
        Hierarchy hierarchy(defaultMemory());
        obs::RunObserver observer;
        observer.tracker = &tracker;
        hierarchy.attach(&observer);
        ASSERT_EQ(hierarchy.prefetch(0x40, 0, 0, 0xA0),
                  PrefetchOutcome::Issued);
        hierarchy.access(0x40, 2000, false, 0xB0);
        hierarchy.access(0x20000, 2100, false, 0xB1); // plain miss
        obs::Tick tick;
        tick.instructions = 2;
        tick.cycle = 2100;
        tick.queue = hierarchy.queueSample(tick.cycle);
        tracker.onTick(tick);
        tracker.finish(3000);
        events.close();
    }
    const std::string text = out.str();
    EXPECT_EQ(text.find("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["),
              0u);
    EXPECT_NE(text.find("\"ph\":\"M\""), std::string::npos);
    EXPECT_NE(text.find("\"ph\":\"b\""), std::string::npos);
    EXPECT_NE(text.find("\"ph\":\"e\""), std::string::npos);
    EXPECT_NE(text.find("\"ph\":\"i\""), std::string::npos);
    EXPECT_NE(text.find("{\"name\":\"mshr\",\"cat\":\"counter\""),
              std::string::npos);
    EXPECT_NE(text.find("\"cat\":\"prefetch\""), std::string::npos);
    EXPECT_EQ(text.rfind("\n]}\n"), text.size() - 4);
    // No trailing comma before the closing bracket.
    EXPECT_EQ(text.find(",\n]"), std::string::npos);
}

TEST(ObservedSweep, BitIdenticalWithAndWithoutObserver)
{
    const auto sweep = [](unsigned observe, unsigned jobs) {
        SystemConfig config;
        workloads::WorkloadParams params;
        params.scale = 8000;
        sim::SweepOptions options;
        options.verbose = false;
        options.jobs = jobs;
        options.observe = observe;
        return sim::runSweep(sim::crossGrid({"list", "bst"},
                                            {"none", "stride", "context"},
                                            params, config),
                             options);
    };
    using sim::kObserveLearn;
    using sim::kObserveMem;
    using sim::kObserveTracker;
    const sim::SweepResult plain = sweep(0, 1);
    const sim::SweepResult observed1 = sweep(kObserveTracker, 1);
    const sim::SweepResult observed4 = sweep(kObserveTracker, 4);
    // The learning observer streams every bandit/CST event; it too
    // must never perturb a single simulated count.
    const sim::SweepResult learning1 =
        sweep(kObserveTracker | kObserveLearn, 1);
    const sim::SweepResult learning4 =
        sweep(kObserveTracker | kObserveLearn, 4);
    // And the memory observatory's shadow models classify every demand
    // access — strictly side-band, at any job count.
    const sim::SweepResult mem1 = sweep(kObserveTracker | kObserveMem, 1);
    const sim::SweepResult mem4 = sweep(kObserveTracker | kObserveMem, 4);
    ASSERT_EQ(plain.cells.size(), observed1.cells.size());
    ASSERT_EQ(plain.cells.size(), observed4.cells.size());
    ASSERT_EQ(plain.cells.size(), learning1.cells.size());
    ASSERT_EQ(plain.cells.size(), learning4.cells.size());
    ASSERT_EQ(plain.cells.size(), mem1.cells.size());
    ASSERT_EQ(plain.cells.size(), mem4.cells.size());
    for (std::size_t i = 0; i < plain.cells.size(); ++i) {
        const sim::RunStats &a = plain.cells[i].stats;
        for (const sim::RunStats *b : {&observed1.cells[i].stats,
                                       &observed4.cells[i].stats,
                                       &learning1.cells[i].stats,
                                       &learning4.cells[i].stats,
                                       &mem1.cells[i].stats,
                                       &mem4.cells[i].stats}) {
            EXPECT_EQ(a.instructions, b->instructions) << "cell " << i;
            EXPECT_EQ(a.cycles, b->cycles) << "cell " << i;
            EXPECT_EQ(a.demand_accesses, b->demand_accesses);
            EXPECT_EQ(a.l1_misses, b->l1_misses);
            EXPECT_EQ(a.l2_demand_misses, b->l2_demand_misses);
            EXPECT_EQ(a.prefetch_never_hit, b->prefetch_never_hit);
            for (std::size_t c = 0; c < a.classes.size(); ++c)
                EXPECT_EQ(a.classes[c], b->classes[c]) << "class " << c;
            EXPECT_EQ(a.hierarchy.prefetches_issued,
                      b->hierarchy.prefetches_issued);
            EXPECT_EQ(a.hierarchy.prefetches_dropped,
                      b->hierarchy.prefetches_dropped);
            EXPECT_EQ(a.hierarchy.prefetch_evicted_unused,
                      b->hierarchy.prefetch_evicted_unused);
            EXPECT_EQ(a.hierarchy.l1_writebacks,
                      b->hierarchy.l1_writebacks);
            EXPECT_EQ(a.hierarchy.l2_writebacks,
                      b->hierarchy.l2_writebacks);
        }
    }
}

TEST(AutopsyTables, ByteIdenticalAcrossIdenticalRuns)
{
    // The autopsy writers iterate sorted containers only — two runs
    // of the same experiment must render byte-identical tables (the
    // golden contract cspdiff and the CI observatory rely on).
    const auto run = [] {
        SystemConfig config;
        workloads::WorkloadParams params;
        params.scale = 8000;
        const auto workload =
            workloads::Registry::builtin().create("bst");
        const trace::TraceBuffer trace = workload->generate(params);
        auto prefetcher = sim::makePrefetcher("context", config);
        sim::Simulator simulator(config);
        PrefetchTracker tracker(nullptr, 1);
        obs::RunObserver observer;
        observer.tracker = &tracker;
        simulator.setObserver(&observer);
        simulator.run(trace, *prefetcher);
        std::ostringstream csv;
        std::ostringstream json;
        tracker.writeAutopsyCsv(csv, "context");
        tracker.writeAutopsyJson(json, "context");
        return std::make_pair(csv.str(), json.str());
    };
    const auto a = run();
    const auto b = run();
    EXPECT_FALSE(a.first.empty());
    EXPECT_EQ(a.first, b.first);
    EXPECT_EQ(a.second, b.second);
}

TEST(Log2Histogram, BucketsAndPercentiles)
{
    Log2Histogram hist;
    hist.sample(0);   // bucket 0
    hist.sample(1);   // bucket 1: [1,2)
    hist.sample(2);   // bucket 2: [2,4)
    hist.sample(3);   // bucket 2
    hist.sample(300); // bucket 9: [256,512)
    EXPECT_EQ(hist.count(), 5u);
    EXPECT_EQ(hist.bucketLo(2), 2u);
    EXPECT_EQ(hist.bucketHi(2), 3u); // inclusive: [2, 3]
    EXPECT_DOUBLE_EQ(hist.mean(), (0.0 + 1 + 2 + 3 + 300) / 5.0);
    // Percentiles resolve to the inclusive upper edge of the bucket
    // holding the rank-th sample: rank(p50) = 2 -> value 1's bucket.
    EXPECT_EQ(hist.percentile(0.5), 1u);
    EXPECT_EQ(hist.percentile(0.99), 3u);
    EXPECT_EQ(hist.percentile(1.0), 511u); // 300 lands in [256, 511]
}

} // namespace
} // namespace csp
