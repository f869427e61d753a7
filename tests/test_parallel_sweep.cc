/** @file Determinism contract of the parallel sweep engine: runSweep
 *  at jobs=N is bit-identical to jobs=1 for every cell, cells stay
 *  row-major, a general grid matches direct simulation with each trace
 *  generated and each distinct cell simulated once, observed cells
 *  return what a direct run's observers record, and the core
 *  ThreadPool behaves, and concurrent contentDigest() calls agree.
 *  Built under
 *  -fsanitize=thread by the CI TSan job as the data-race smoke test
 *  for the whole engine. */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "core/thread_pool.h"
#include "diff/csp_diff.h"
#include "obs/learning.h"
#include "obs/lifecycle.h"
#include "obs/mem_recorder.h"
#include "obs/run_observer.h"
#include "obs/trace_events.h"
#include "report_util.h"
#include "sim/experiment.h"
#include "sim/simulator.h"
#include "sweep_util.h"
#include "trace/trace.h"
#include "workloads/registry.h"

namespace csp::sim {
namespace {

const std::vector<std::string> kWorkloads = {"array", "list", "bst"};
const std::vector<std::string> kPrefetchers = {"none", "stride",
                                               "context"};

SweepResult
smallSweep(unsigned jobs, std::uint64_t scale = 12000)
{
    SystemConfig config;
    workloads::WorkloadParams params;
    params.scale = scale;
    SweepOptions options;
    options.verbose = false;
    options.jobs = jobs;
    return runSweep(crossGrid(kWorkloads, kPrefetchers, params, config),
                    options);
}

SweepResult
instrumentedSweep(unsigned jobs, unsigned observe)
{
    SystemConfig config;
    workloads::WorkloadParams params;
    params.scale = 12000;
    SweepOptions options;
    options.verbose = false;
    options.jobs = jobs;
    options.observe = observe;
    return runSweep(crossGrid(kWorkloads, kPrefetchers, params, config),
                    options);
}

void
expectIdenticalStats(const RunStats &a, const RunStats &b)
{
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.demand_accesses, b.demand_accesses);
    EXPECT_EQ(a.l1_misses, b.l1_misses);
    EXPECT_EQ(a.l2_demand_misses, b.l2_demand_misses);
    EXPECT_EQ(a.prefetch_never_hit, b.prefetch_never_hit);
    for (std::size_t c = 0; c < a.classes.size(); ++c)
        EXPECT_EQ(a.classes[c], b.classes[c]) << "class " << c;
    EXPECT_EQ(a.hierarchy.demand_accesses, b.hierarchy.demand_accesses);
    EXPECT_EQ(a.hierarchy.l1_misses, b.hierarchy.l1_misses);
    EXPECT_EQ(a.hierarchy.l2_demand_misses,
              b.hierarchy.l2_demand_misses);
    EXPECT_EQ(a.hierarchy.prefetches_issued,
              b.hierarchy.prefetches_issued);
    EXPECT_EQ(a.hierarchy.prefetches_duplicate,
              b.hierarchy.prefetches_duplicate);
    EXPECT_EQ(a.hierarchy.prefetches_dropped,
              b.hierarchy.prefetches_dropped);
    EXPECT_EQ(a.hierarchy.prefetch_evicted_unused,
              b.hierarchy.prefetch_evicted_unused);
    EXPECT_EQ(a.hierarchy.prefetch_unused_at_end,
              b.hierarchy.prefetch_unused_at_end);
    EXPECT_EQ(a.hierarchy.l1_writebacks, b.hierarchy.l1_writebacks);
    EXPECT_EQ(a.hierarchy.l2_writebacks, b.hierarchy.l2_writebacks);
}

void
expectIdenticalSweeps(const SweepResult &a, const SweepResult &b)
{
    ASSERT_EQ(a.cells.size(), b.cells.size());
    for (std::size_t i = 0; i < a.cells.size(); ++i) {
        EXPECT_EQ(a.cells[i].workload, b.cells[i].workload);
        EXPECT_EQ(a.cells[i].prefetcher, b.cells[i].prefetcher);
        expectIdenticalStats(a.cells[i].stats, b.cells[i].stats);
    }
}

TEST(ParallelSweep, BitIdenticalAcrossJobCounts)
{
    const SweepResult serial = smallSweep(1);
    const SweepResult two = smallSweep(2);
    const SweepResult eight = smallSweep(8);
    expectIdenticalSweeps(serial, two);
    expectIdenticalSweeps(serial, eight);
}

/** The instrumented observe() (learning observer) must not perturb
 *  simulation results: at jobs 1 and 4 it is bit-identical to the
 *  plain serial sweep. This is the contract that lets the hot path
 *  template observe() on instrumentation without a correctness risk.
 *  (Every sweep keeps the layer ledger, so the plain one is timed
 *  too.) */
TEST(ParallelSweep, InstrumentationBitIdenticalAcrossJobCounts)
{
    const SweepResult plain = smallSweep(1);
    expectIdenticalSweeps(plain, instrumentedSweep(1, kObserveLearn));
    expectIdenticalSweeps(plain, instrumentedSweep(4, kObserveLearn));
}

/** The ledger's timed runs start at a function of the access sequence
 *  alone: every prof.*.calls count of one cell is the same across two
 *  runs at jobs 1 and 4. */
TEST(ParallelSweep, LedgerCallsIdenticalAcrossRunsAndJobCounts)
{
    workloads::WorkloadParams params;
    params.scale = 12000;
    const std::vector<SweepCell> grid = {
        {"list", params, SystemConfig(), "context", ""}};
    std::vector<std::vector<std::pair<std::string, double>>> calls;
    for (const unsigned jobs : {1u, 4u, 1u, 4u}) {
        SweepOptions options;
        options.verbose = false;
        options.jobs = jobs;
        options.observe = kObserveStats;
        const SweepResult sweep = runSweep(grid, options);
        ASSERT_EQ(sweep.cells.size(), 1u);
        auto &cell_calls = calls.emplace_back();
        for (const stats::ReportEntry &entry :
             sweep.cells[0].outputs->report.entries) {
            const std::string &name = entry.name;
            if (isProf(name) && name.ends_with(".calls"))
                cell_calls.emplace_back(name, entry.value);
        }
    }
    ASSERT_FALSE(calls[0].empty());
    for (std::size_t i = 1; i < calls.size(); ++i)
        EXPECT_EQ(calls[i], calls[0]) << "run " << i;
}

TEST(ParallelSweep, CellsAssembleRowMajor)
{
    const SweepResult sweep = smallSweep(4);
    ASSERT_EQ(sweep.cells.size(),
              kWorkloads.size() * kPrefetchers.size());
    for (std::size_t i = 0; i < sweep.cells.size(); ++i) {
        EXPECT_EQ(sweep.cells[i].workload,
                  kWorkloads[i / kPrefetchers.size()]);
        EXPECT_EQ(sweep.cells[i].prefetcher,
                  kPrefetchers[i % kPrefetchers.size()]);
        EXPECT_GT(sweep.cells[i].stats.instructions, 0u);
    }
}

TEST(ParallelSweep, AutoJobsMatchesExplicitJobs)
{
    // jobs=0 resolves through CSP_JOBS / hardware_concurrency; the
    // result must not depend on what it resolves to.
    const SweepResult automatic = smallSweep(0);
    const SweepResult serial = smallSweep(1);
    expectIdenticalSweeps(automatic, serial);
}

/** A grid varying every axis — a config variant, an ablation toggle,
 *  the seed, the scale and the placement — plus one duplicated cell.
 *  Every cell must match a direct Simulator::run of it, the duplicate
 *  must share its twin's simulation, and each distinct trace must be
 *  generated exactly once. */
TEST(ParallelSweep, GridMatchesDirectRunsAndDedups)
{
    const SystemConfig base;
    SystemConfig small_cst = base;
    small_cst.context.cst_entries = 512;
    small_cst.context.reducer_entries = 4096;
    SystemConfig greedy = base;
    greedy.context.exploration = false;
    SystemConfig seeded = base;
    seeded.seed = 2;

    workloads::WorkloadParams params;
    params.scale = 10000;
    workloads::WorkloadParams reseeded = params;
    reseeded.seed = 2;
    workloads::WorkloadParams longer = params;
    longer.scale = 16000;
    workloads::WorkloadParams sequential = params;
    sequential.placement = runtime::Placement::Sequential;

    const std::vector<SweepCell> grid = {
        {"list", params, base, "none"},
        {"list", params, base, "context"},
        {"list", params, small_cst, "context"},
        {"list", params, greedy, "context"},
        {"list", reseeded, seeded, "context"},
        {"list", longer, base, "stride"},
        {"list", sequential, base, "context"},
        {"bst", params, base, "context"},
        {"list", params, base, "context"}, // duplicate of cell 1
    };
    constexpr std::uint64_t kDistinctCells = 8;
    constexpr std::uint64_t kDistinctTraces = 5;

    for (const unsigned jobs : {1u, 4u}) {
        SCOPED_TRACE(jobs);
        SweepOptions options;
        options.verbose = false;
        options.jobs = jobs;
        const SweepResult sweep = runSweep(grid, options);
        ASSERT_EQ(sweep.cells.size(), grid.size());
        EXPECT_EQ(sweep.cells_simulated, kDistinctCells);
        EXPECT_EQ(sweep.traces_generated, kDistinctTraces);
        for (std::size_t i = 0; i < grid.size(); ++i) {
            SCOPED_TRACE(i);
            const SweepCell &cell = grid[i];
            const trace::TraceBuffer trace =
                workloads::Registry::builtin()
                    .create(cell.workload)
                    ->generate(cell.params);
            auto prefetcher = makePrefetcher(cell.prefetcher, cell.config);
            Simulator simulator(cell.config);
            EXPECT_EQ(sweep.cells[i].workload, cell.workload);
            EXPECT_EQ(sweep.cells[i].prefetcher, cell.prefetcher);
            expectIdenticalStats(sweep.cells[i].stats,
                                 simulator.run(trace, *prefetcher));
        }
    }
}

/** Every file an observed cell can produce, rendered to strings. */
struct ObservedFiles
{
    std::string report;
    std::string series;
    std::string autopsy;
    std::string learn;
    std::string mem;
};

ObservedFiles
renderObserved(const CellOutputs &outputs, const std::string &pf)
{
    ObservedFiles files;
    files.report = reportJsonWithoutProf(outputs.report);
    std::ostringstream series;
    outputs.series.writeCsv(series);
    files.series = series.str();
    std::ostringstream autopsy;
    outputs.tracker->writeAutopsyJson(autopsy, pf);
    files.autopsy = autopsy.str();
    std::ostringstream learn;
    outputs.learner->writeLearnJson(learn, "{}", pf);
    files.learn = learn.str();
    std::ostringstream mem;
    outputs.memrec->writeMemJson(mem, "{}", pf);
    files.mem = mem.str();
    return files;
}

constexpr std::uint64_t kStatsInterval = 4000;

/** A direct Simulator::run of @p pf with every sink runSweep attaches
 *  under kObserveAll, ticking every kStatsInterval instructions; the
 *  timeline goes to @p events_out. */
ObservedFiles
directObservedRun(const trace::TraceBuffer &trace, const std::string &pf,
                  const SystemConfig &config, std::string &events_out)
{
    std::ostringstream events_stream;
    obs::TraceEventWriter events(events_stream);
    CellOutputs outputs;
    outputs.tracker = std::make_unique<obs::PrefetchTracker>(&events);
    outputs.learner = std::make_unique<obs::LearningRecorder>(
        obs::LearningRecorder::Options(), &events);
    outputs.memrec = std::make_unique<obs::MemRecorder>(
        config.memory, obs::MemRecorder::Options(), &events);
    const obs::RunObserver observer{outputs.tracker.get(),
                                    outputs.learner.get(),
                                    outputs.memrec.get()};
    Simulator simulator(config);
    simulator.setSampling(kStatsInterval);
    simulator.setObserver(&observer);
    auto prefetcher = makePrefetcher(pf, config);
    simulator.run(trace, *prefetcher);
    outputs.report = simulator.lastReport();
    outputs.series = simulator.lastSeries();
    events.close();
    events_out = events_stream.str();
    return renderObserved(outputs, pf);
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream content;
    content << in.rdbuf();
    return content.str();
}

/** runSweep returns what every observer recorded: for each cell of one
 *  workload x the paper lineup, with every sink attached, the report,
 *  interval series, autopsy, learn.json, mem.json and live-streamed
 *  timeline equal a direct run's at jobs 1 and 4. An observed cell is
 *  simulated even when the result cache holds its stats; unobserved
 *  cells carry no outputs. */
TEST(ParallelSweep, ObservedCellsMatchDirectRunObservers)
{
    constexpr unsigned kObserveAll = kObserveTracker | kObserveLearn |
                                     kObserveMem | kObserveStats;
    char tmpl[] = "/tmp/csp_observed_XXXXXX";
    ASSERT_NE(mkdtemp(tmpl), nullptr);
    const std::string dir = tmpl;
    const SystemConfig config;
    workloads::WorkloadParams params;
    params.scale = 12000;
    const trace::TraceBuffer trace =
        workloads::Registry::builtin().create("list")->generate(params);

    const std::vector<std::string> lineup = paperPrefetchers();
    std::vector<ObservedFiles> direct;
    std::vector<std::string> direct_events(lineup.size());
    for (std::size_t i = 0; i < lineup.size(); ++i) {
        direct.push_back(directObservedRun(trace, lineup[i], config,
                                           direct_events[i]));
    }

    for (const unsigned jobs : {1u, 4u}) {
        SCOPED_TRACE(jobs);
        std::vector<SweepCell> grid;
        for (const std::string &pf : lineup) {
            grid.push_back({"list", params, config, pf,
                            dir + "/" + std::to_string(jobs) + "." + pf +
                                ".json"});
        }
        SweepOptions options;
        options.verbose = false;
        options.jobs = jobs;
        options.observe = kObserveAll;
        options.stats_interval = kStatsInterval;
        const SweepResult sweep = runSweep(grid, options);
        ASSERT_EQ(sweep.cells.size(), lineup.size());
        EXPECT_EQ(sweep.traces_generated, 1u);
        for (std::size_t i = 0; i < lineup.size(); ++i) {
            SCOPED_TRACE(lineup[i]);
            const CellResult &cell = sweep.cells[i];
            ASSERT_NE(cell.outputs, nullptr);
            EXPECT_EQ(cell.outputs->trace_digest, trace.contentDigest());
            const ObservedFiles files =
                renderObserved(*cell.outputs, lineup[i]);
            EXPECT_EQ(files.report, direct[i].report);
            EXPECT_EQ(files.series, direct[i].series);
            EXPECT_FALSE(cell.outputs->series.empty());
            EXPECT_EQ(files.autopsy, direct[i].autopsy);
            EXPECT_EQ(files.learn, direct[i].learn);
            EXPECT_EQ(files.mem, direct[i].mem);
            EXPECT_EQ(readFile(grid[i].trace_events), direct_events[i]);
        }
    }

    // Warm the result cache with an unobserved sweep; the observed
    // sweep must still simulate every cell to have outputs to return.
    SweepOptions cached;
    cached.verbose = false;
    cached.jobs = 4;
    cached.use_result_cache = true;
    cached.result_cache_dir = dir + "/rc";
    const SweepResult cold =
        runSweep(crossGrid({"list"}, lineup, params, config), cached);
    EXPECT_EQ(cold.cells_simulated, lineup.size());
    const SweepResult warm =
        runSweep(crossGrid({"list"}, lineup, params, config), cached);
    EXPECT_EQ(warm.cells_cached, lineup.size());
    for (const CellResult &cell : warm.cells)
        EXPECT_EQ(cell.outputs, nullptr);
    cached.observe = kObserveStats;
    const SweepResult observed =
        runSweep(crossGrid({"list"}, lineup, params, config), cached);
    EXPECT_EQ(observed.cells_simulated, lineup.size());
    EXPECT_EQ(observed.cells_cached, 0u);
    for (std::size_t i = 0; i < lineup.size(); ++i) {
        EXPECT_NE(observed.cells[i].outputs, nullptr);
        expectIdenticalStats(observed.cells[i].stats, cold.cells[i].stats);
    }
    std::filesystem::remove_all(dir);
}

/** The instructions column of @p array_prefix's rows in a flattened
 *  learn.json or mem.json. */
std::vector<std::uint64_t>
tickInstructions(const std::string &json, const std::string &array_prefix)
{
    diff::FlatDoc doc;
    std::string error;
    EXPECT_TRUE(diff::parseJsonFlat(json, doc, &error)) << error;
    std::vector<std::uint64_t> insts;
    for (std::size_t i = 0;; ++i) {
        const diff::FlatValue *value = doc.find(
            array_prefix + std::to_string(i) + ".instructions");
        if (value == nullptr)
            return insts;
        insts.push_back(static_cast<std::uint64_t>(value->number));
    }
}

/** One observation clock: in a cell observed by the learning and
 *  memory recorders, the tracker and interval stats, learn.json's
 *  snapshots, mem.json's queue timeline and the interval series rows
 *  all sit on the same instructions (the grid crossings plus the
 *  end-of-run tick), at jobs 1 and 4, and the cell's results are
 *  bit-identical to the unobserved cell's. */
TEST(ParallelSweep, ObserversJoinOnOneTickGrid)
{
    constexpr std::uint64_t kInterval = 3000;
    const SystemConfig config;
    workloads::WorkloadParams params;
    params.scale = 12000;
    const std::vector<SweepCell> grid = {
        {"list", params, config, "context", ""}};
    SweepOptions plain;
    plain.verbose = false;
    plain.jobs = 1;
    const SweepResult unobserved = runSweep(grid, plain);
    ASSERT_EQ(unobserved.cells.size(), 1u);

    for (const unsigned jobs : {1u, 4u}) {
        SCOPED_TRACE(jobs);
        SweepOptions options;
        options.verbose = false;
        options.jobs = jobs;
        options.observe = kObserveLearn | kObserveMem | kObserveStats |
                          kObserveTracker;
        options.stats_interval = kInterval;
        const SweepResult sweep = runSweep(grid, options);
        ASSERT_EQ(sweep.cells.size(), 1u);
        expectIdenticalStats(sweep.cells[0].stats,
                             unobserved.cells[0].stats);
        const CellOutputs &out = *sweep.cells[0].outputs;

        std::vector<std::uint64_t> series;
        for (const stats::TimeSeries::Row &row : out.series.rows)
            series.push_back(row.instructions);
        ASSERT_GT(series.size(), 2u);
        std::ostringstream learn;
        out.learner->writeLearnJson(learn, "{}", "context");
        std::ostringstream mem;
        out.memrec->writeMemJson(mem, "{}", "context");
        EXPECT_EQ(tickInstructions(learn.str(), "snapshots."), series);
        EXPECT_EQ(tickInstructions(mem.str(), "mem.timeline."), series);

        // Each row sits at the first access at or past a grid point,
        // the last at the run's final instruction.
        EXPECT_EQ(series.back(), sweep.cells[0].stats.instructions);
        for (std::size_t i = 0; i + 1 < series.size(); ++i) {
            EXPECT_GE(series[i], (i + 1) * kInterval) << i;
            EXPECT_LT(series[i], (i + 2) * kInterval) << i;
        }
    }
}

/** TSan smoke: many workers, verbose heartbeat on, shared traces —
 *  exercises SweepProgress's mutex and the logging path under real
 *  thread contention. Run this binary from a build configured with
 *  -DCMAKE_CXX_FLAGS="-O1 -g -fsanitize=thread" to check the engine
 *  for data races. */
TEST(ParallelSweep, TsanSmokeVerboseManyJobs)
{
    SystemConfig config;
    workloads::WorkloadParams params;
    params.scale = 6000;
    SweepOptions options;
    options.verbose = true;
    options.jobs = 8;
    const SweepResult sweep =
        runSweep(crossGrid({"list", "bst"}, {"none", "stride", "context"},
                           params, config),
                 options);
    EXPECT_EQ(sweep.cells.size(), 6u);
    for (const CellResult &cell : sweep.cells)
        EXPECT_GT(cell.stats.ipc(), 0.0);
}

TEST(ThreadPool, RunsEveryTask)
{
    ThreadPool pool(4);
    EXPECT_EQ(pool.threads(), 4u);
    std::atomic<int> count{0};
    for (int i = 0; i < 100; ++i)
        pool.submit([&count] { ++count; });
    pool.wait();
    EXPECT_EQ(count.load(), 100);
    // The pool is reusable after wait().
    pool.parallelFor(50, [&count](std::size_t) { ++count; });
    EXPECT_EQ(count.load(), 150);
}

TEST(ThreadPool, ParallelForCoversEveryIndex)
{
    ThreadPool pool(3);
    std::vector<int> hits(64, 0);
    pool.parallelFor(hits.size(),
                     [&hits](std::size_t i) { hits[i] = 1; });
    for (std::size_t i = 0; i < hits.size(); ++i)
        EXPECT_EQ(hits[i], 1) << "index " << i;
}

TEST(ThreadPool, DefaultJobsHonoursEnvironment)
{
    setenv("CSP_JOBS", "3", 1);
    EXPECT_EQ(ThreadPool::defaultJobs(), 3u);
    const unsigned hw =
        std::max(1u, std::thread::hardware_concurrency());
    // Garbage, a numeric prefix, a sign and overflow of the unsigned
    // range all fall back to the hardware threads, never to a
    // truncated or wrapped count.
    for (const char *bad : {"garbage", "8x", "-1", "99999999999"}) {
        setenv("CSP_JOBS", bad, 1);
        EXPECT_EQ(ThreadPool::defaultJobs(), hw) << bad;
    }
    setenv("CSP_JOBS", "0", 1);
    EXPECT_EQ(ThreadPool::defaultJobs(), hw);
    unsetenv("CSP_JOBS");
    EXPECT_EQ(ThreadPool::defaultJobs(), hw);
}

/** Sweep cells ask for their trace's digest from many workers at
 *  once: the first call hashes the payload, and every caller must get
 *  the digest recomputed from the bytes. */
TEST(TraceBufferDigest, ConcurrentReadersAgreeAndAPushRehashes)
{
    workloads::WorkloadParams params;
    params.scale = 5000;
    trace::TraceBuffer buffer =
        workloads::Registry::builtin().create("list")->generate(params);
    const auto recomputed = [](const trace::TraceBuffer &b) {
        return trace::packedTraceDigestPrehashed(
            b.size(), b.instructions(), streamDigest(b.packedBytes()),
            b.pcDict().data(), b.pcDict().size(), b.hintDict().data(),
            b.hintDict().size());
    };
    const std::uint64_t expect = recomputed(buffer);
    std::vector<std::uint64_t> seen(4, 0);
    {
        std::vector<std::thread> readers;
        for (std::uint64_t &out : seen)
            readers.emplace_back([&] { out = buffer.contentDigest(); });
        for (std::thread &reader : readers)
            reader.join();
    }
    for (const std::uint64_t digest : seen)
        EXPECT_EQ(digest, expect);
    // A move carries the kept hash; a push discards it.
    trace::TraceBuffer moved = std::move(buffer);
    EXPECT_EQ(moved.contentDigest(), expect);
    trace::Recorder(moved, 0x4000).compute(1, 3);
    EXPECT_NE(moved.contentDigest(), expect);
    EXPECT_EQ(moved.contentDigest(), recomputed(moved));
}

} // namespace
} // namespace csp::sim
