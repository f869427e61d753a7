/** @file Determinism contract of the parallel sweep engine: runSweep
 *  at jobs=N is bit-identical to jobs=1 for every cell, cells stay
 *  row-major, and the core ThreadPool behaves. Built under
 *  -fsanitize=thread by the CI TSan job (CSP_TSAN=ON) as the
 *  data-race smoke test for the whole engine. */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <vector>

#include "core/thread_pool.h"
#include "sim/experiment.h"

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
    return runSweep(kWorkloads, kPrefetchers, params, config, options);
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
    return runSweep(kWorkloads, kPrefetchers, params, config, options);
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

/** The instrumented replay loops (prof.* phase timers, learning
 *  observer) must not perturb simulation results: every combination of
 *  profiling and learning hooks, at jobs 1 and 4, is bit-identical to
 *  the plain serial sweep. This is the contract that lets the hot-path
 *  rework template observe()/run() on instrumentation without a
 *  correctness risk. */
TEST(ParallelSweep, InstrumentationBitIdenticalAcrossJobCounts)
{
    const SweepResult plain = smallSweep(1);
    const unsigned masks[] = {kObserveProfile, kObserveLearn,
                              kObserveProfile | kObserveLearn};
    for (const unsigned observe : masks) {
        expectIdenticalSweeps(plain, instrumentedSweep(1, observe));
        expectIdenticalSweeps(plain, instrumentedSweep(4, observe));
    }
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

/** TSan smoke: many workers, verbose heartbeat on, shared traces —
 *  exercises SweepProgress's mutex and the logging path under real
 *  thread contention. Run this binary from a CSP_TSAN=ON build to
 *  check the engine for data races. */
TEST(ParallelSweep, TsanSmokeVerboseManyJobs)
{
    SystemConfig config;
    workloads::WorkloadParams params;
    params.scale = 6000;
    SweepOptions options;
    options.verbose = true;
    options.jobs = 8;
    const SweepResult sweep = runSweep({"list", "bst"},
                                       {"none", "stride", "context"},
                                       params, config, options);
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
    setenv("CSP_JOBS", "garbage", 1);
    EXPECT_GE(ThreadPool::defaultJobs(), 1u);
    unsetenv("CSP_JOBS");
    EXPECT_GE(ThreadPool::defaultJobs(), 1u);
}

} // namespace
} // namespace csp::sim
