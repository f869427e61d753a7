/** @file Heap-allocation audits, with global operator new/delete
 *  overridden by counting wrappers (which is why these tests live in
 *  their own test executable).
 *
 *  - With links inlined into one contiguous arena, every CST operation
 *    after construction must run without touching the heap: the
 *    counter does not move across a steady-state workout of the full
 *    CST API.
 *  - An observer with every sink null must leave a replay exactly as
 *    it is without one: the same stats, the same layer-ledger call
 *    counts and the same number of allocations. */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/rng.h"
#include "obs/run_observer.h"
#include "prefetch/context/cst.h"
#include "sim/experiment.h"
#include "sim/result_cache.h"
#include "workloads/registry.h"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

void *
countedAlloc(std::size_t size)
{
    ++g_allocations;
    if (void *p = std::malloc(size == 0 ? 1 : size))
        return p;
    throw std::bad_alloc();
}

void *
countedAlignedAlloc(std::size_t size, std::align_val_t align)
{
    ++g_allocations;
    const std::size_t alignment = static_cast<std::size_t>(align);
    const std::size_t rounded =
        (size + alignment - 1) / alignment * alignment;
    if (void *p = std::aligned_alloc(alignment,
                                     rounded == 0 ? alignment : rounded))
        return p;
    throw std::bad_alloc();
}

} // namespace

void *
operator new(std::size_t size)
{
    return countedAlloc(size);
}

void *
operator new[](std::size_t size)
{
    return countedAlloc(size);
}

void *
operator new(std::size_t size, std::align_val_t align)
{
    return countedAlignedAlloc(size, align);
}

void *
operator new[](std::size_t size, std::align_val_t align)
{
    return countedAlignedAlloc(size, align);
}

void
operator delete(void *ptr) noexcept
{
    std::free(ptr);
}

void
operator delete[](void *ptr) noexcept
{
    std::free(ptr);
}

void
operator delete(void *ptr, std::size_t) noexcept
{
    std::free(ptr);
}

void
operator delete[](void *ptr, std::size_t) noexcept
{
    std::free(ptr);
}

void
operator delete(void *ptr, std::align_val_t) noexcept
{
    std::free(ptr);
}

void
operator delete[](void *ptr, std::align_val_t) noexcept
{
    std::free(ptr);
}

void
operator delete(void *ptr, std::size_t, std::align_val_t) noexcept
{
    std::free(ptr);
}

void
operator delete[](void *ptr, std::size_t, std::align_val_t) noexcept
{
    std::free(ptr);
}

namespace csp::prefetch::ctx {
namespace {

TEST(CstAllocation, SteadyStateOperationIsHeapFree)
{
    ContextPrefetcherConfig config;
    config.cst_entries = 256;
    Cst cst(config); // construction may allocate (table + arena)
    Rng rng(42);

    const std::uint64_t before = g_allocations.load();
    for (int step = 0; step < 200000; ++step) {
        const auto key = static_cast<std::uint32_t>(rng.below(4096));
        const auto delta =
            static_cast<std::int32_t>(rng.below(64)) - 32;
        cst.addLink(key, delta);
        cst.reward(key, delta,
                   static_cast<int>(rng.below(5)) - 2);
        std::int32_t deltas[Cst::kLinks];
        int scores[Cst::kLinks];
        cst.bestLinks(key, deltas, Cst::kLinks, 0, scores);
        std::int32_t chosen;
        cst.randomLink(key, rng, &chosen);
        cst.softmaxLink(key, rng, 2.0, &chosen);
        if ((step & 1023) == 0) {
            cst.clearChurn(key);
            (void)cst.liveEntries();
        }
    }
    const std::uint64_t after = g_allocations.load();
    EXPECT_EQ(after, before)
        << (after - before)
        << " heap allocations during steady-state CST operation";
}

} // namespace
} // namespace csp::prefetch::ctx

namespace csp::sim {
namespace {

/** What one mcf/context replay leaves behind. */
struct CountedReplay
{
    std::string stats_json;
    /// Every "prof.<layer>.calls" of the run's layer ledger.
    std::vector<std::pair<std::string, double>> ledger_calls;
    std::uint64_t allocations = 0; ///< from construction to run() end
};

CountedReplay
countedReplay(const trace::TraceBuffer &trace,
              const obs::RunObserver *observer)
{
    SystemConfig config;
    const std::uint64_t before = g_allocations.load();
    auto prefetcher = makePrefetcher("context", config);
    Simulator simulator(config);
    simulator.setObserver(observer);
    const RunStats stats = simulator.run(trace, *prefetcher);
    CountedReplay out;
    out.allocations = g_allocations.load() - before;
    std::ostringstream json;
    writeRunStatsJson(json, stats);
    out.stats_json = json.str();
    for (const stats::ReportEntry &entry :
         simulator.lastReport().entries) {
        if (entry.name.starts_with("prof.") &&
            entry.name.ends_with(".calls"))
            out.ledger_calls.emplace_back(entry.name, entry.value);
    }
    return out;
}

/** The disabled path bench_smoke.py times against no observer at all,
 *  checked exactly: an observer with every sink null changes neither
 *  the stats, nor a layer-ledger call count, nor how often the replay
 *  touches the heap. */
TEST(DisabledObserver, NullSinksLeaveTheReplayAsItIs)
{
    workloads::WorkloadParams params;
    params.scale = 20000;
    params.seed = 1;
    const trace::TraceBuffer trace =
        workloads::Registry::builtin().create("mcf")->generate(params);
    const obs::RunObserver null_sinks;
    const CountedReplay plain = countedReplay(trace, nullptr);
    const CountedReplay observed = countedReplay(trace, &null_sinks);

    EXPECT_EQ(plain.stats_json, observed.stats_json);
    ASSERT_FALSE(plain.ledger_calls.empty());
    EXPECT_EQ(plain.ledger_calls, observed.ledger_calls);
    EXPECT_EQ(plain.allocations, observed.allocations);
}

} // namespace
} // namespace csp::sim
