/** @file Cross-module property tests: parameterized sweeps asserting
 *  invariants that must hold for any reasonable configuration. */

#include <gtest/gtest.h>

#include <tuple>

#include "mem/hierarchy.h"
#include "prefetch/context/context_prefetcher.h"
#include "sim/experiment.h"
#include "sim/simulator.h"
#include "workloads/registry.h"

namespace csp {
namespace {

// ---------------------------------------------------------------------
// Cache geometry sweep: hit/miss behaviour is geometry-independent.
// ---------------------------------------------------------------------

class CacheGeometryTest
    : public ::testing::TestWithParam<
          std::tuple<std::uint64_t /*size*/, unsigned /*ways*/>>
{};

TEST_P(CacheGeometryTest, SecondTouchAlwaysHits)
{
    const auto [size, ways] = GetParam();
    CacheConfig config;
    config.size_bytes = size;
    config.ways = ways;
    config.line_bytes = 64;
    mem::Cache cache(config, "sweep");
    cache.insert(0x12345000, 0, false);
    EXPECT_NE(cache.lookup(0x12345000), nullptr);
}

TEST_P(CacheGeometryTest, CapacityIsRespected)
{
    const auto [size, ways] = GetParam();
    CacheConfig config;
    config.size_bytes = size;
    config.ways = ways;
    config.line_bytes = 64;
    mem::Cache cache(config, "sweep");
    const std::uint64_t lines = size / 64;
    // Fill twice the capacity; at most `lines` can remain resident.
    std::uint64_t resident = 0;
    for (std::uint64_t i = 0; i < lines * 2; ++i)
        cache.insert(i * 64, 0, false);
    for (std::uint64_t i = 0; i < lines * 2; ++i) {
        if (cache.lookup(i * 64, /*touch=*/false) != nullptr)
            ++resident;
    }
    EXPECT_LE(resident, lines);
    EXPECT_GE(resident, lines / 2);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheGeometryTest,
    ::testing::Values(std::make_tuple(4096, 1),
                      std::make_tuple(4096, 4),
                      std::make_tuple(65536, 8),
                      std::make_tuple(65536, 16),
                      std::make_tuple(1 << 20, 16)));

// ---------------------------------------------------------------------
// Hierarchy latency ordering across DRAM latencies.
// ---------------------------------------------------------------------

class DramLatencyTest : public ::testing::TestWithParam<Cycle>
{};

TEST_P(DramLatencyTest, ServiceLevelsOrderLatencies)
{
    MemoryConfig config;
    config.dram_latency = GetParam();
    mem::Hierarchy hierarchy(config);
    const mem::AccessResult miss = hierarchy.access(0x100000, 0);
    const Cycle miss_latency = miss.complete;
    const mem::AccessResult hit =
        hierarchy.access(0x100000, miss.complete + 1);
    const Cycle hit_latency = hit.complete - (miss.complete + 1);
    EXPECT_GT(miss_latency, hit_latency);
    EXPECT_GE(miss_latency, GetParam());
}

INSTANTIATE_TEST_SUITE_P(Latencies, DramLatencyTest,
                         ::testing::Values(50, 100, 300, 600));

// ---------------------------------------------------------------------
// Context prefetcher configuration sweep: learning must survive any
// reasonable CST geometry, and stats must stay consistent.
// ---------------------------------------------------------------------

class CstGeometryTest : public ::testing::TestWithParam<unsigned>
{};

TEST_P(CstGeometryTest, StridedStreamLearnsAtAnySize)
{
    ContextPrefetcherConfig config;
    config.cst_entries = GetParam();
    config.reducer_entries = GetParam() * 8;
    prefetch::ctx::ContextPrefetcher prefetcher(config, 1);
    trace::ContextSnapshot ctx;
    ctx.set(trace::Attr::IP, 0x400);
    std::vector<prefetch::PrefetchRequest> out;
    for (int i = 0; i < 15000; ++i) {
        prefetch::AccessInfo info;
        info.seq = static_cast<AccessSeq>(i);
        info.pc = 0x400;
        info.vaddr = 0x100000 + static_cast<Addr>(i) * 64;
        info.line_addr = info.vaddr;
        info.free_l1_mshrs = 4;
        info.context = &ctx;
        out.clear();
        prefetcher.observe(info, out);
    }
    EXPECT_GT(prefetcher.policy().accuracy(), 0.4);
    EXPECT_GT(prefetcher.stats().real_predictions, 500u);
}

INSTANTIATE_TEST_SUITE_P(Sizes, CstGeometryTest,
                         ::testing::Values(256, 1024, 2048, 8192));

// ---------------------------------------------------------------------
// Simulator invariants across every prefetcher and a workload mix.
// ---------------------------------------------------------------------

class SimInvariantTest
    : public ::testing::TestWithParam<
          std::tuple<std::string /*workload*/, std::string /*pf*/>>
{};

TEST_P(SimInvariantTest, AccountingAlwaysConsistent)
{
    const auto [workload_name, pf_name] = GetParam();
    workloads::WorkloadParams params;
    params.scale = 25000;
    const trace::TraceBuffer trace = workloads::Registry::builtin()
                                         .create(workload_name)
                                         ->generate(params);
    SystemConfig config;
    auto prefetcher = sim::makePrefetcher(pf_name, config);
    sim::Simulator simulator(config);
    const sim::RunStats stats = simulator.run(trace, *prefetcher);

    EXPECT_EQ(stats.instructions, trace.instructions());
    EXPECT_EQ(stats.demand_accesses, trace.memAccesses());
    EXPECT_LE(stats.l2_demand_misses, stats.l1_misses);
    EXPECT_LE(stats.l1_misses, stats.demand_accesses);
    EXPECT_GT(stats.cycles, 0u);
    EXPECT_LE(stats.ipc(), static_cast<double>(config.core.fetch_width));
    std::uint64_t class_sum = 0;
    for (std::size_t c = 0;
         c < static_cast<std::size_t>(sim::AccessClass::Count); ++c)
        class_sum += stats.classes[c];
    EXPECT_EQ(class_sum, stats.demand_accesses);
    EXPECT_LE(stats.prefetch_never_hit,
              stats.hierarchy.prefetches_issued);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, SimInvariantTest,
    ::testing::Combine(::testing::Values("list", "array", "bst",
                                         "mcf", "graph500-list",
                                         "setCover"),
                       ::testing::ValuesIn(sim::paperPrefetchers())),
    [](const auto &info) {
        std::string name = std::get<0>(info.param) + "_" +
                           std::get<1>(info.param);
        for (char &c : name) {
            if (!std::isalnum(static_cast<unsigned char>(c)))
                c = '_';
        }
        return name;
    });

// ---------------------------------------------------------------------
// Softmax exploration (the section-8 extension) sanity.
// ---------------------------------------------------------------------

TEST(SoftmaxExploration, PrefersHighScores)
{
    ContextPrefetcherConfig config;
    config.cst_entries = 16;
    prefetch::ctx::Cst cst(config);
    cst.addLink(5, 1);
    cst.addLink(5, 2);
    cst.reward(5, 2, 40);
    Rng rng(3);
    int picked_hot = 0;
    for (int i = 0; i < 2000; ++i) {
        std::int32_t delta = 0;
        ASSERT_TRUE(cst.softmaxLink(5, rng, 8.0, &delta));
        if (delta == 2)
            ++picked_hot;
    }
    // exp(40/8)/(exp(40/8)+exp(0)) ~ 0.993.
    EXPECT_GT(picked_hot, 1800);
}

TEST(SoftmaxExploration, HighTemperatureApproachesUniform)
{
    ContextPrefetcherConfig config;
    config.cst_entries = 16;
    prefetch::ctx::Cst cst(config);
    cst.addLink(5, 1);
    cst.addLink(5, 2);
    cst.reward(5, 2, 40);
    Rng rng(3);
    int picked_hot = 0;
    for (int i = 0; i < 2000; ++i) {
        std::int32_t delta = 0;
        ASSERT_TRUE(cst.softmaxLink(5, rng, 1000.0, &delta));
        if (delta == 2)
            ++picked_hot;
    }
    EXPECT_NEAR(picked_hot, 1000, 150);
}

TEST(SoftmaxExploration, EmptyEntryReturnsFalse)
{
    ContextPrefetcherConfig config;
    config.cst_entries = 16;
    prefetch::ctx::Cst cst(config);
    Rng rng(3);
    std::int32_t delta = 0;
    EXPECT_FALSE(cst.softmaxLink(5, rng, 8.0, &delta));
}

TEST(SoftmaxExploration, EndToEndStillLearns)
{
    ContextPrefetcherConfig config;
    config.softmax_exploration = true;
    prefetch::ctx::ContextPrefetcher prefetcher(config, 1);
    trace::ContextSnapshot ctx;
    ctx.set(trace::Attr::IP, 0x400);
    std::vector<prefetch::PrefetchRequest> out;
    for (int i = 0; i < 15000; ++i) {
        prefetch::AccessInfo info;
        info.seq = static_cast<AccessSeq>(i);
        info.pc = 0x400;
        info.vaddr = 0x100000 + static_cast<Addr>(i) * 64;
        info.line_addr = info.vaddr;
        info.free_l1_mshrs = 4;
        info.context = &ctx;
        out.clear();
        prefetcher.observe(info, out);
    }
    EXPECT_GT(prefetcher.policy().accuracy(), 0.4);
}

} // namespace
} // namespace csp
