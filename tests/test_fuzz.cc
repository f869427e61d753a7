/** @file Fuzz-style robustness tests: random traces through every
 *  prefetcher of the paper lineup and the full simulator must never
 *  violate accounting invariants, whatever the access mix looks
 *  like. */

#include <gtest/gtest.h>

#include "core/rng.h"
#include "sim/experiment.h"
#include "sim/simulator.h"

namespace csp {
namespace {

/** A trace of fully random records (all kinds, wild addresses). */
trace::TraceBuffer
randomTrace(std::uint64_t seed, std::size_t records)
{
    Rng rng(seed);
    trace::TraceBuffer buffer;
    trace::Recorder rec(buffer, 0x400000);
    for (std::size_t i = 0; i < records; ++i) {
        const auto site = static_cast<std::uint32_t>(rng.below(32));
        switch (rng.below(8)) {
          case 0:
            rec.branch(site, rng.chance(0.5));
            break;
          case 1:
            rec.compute(site,
                        static_cast<std::uint32_t>(1 + rng.below(50)));
            break;
          case 2:
            rec.store(site, rng.below(1ull << 34));
            break;
          default: {
            hints::Hint hint;
            if (rng.chance(0.3)) {
                hint = hints::Hint{
                    static_cast<std::uint16_t>(1 + rng.below(7)),
                    static_cast<std::uint16_t>(rng.below(64)),
                    static_cast<hints::RefForm>(1 + rng.below(4))};
            }
            rec.load(site, rng.below(1ull << 34), hint, rng.next(),
                     rng.chance(0.3), rng.next());
            break;
          }
        }
    }
    return buffer;
}

class FuzzTest
    : public ::testing::TestWithParam<
          std::tuple<std::uint64_t, std::string>>
{};

TEST_P(FuzzTest, SimulatorInvariantsSurviveRandomTraces)
{
    const auto [seed, pf_name] = GetParam();
    const trace::TraceBuffer trace = randomTrace(seed, 20000);
    SystemConfig config;
    auto prefetcher = sim::makePrefetcher(pf_name, config);
    sim::Simulator simulator(config);
    const sim::RunStats stats = simulator.run(trace, *prefetcher);

    EXPECT_EQ(stats.instructions, trace.instructions());
    EXPECT_EQ(stats.demand_accesses, trace.memAccesses());
    EXPECT_LE(stats.l2_demand_misses, stats.l1_misses);
    EXPECT_GT(stats.cycles, 0u);
    EXPECT_LE(stats.ipc(),
              static_cast<double>(config.core.fetch_width));
    std::uint64_t class_sum = 0;
    for (std::size_t c = 0;
         c < static_cast<std::size_t>(sim::AccessClass::Count); ++c)
        class_sum += stats.classes[c];
    EXPECT_EQ(class_sum, stats.demand_accesses);
}

INSTANTIATE_TEST_SUITE_P(
    SeedsByPrefetcher, FuzzTest,
    ::testing::Combine(::testing::Values(11ull, 22ull, 33ull),
                       ::testing::ValuesIn(sim::paperPrefetchers())),
    [](const auto &info) {
        std::string name =
            "s" + std::to_string(std::get<0>(info.param)) + "_" +
            std::get<1>(info.param);
        for (char &c : name) {
            if (!std::isalnum(static_cast<unsigned char>(c)))
                c = '_';
        }
        return name;
    });

} // namespace
} // namespace csp
