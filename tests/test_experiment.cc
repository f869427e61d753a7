/** @file Tests for the experiment runner and its helpers. */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>

#include "sim/experiment.h"
#include "sweep_util.h"

namespace csp::sim {
namespace {

SweepOptions
quiet()
{
    SweepOptions options;
    options.verbose = false;
    return options;
}

TEST(Experiment, MakePrefetcherKnowsPaperLineup)
{
    SystemConfig config;
    for (const std::string &name : paperPrefetchers()) {
        auto prefetcher = makePrefetcher(name, config);
        ASSERT_NE(prefetcher, nullptr);
        EXPECT_EQ(prefetcher->name(), name);
    }
}

TEST(Experiment, PaperLineupStartsWithBaseline)
{
    const auto lineup = paperPrefetchers();
    ASSERT_FALSE(lineup.empty());
    EXPECT_EQ(lineup.front(), "none");
    EXPECT_EQ(lineup.back(), "context");
}

TEST(Experiment, WorkloadGroupsMatchPaperTable3)
{
    EXPECT_EQ(specWorkloads().size(), 16u);
    EXPECT_EQ(ubenchWorkloads().size(), 8u);
    const auto all = allWorkloads();
    EXPECT_EQ(all.size(), specWorkloads().size() +
                              irregularWorkloads().size() +
                              ubenchWorkloads().size());
}

TEST(Experiment, GeomeanBasics)
{
    EXPECT_DOUBLE_EQ(geomean({}), 1.0);
    EXPECT_DOUBLE_EQ(geomean({2.0, 2.0}), 2.0);
    EXPECT_NEAR(geomean({1.0, 4.0}), 2.0, 1e-9);
}

TEST(Experiment, GeomeanWarnsInsteadOfHidingNonPositiveValues)
{
    testing::internal::CaptureStderr();
    const double clamped = geomean({0.0, 4.0});
    const std::string output =
        testing::internal::GetCapturedStderr();
    EXPECT_NE(output.find("warn"), std::string::npos);
    EXPECT_NE(output.find("non-positive"), std::string::npos);
    EXPECT_NEAR(clamped, std::sqrt(1e-9 * 4.0), 1e-12);

    testing::internal::CaptureStderr();
    (void)geomean({1.0, 2.0});
    EXPECT_TRUE(testing::internal::GetCapturedStderr().empty());
}

TEST(Experiment, EffectiveScaleHonoursEnvironment)
{
    unsetenv("CSP_SCALE");
    EXPECT_EQ(effectiveScale(1000), 1000u);
    setenv("CSP_SCALE", "2.5", 1);
    EXPECT_EQ(effectiveScale(1000), 2500u);
    // Anything but a whole finite positive factor whose product fits
    // in 64 bits is ignored.
    for (const char *bad : {"garbage", "2.5x", "inf", "1e30", "0", "-2",
                            "nan", ""}) {
        setenv("CSP_SCALE", bad, 1);
        EXPECT_EQ(effectiveScale(1000), 1000u) << bad;
    }
    unsetenv("CSP_SCALE");
}

TEST(Experiment, SweepProducesFullMatrix)
{
    SystemConfig config;
    workloads::WorkloadParams params;
    params.scale = 15000;
    const SweepResult sweep = runSweep(
        crossGrid({"array", "list"}, {"none", "context"}, params, config),
        quiet());
    EXPECT_EQ(sweep.cells.size(), 4u);
    EXPECT_GT(sweep.at("array", "none").ipc(), 0.0);
    EXPECT_GT(sweep.at("list", "context").ipc(), 0.0);
}

TEST(Experiment, SpeedupRelativeToBaseline)
{
    SystemConfig config;
    workloads::WorkloadParams params;
    params.scale = 40000;
    const SweepResult sweep =
        runSweep(crossGrid({"list"}, {"none", "context"}, params, config),
                 quiet());
    EXPECT_NEAR(sweep.speedup("list", "none"), 1.0, 1e-9);
    EXPECT_GT(sweep.speedup("list", "context"), 1.0);
}

TEST(Experiment, SweepCarriesProvenanceManifest)
{
    SystemConfig config;
    workloads::WorkloadParams params;
    params.scale = 20000;
    params.seed = 3;
    const auto sweep = [&] {
        return runSweep(crossGrid({"array", "list"}, {"none", "context"},
                                  params, config),
                        quiet());
    };
    const SweepResult a = sweep();
    EXPECT_EQ(a.manifest.tool, "runSweep");
    EXPECT_EQ(a.manifest.seed, 3u);
    EXPECT_EQ(a.manifest.workloads, "array,list");
    EXPECT_EQ(a.manifest.prefetchers, "none,context");
    EXPECT_EQ(a.manifest.config_digest,
              hexDigest(configDigest(config)));
    EXPECT_FALSE(a.manifest.trace_digest.empty());
    EXPECT_GT(a.manifest.trace_instructions, 0u);
    // The input identity is reproducible run to run; only wall-clock
    // moves.
    const SweepResult b = sweep();
    EXPECT_EQ(a.manifest.trace_digest, b.manifest.trace_digest);
    EXPECT_EQ(a.manifest.config_digest, b.manifest.config_digest);
}

TEST(ExperimentDeathTest, MissingCellIsFatal)
{
    SweepResult sweep;
    EXPECT_DEATH((void)sweep.at("nope", "none"), "no cell");
}

} // namespace
} // namespace csp::sim
