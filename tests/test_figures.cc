/** @file The figure runner: the union of several specs' grids goes
 *  through one runSweep, and each spec gets exactly the result of its
 *  own grid run alone. */

#include <gtest/gtest.h>

#include <sstream>

#include "figure.h"
#include "sim/sweep_io.h"

namespace csp::bench {
namespace {

sim::SweepCell
cell(const std::string &workload, const std::string &prefetcher,
     std::uint64_t seed)
{
    workloads::WorkloadParams params;
    params.scale = 12000;
    params.seed = seed;
    SystemConfig config;
    config.seed = seed;
    return {workload, params, config, prefetcher};
}

FigureSpec
spec(const std::string &name, std::vector<sim::SweepCell> cells)
{
    return {name, name, "test", [cells] { return cells; },
            [](const sim::SweepResult &, std::ostream &) {}};
}

/** Every RunStats field of every cell, with its names, in cell order. */
std::string
csv(const sim::SweepResult &result)
{
    std::ostringstream out;
    sim::writeSweepCsv(out, result);
    return out.str();
}

sim::SweepOptions
quiet()
{
    sim::SweepOptions options;
    options.verbose = false;
    options.jobs = 2;
    return options;
}

TEST(Figures, UnionSlicesMatchEachSpecAlone)
{
    // `seeded` shares (bst, context, seed 1) with `paper` and has its
    // own (bst, none) at seed 2, ahead of paper's seed-1 one.
    const FigureSpec seeded = spec(
        "seeded", {cell("bst", "none", 2), cell("bst", "context", 1)});
    const FigureSpec paper =
        spec("paper", {cell("bst", "none", 1), cell("bst", "context", 1),
                       cell("array", "none", 1)});

    const FigureRun run = runFigures({seeded, paper}, quiet());
    ASSERT_EQ(run.slices.size(), 2u);
    // Five cells, four distinct simulations: the shared cell ran once.
    EXPECT_EQ(run.sweep.cells.size(), 5u);
    EXPECT_EQ(run.sweep.cells_simulated, 4u);

    const std::vector<FigureSpec> specs = {seeded, paper};
    for (std::size_t s = 0; s < specs.size(); ++s) {
        const sim::SweepResult alone =
            sim::runSweep(specs[s].grid(), quiet());
        const sim::SweepResult &slice = run.slices[s];
        EXPECT_EQ(csv(slice), csv(alone)) << specs[s].name;
        EXPECT_EQ(slice.workload_names, alone.workload_names);
        EXPECT_EQ(slice.prefetcher_names, alone.prefetcher_names);
    }

    // The union's first (bst, none) is seeded's seed-2 cell; paper's
    // slice answers from its own seed-1 cell.
    const sim::SweepResult &paper_slice = run.slices[1];
    EXPECT_EQ(&paper_slice.at("bst", "none"), &paper_slice.cells[0].stats);
    EXPECT_EQ(paper_slice.at("bst", "none").cycles,
              run.sweep.cells[2].stats.cycles);
    EXPECT_NE(run.sweep.at("bst", "none").cycles,
              run.sweep.cells[2].stats.cycles);
}

TEST(Figures, SpecWithoutGridGetsAnEmptySlice)
{
    const FigureSpec table = {"table", "table", "test", {},
                              [](const sim::SweepResult &, std::ostream &) {}};
    const FigureRun run = runFigures({table}, quiet());
    ASSERT_EQ(run.slices.size(), 1u);
    EXPECT_TRUE(run.slices[0].cells.empty());
    EXPECT_EQ(run.sweep.cells_simulated, 0u);
}

TEST(Figures, EverySpecHasAUniqueName)
{
    const std::vector<FigureSpec> specs = figureSpecs();
    EXPECT_EQ(specs.size(), 16u);
    for (std::size_t i = 0; i < specs.size(); ++i) {
        EXPECT_TRUE(specs[i].render) << specs[i].name;
        for (std::size_t j = i + 1; j < specs.size(); ++j)
            EXPECT_NE(specs[i].name, specs[j].name);
    }
}

} // namespace
} // namespace csp::bench
