#include "figure.h"

#include <algorithm>

namespace csp::bench {

namespace {

void
appendUnique(std::vector<std::string> &names, const std::string &name)
{
    if (std::find(names.begin(), names.end(), name) == names.end())
        names.push_back(name);
}

} // namespace

FigureRun
runFigures(const std::vector<FigureSpec> &specs,
           const sim::SweepOptions &options)
{
    std::vector<sim::SweepCell> grid;
    std::vector<std::size_t> begin;
    for (const FigureSpec &spec : specs) {
        begin.push_back(grid.size());
        if (spec.grid) {
            for (sim::SweepCell &cell : spec.grid())
                grid.push_back(std::move(cell));
        }
    }
    begin.push_back(grid.size());

    // Figure 8 reads its hit-depth histogram from each cell's report.
    sim::SweepOptions observed = options;
    observed.observe |= sim::kObserveStats;
    observed.stats_filter = "context.pq.hit_depth";
    FigureRun run;
    if (!grid.empty()) // figures that simulate nothing start no sweep
        run.sweep = sim::runSweep(grid, observed);
    for (std::size_t s = 0; s < specs.size(); ++s) {
        sim::SweepResult &slice = run.slices.emplace_back();
        for (std::size_t i = begin[s]; i < begin[s + 1]; ++i) {
            const sim::CellResult &cell = run.sweep.cells[i];
            appendUnique(slice.workload_names, cell.workload);
            appendUnique(slice.prefetcher_names, cell.prefetcher);
            slice.cells.push_back(cell);
        }
    }
    return run;
}

} // namespace csp::bench
