/**
 * @file
 * Every figure and table of the paper's evaluation is a spec
 * (specs.cc). runFigures() sends the selected specs' grids through one
 * runSweep, so a cell that several figures read is simulated once, and
 * hands each spec the result of its own cells. figure_main.cc is every
 * figure binary. See DESIGN.md section 3.
 */

#ifndef CSP_BENCH_FIGURE_H
#define CSP_BENCH_FIGURE_H

#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "sim/experiment.h"

namespace csp::bench {

/** One figure or table: what it simulates and how it prints. */
struct FigureSpec
{
    std::string name;      ///< binary name; `figures` writes <name>.txt
    std::string title;     ///< banner: what the output shows
    std::string paper_ref; ///< banner: where the paper shows it
    /** The cells the figure reads; unset when it simulates nothing. */
    std::function<std::vector<sim::SweepCell>()> grid;
    /** Print the figure from the result of its own grid: its cells in
     *  grid order, with the name lists runSweep gives that grid. */
    std::function<void(const sim::SweepResult &, std::ostream &)> render;
};

/** Every figure and table, in paper order. */
std::vector<FigureSpec> figureSpecs();

/** What runFigures did. */
struct FigureRun
{
    sim::SweepResult sweep;               ///< the union grid's one sweep
    std::vector<sim::SweepResult> slices; ///< specs[i]'s own cells
};

/**
 * Run the union of @p specs' grids through one runSweep and cut each
 * spec's slice out of it. A slice holds only its spec's cells, so a
 * lookup by (workload, prefetcher) never answers from another spec's
 * cell with the same names.
 */
FigureRun runFigures(const std::vector<FigureSpec> &specs,
                     const sim::SweepOptions &options);

} // namespace csp::bench

#endif // CSP_BENCH_FIGURE_H
