/** @file Validates the paper's phase-length claim (section 6: "the
 *  impact of using longer phases is negligible"): context-prefetcher
 *  speedups measured at 1x / 2x / 4x trace length should agree to
 *  within a few percent once past the training ramp. */

#include <iostream>

#include "bench_common.h"

int
main(int argc, char **argv)
{
    using namespace csp;
    bench::banner("Speedup stability across trace lengths",
                  "paper section 6 phase-length validation");
    const std::vector<std::string> workload_names = {
        "list", "mcf", "lbm", "graph500-list", "maptest"};
    const std::vector<unsigned> factors = {1, 2, 4};
    const SystemConfig config;

    // A (context, baseline) cell pair per workload and length.
    std::vector<sim::SweepCell> grid;
    for (const std::string &name : workload_names) {
        for (unsigned f : factors) {
            const workloads::WorkloadParams params =
                bench::benchParams(bench::sweepScale() / 2 * f);
            grid.push_back({name, params, config, "context"});
            grid.push_back({name, params, config, "none"});
        }
    }
    const sim::SweepResult result =
        sim::runSweep(grid, bench::sweepOptions(argc, argv));

    std::vector<std::string> headers = {"benchmark"};
    for (unsigned f : factors)
        headers.push_back(std::to_string(f) + "x speedup");
    headers.push_back("max drift");
    sim::Table table(headers);

    std::size_t cell = 0;
    for (const std::string &name : workload_names) {
        std::vector<std::string> row = {name};
        double lo = 1e9;
        double hi = 0.0;
        for (std::size_t f = 0; f < factors.size(); ++f, cell += 2) {
            const double speedup = bench::speedup(result, cell, cell + 1);
            lo = std::min(lo, speedup);
            hi = std::max(hi, speedup);
            row.push_back(sim::Table::num(speedup, 3));
        }
        row.push_back(
            sim::Table::num(100.0 * (hi - lo) / lo, 1) + "%");
        table.addRow(row);
    }
    table.print(std::cout);
    std::cout << "\nDrift mixes true phase effects with learning-ramp"
                 " amortisation; longer traces mildly favour the\n"
                 "learning prefetcher, which is why the drift is"
                 " one-sided.\n";
    return 0;
}
