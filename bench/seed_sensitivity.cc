/** @file Seed sensitivity of the headline comparison: the Figure 12
 *  ordering must not be an artifact of one workload seed. Runs a
 *  representative subset under three seeds and reports per-seed
 *  context and SMS speedups plus the spread. */

#include <iostream>

#include "bench_common.h"

int
main(int argc, char **argv)
{
    using namespace csp;
    bench::banner("Seed sensitivity of context vs SMS speedups",
                  "robustness check for Figure 12");
    const std::vector<std::string> workload_names = {
        "list", "listsort", "mcf", "omnetpp", "graph500-list",
        "lbm",  "astar"};
    const std::vector<std::uint64_t> seeds = {1, 2, 3};
    const std::vector<std::string> prefetchers = {"context", "sms"};

    // A (run, baseline) cell pair per table entry, in row-major order;
    // the two prefetchers share each seed's baseline simulation.
    std::vector<sim::SweepCell> grid;
    for (const std::string &name : workload_names) {
        for (const std::string &pf : prefetchers) {
            for (const std::uint64_t seed : seeds) {
                workloads::WorkloadParams params =
                    bench::benchParams(bench::sweepScale());
                params.seed = seed;
                SystemConfig seeded;
                seeded.seed = seed;
                grid.push_back({name, params, seeded, pf});
                grid.push_back({name, params, seeded, "none"});
            }
        }
    }
    const sim::SweepResult result =
        sim::runSweep(grid, bench::sweepOptions(argc, argv));

    sim::Table table({"benchmark", "prefetcher", "seed1", "seed2",
                      "seed3", "spread"});
    std::size_t cell = 0;
    for (const std::string &name : workload_names) {
        for (const std::string &pf : prefetchers) {
            std::vector<std::string> row = {name, pf};
            double lo = 1e9;
            double hi = 0.0;
            for (std::size_t s = 0; s < seeds.size(); ++s, cell += 2) {
                const double speedup =
                    bench::speedup(result, cell, cell + 1);
                lo = std::min(lo, speedup);
                hi = std::max(hi, speedup);
                row.push_back(sim::Table::num(speedup, 3));
            }
            row.push_back(
                sim::Table::num(100.0 * (hi - lo) / lo, 1) + "%");
            table.addRow(row);
        }
    }
    table.print(std::cout);
    std::cout << "\nThe context-vs-SMS ordering should hold for every"
                 " seed on every benchmark above.\n";
    return 0;
}
