/** @file Heap-placement sensitivity: the µbenchmarks run over the
 *  simulated heap with slot placement either sequential (bump
 *  allocator) or randomised (churned heap). This probes the CST's
 *  ±8kB short-delta reach (paper section 5) and SMS's dependence on
 *  dense regions: scattering the heap hurts the spatial prefetcher
 *  far more than the semantic one. */

#include <iostream>

#include "bench_common.h"

int
main(int argc, char **argv)
{
    using namespace csp;
    bench::banner("Heap-placement sensitivity (speedups)",
                  "probe of the CST delta reach & SMS density needs");
    const std::vector<std::string> workload_names = {
        "list", "listsort", "bst", "hashtest", "maptest"};
    const SystemConfig config;

    // A (run, baseline) cell pair per table entry, in row-major order;
    // each placement's two prefetchers share its baseline simulation.
    std::vector<sim::SweepCell> grid;
    for (const std::string &name : workload_names) {
        for (const std::string pf : {"context", "sms"}) {
            for (const runtime::Placement placement :
                 {runtime::Placement::Sequential,
                  runtime::Placement::Randomized}) {
                workloads::WorkloadParams params =
                    bench::benchParams(bench::sweepScale());
                params.placement = placement;
                grid.push_back({name, params, config, pf});
                grid.push_back({name, params, config, "none"});
            }
        }
    }
    const sim::SweepResult result =
        sim::runSweep(grid, bench::sweepOptions(argc, argv));

    sim::Table table({"benchmark", "ctx seq", "ctx rand", "sms seq",
                      "sms rand"});
    std::size_t cell = 0;
    for (const std::string &name : workload_names) {
        std::vector<std::string> row = {name};
        for (int column = 0; column < 4; ++column, cell += 2)
            row.push_back(
                sim::Table::num(bench::speedup(result, cell, cell + 1), 3));
        table.addRow(row);
    }
    table.print(std::cout);
    std::cout << "\nScattered placement degrades spatial prefetching"
                 " more than semantic prefetching wherever the\n"
                 "structure's semantic neighbours stay within the"
                 " CST's short-pointer (±8kB) reach.\n";
    return 0;
}
