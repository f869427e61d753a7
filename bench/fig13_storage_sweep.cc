/** @file Regenerates paper Figure 13: overall speedup as a function of
 *  the context prefetcher's storage size. CST entries sweep from 256
 *  to 16K with the Reducer held at 8x the CST size (paper section
 *  7.4); the two series are the 10 workloads that benefit most
 *  ("Top10") and the whole set ("All"). */

#include <algorithm>
#include <iostream>
#include <numeric>

#include "bench_common.h"

namespace {

/** The system with @p entries CST entries and the Reducer at 8x. */
csp::SystemConfig
sizedConfig(unsigned entries)
{
    csp::SystemConfig sized;
    sized.context.cst_entries = entries;
    sized.context.reducer_entries = entries * 8;
    return sized;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace csp;
    bench::banner("Impact of CST size on overall speedup",
                  "paper Figure 13");
    // A representative subset keeps the sweep tractable; Top10 is
    // picked from the baseline run exactly like the paper does.
    const std::vector<std::string> workload_names = {
        "array",    "list",      "listsort",    "bst",
        "maptest",  "prim",      "graph500-list", "ssca2-list",
        "mcf",      "omnetpp",   "lbm",         "sphinx3",
        "h264ref",  "soplex"};
    const std::vector<unsigned> cst_sizes = {256, 512, 1024, 2048,
                                             4096, 8192, 16384};

    const workloads::WorkloadParams params =
        bench::benchParams(bench::sweepScale());
    // Cell w is workload w's baseline; cell (s + 1) * W + w is CST
    // size s on workload w.
    std::vector<sim::SweepCell> grid;
    for (const auto &name : workload_names)
        grid.push_back({name, params, SystemConfig{}, "none"});
    for (unsigned entries : cst_sizes) {
        for (const auto &name : workload_names)
            grid.push_back({name, params, sizedConfig(entries), "context"});
    }
    const sim::SweepResult result =
        sim::runSweep(grid, bench::sweepOptions(argc, argv));

    const std::size_t n_workloads = workload_names.size();
    const auto speedup = [&](unsigned entries, std::size_t w) {
        const auto s = static_cast<std::size_t>(
            std::find(cst_sizes.begin(), cst_sizes.end(), entries) -
            cst_sizes.begin());
        return bench::speedup(result, (s + 1) * n_workloads + w, w);
    };

    // Top10 = the 10 workloads with the best speedup at the paper's
    // default size (2048 entries).
    std::vector<std::size_t> by_benefit(n_workloads);
    std::iota(by_benefit.begin(), by_benefit.end(), std::size_t{0});
    std::sort(by_benefit.begin(), by_benefit.end(),
              [&](std::size_t a, std::size_t b) {
                  return speedup(2048, a) > speedup(2048, b);
              });
    by_benefit.resize(10);

    sim::Table table(
        {"CST entries", "storage(kB)", "Top10 speedup", "All speedup"});
    for (unsigned entries : cst_sizes) {
        std::vector<double> top10;
        std::vector<double> all;
        for (std::size_t w = 0; w < n_workloads; ++w) {
            all.push_back(speedup(entries, w));
            if (std::find(by_benefit.begin(), by_benefit.end(), w) !=
                by_benefit.end())
                top10.push_back(speedup(entries, w));
        }
        table.addRow({std::to_string(entries),
                      sim::Table::num(
                          static_cast<double>(
                              sizedConfig(entries)
                                  .context.storageBytes()) /
                              1024.0,
                          1),
                      sim::Table::num(sim::geomean(top10), 3),
                      sim::Table::num(sim::geomean(all), 3)});
    }
    table.print(std::cout);
    std::cout << "\nExpected shape (paper section 7.4): speedup rises"
                 " with size, then flattens or dips — larger tables\n"
                 "are not automatically better for a learning"
                 " prefetcher.\n";
    return 0;
}
