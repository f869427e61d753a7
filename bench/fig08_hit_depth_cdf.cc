/** @file Regenerates paper Figure 8: cumulative distribution of
 *  prefetch hit depths (accesses between prediction and demand) for
 *  the µbenchmarks (top) and a subset of regular benchmarks (bottom).
 *  Values of P at depth N mean P% of predictions were demanded within
 *  N accesses; the reward window is 18-50. */

#include <iostream>

#include "bench_common.h"
#include "core/thread_pool.h"
#include "workloads/registry.h"

namespace {

// The one bench that calls Simulator directly instead of declaring a
// sweep grid: the hit-depth histogram lives on the prefetcher, not in
// RunStats, and RunStats must not grow to carry it because
// writeSweepCsv emits every field and the benchmark pins those bytes.
void
cdfTable(const std::vector<std::string> &workloads,
         const char *group_name, unsigned jobs)
{
    using namespace csp;
    std::cout << "\n--- " << group_name << " ---\n";
    const std::vector<unsigned> depth_points = {4,  8,  12, 17, 24,
                                                32, 40, 50, 64, 127};
    std::vector<std::string> headers = {"benchmark"};
    for (unsigned d : depth_points)
        headers.push_back("<=" + std::to_string(d));
    sim::Table table(headers);

    SystemConfig config;
    workloads::WorkloadParams params =
        bench::benchParams(csp::bench::sweepScale());
    std::vector<std::vector<std::string>> rows(workloads.size());
    ThreadPool pool(jobs);
    pool.parallelFor(workloads.size(), [&](std::size_t i) {
        const trace::TraceBuffer trace =
            workloads::Registry::builtin().create(workloads[i])->generate(
                params);
        auto prefetcher = sim::makePrefetcher("context", config);
        sim::Simulator simulator(config);
        simulator.run(trace, *prefetcher);
        const Histogram *depths = prefetcher->hitDepths();
        rows[i] = {workloads[i]};
        for (unsigned d : depth_points) {
            rows[i].push_back(sim::Table::num(
                100.0 * (depths != nullptr ? depths->cdfAt(d) : 0.0),
                1));
        }
    });
    for (const auto &row : rows)
        table.addRow(row);
    table.print(std::cout);
}

} // namespace

int
main(int argc, char **argv)
{
    csp::bench::banner(
        "Cumulative distribution of prefetch hit depths (%)",
        "paper Figure 8; reward window 18-50");
    cdfTable({"array", "list", "listsort", "bst", "hashtest",
              "maptest", "prim", "ssca_lds", "graph500-list"},
             "ubenchmarks", csp::bench::jobsArg(argc, argv));
    cdfTable({"lbm", "libquantum", "mcf", "omnetpp", "sphinx3",
              "h264ref", "milc"},
             "regular benchmarks", csp::bench::jobsArg(argc, argv));
    std::cout << "\nExpected shape: a visible step beginning at depth"
                 " ~18 (the positive reward window); input-dependent\n"
                 "lookup benchmarks (maptest, hashtest, bst) show the"
                 " weakest concentration (paper section 7.1).\n";
    return 0;
}
