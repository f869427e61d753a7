/** @file Ablation study of the context prefetcher's design choices
 *  (DESIGN.md section 4): reward shape, adaptive reducer, exploration,
 *  software hints, and history-queue sampling density. Each variant
 *  runs the focused workload set; rows report geomean speedup over
 *  no-prefetching. */

#include <iostream>

#include "bench_common.h"

int
main(int argc, char **argv)
{
    using namespace csp;
    bench::banner("Context prefetcher ablations (geomean speedup)",
                  "DESIGN.md section 4; paper sections 4.1-4.4");
    const std::vector<std::string> workload_names = {
        "list", "listsort", "maptest", "prim", "graph500-list",
        "mcf",  "omnetpp",  "lbm",     "array", "astar", "KNN"};

    // Each variant is the paper's system with one context-prefetcher
    // edit.
    const SystemConfig config;
    std::vector<std::pair<std::string, SystemConfig>> variants;
    const auto variant = [&](const char *name, auto edit) {
        variants.emplace_back(name, config);
        edit(variants.back().second.context);
    };
    variant("full (paper)", [](ContextPrefetcherConfig &) {});
    variant("no negative rewards", [](ContextPrefetcherConfig &c) {
        c.negative_rewards = false;
    });
    variant("flat reward (no bell)", [](ContextPrefetcherConfig &c) {
        c.reward.peak_reward = 4;
        c.reward.window_center =
            (c.reward.window_lo + c.reward.window_hi) / 2;
    });
    variant("static reducer (no adaptation)",
            [](ContextPrefetcherConfig &c) { c.adaptive_reducer = false; });
    variant("no exploration (greedy only)",
            [](ContextPrefetcherConfig &c) { c.exploration = false; });
    variant("hardware-only context (no hints)",
            [](ContextPrefetcherConfig &c) { c.software_hints = false; });
    variant("softmax exploration (sec. 8 ext.)",
            [](ContextPrefetcherConfig &c) { c.softmax_exploration = true; });
    variant("narrow reward window (24-40)",
            [](ContextPrefetcherConfig &c) {
                c.reward.window_lo = 24;
                c.reward.window_hi = 40;
                c.reward.window_center = 32;
            });
    variant("conservative dispatch threshold (6)",
            [](ContextPrefetcherConfig &c) { c.real_score_threshold = 6; });

    const workloads::WorkloadParams params =
        bench::benchParams(bench::sweepScale());
    // Cell w is workload w's baseline; cell (v + 1) * W + w is
    // variant v on workload w.
    std::vector<sim::SweepCell> grid;
    for (const auto &name : workload_names)
        grid.push_back({name, params, config, "none"});
    for (const auto &[variant_name, varied] : variants) {
        for (const auto &name : workload_names)
            grid.push_back({name, params, varied, "context"});
    }
    const sim::SweepResult result =
        sim::runSweep(grid, bench::sweepOptions(argc, argv));
    const std::size_t n_workloads = workload_names.size();

    sim::Table table({"variant", "geomean speedup", "worst workload",
                      "worst speedup"});
    for (std::size_t v = 0; v < variants.size(); ++v) {
        std::vector<double> speedups;
        std::string worst_name;
        double worst = 1e9;
        for (std::size_t w = 0; w < workload_names.size(); ++w) {
            const double s =
                bench::speedup(result, (v + 1) * n_workloads + w, w);
            speedups.push_back(s);
            if (s < worst) {
                worst = s;
                worst_name = workload_names[w];
            }
        }
        table.addRow({variants[v].first,
                      sim::Table::num(sim::geomean(speedups), 3),
                      worst_name, sim::Table::num(worst, 3)});
    }
    table.print(std::cout);
    std::cout << "\nThe full configuration should dominate or match"
                 " every ablated variant on the geomean.\n";
    return 0;
}
