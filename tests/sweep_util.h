/** @file Cross-product sweep grids for tests. */

#ifndef CSP_TESTS_SWEEP_UTIL_H
#define CSP_TESTS_SWEEP_UTIL_H

#include <string>
#include <vector>

#include "sim/experiment.h"

namespace csp::sim {

/** Every workload against every prefetcher on one system: the grid of
 *  their cross product, row-major by workload. */
inline std::vector<SweepCell>
crossGrid(const std::vector<std::string> &workload_names,
          const std::vector<std::string> &prefetcher_names,
          const workloads::WorkloadParams &params,
          const SystemConfig &config)
{
    std::vector<SweepCell> grid;
    for (const std::string &workload : workload_names) {
        for (const std::string &prefetcher : prefetcher_names)
            grid.push_back({workload, params, config, prefetcher});
    }
    return grid;
}

} // namespace csp::sim

#endif // CSP_TESTS_SWEEP_UTIL_H
