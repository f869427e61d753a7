/**
 * @file
 * Shared plumbing for the figure/table benchmark binaries: default
 * trace scale (overridable through CSP_SCALE), sweep options, a
 * speedup between two grid cells, and small printing helpers.
 *
 * Every binary regenerates one table or figure of the paper's
 * evaluation section; see DESIGN.md's per-experiment index.
 */

#ifndef CSP_BENCH_BENCH_COMMON_H
#define CSP_BENCH_BENCH_COMMON_H

#include <cstddef>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "core/logging.h"
#include "core/parse.h"
#include "sim/experiment.h"
#include "sim/table.h"

namespace csp::bench {

/**
 * Jobs knob shared by every bench binary: `--jobs N` (or `-j N`) on
 * the command line wins; 0 means "auto", which runSweep resolves as
 * CSP_JOBS when set, else every hardware thread. Results are
 * bit-identical for any value — parallelism only changes wall time.
 * A value that is not wholly an unsigned number is fatal and names
 * the flag.
 */
inline unsigned
jobsArg(int argc, char **argv)
{
    for (int i = 1; i + 1 < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--jobs" || arg == "-j") {
            unsigned jobs = 0;
            if (!parseUnsigned(argv[i + 1], jobs)) {
                fatal("%s wants an unsigned number, got '%s'",
                      arg.c_str(), argv[i + 1]);
            }
            return jobs;
        }
    }
    return 0;
}

/** Sweep options for a bench binary's runSweep call. */
inline sim::SweepOptions
sweepOptions(int argc, char **argv)
{
    sim::SweepOptions options;
    options.jobs = jobsArg(argc, argv);
    return options;
}

/** IPC of grid cell @p cell over IPC of grid cell @p baseline. */
inline double
speedup(const sim::SweepResult &result, std::size_t cell,
        std::size_t baseline)
{
    return result.cells[cell].stats.ipc() /
           result.cells[baseline].stats.ipc();
}

/** Default per-workload memory-access budget for full-suite sweeps. */
inline std::uint64_t
sweepScale()
{
    return sim::effectiveScale(250000);
}

/** Default budget for focused single-workload experiments. */
inline std::uint64_t
focusedScale()
{
    return sim::effectiveScale(400000);
}

/** Workload parameters used by all benches. */
inline workloads::WorkloadParams
benchParams(std::uint64_t scale)
{
    workloads::WorkloadParams params;
    params.scale = scale;
    params.seed = 1;
    return params;
}

/** Banner naming the figure/table a binary regenerates. */
inline void
banner(const std::string &title, const std::string &paper_ref)
{
    std::cout << "==============================================\n"
              << title << "\n(" << paper_ref << ")\n"
              << "==============================================\n";
}

} // namespace csp::bench

#endif // CSP_BENCH_BENCH_COMMON_H
