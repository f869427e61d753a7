/**
 * @file
 * Sweep artefact serialization: the cell CSV `cspsim --workloads`
 * prints and the JSON artefact it writes with --sweep-out.
 *
 * Because cell stats are bit-identical however they were obtained
 * (simulated or memoized — the determinism contract), a warm sweep's
 * CSV is byte-identical to a cold one's; only the manifest's timing
 * block and the cache accounting may differ, which cspdiff classifies
 * as provenance.
 *
 * The JSON schema is "csp-sweep-v2": manifest, cache block (counts
 * plus warm-path read/parse attribution), then every cell in grid
 * order (row-major by workload for a cross product). No tool rebuilds
 * a sweep from it: scripts read its blocks, and cspdiff compares two
 * of them.
 */

#ifndef CSP_SIM_SWEEP_IO_H
#define CSP_SIM_SWEEP_IO_H

#include <iosfwd>

#include "sim/experiment.h"

namespace csp::sim {

/**
 * Write the sweep's cell matrix as CSV: a header row of
 * "workload,prefetcher,<every RunStats field>", then one row per cell
 * in grid order. All values are integers, so the bytes are a pure
 * function of the cell data.
 */
void writeSweepCsv(std::ostream &out, const SweepResult &result);

/** Write the full "csp-sweep-v2" JSON artefact (see file comment). */
void writeSweepJson(std::ostream &out, const SweepResult &result);

} // namespace csp::sim

#endif // CSP_SIM_SWEEP_IO_H
