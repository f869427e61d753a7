/**
 * @file
 * Run provenance: a manifest embedded in every stats JSON and sweep
 * CSV that records what produced the numbers — the build (git SHA,
 * build type, compiler, flags), the full resolved configuration as a
 * digest, the RNG seed, the workload trace's content digest, the host,
 * and wall-clock/throughput of the run itself.
 *
 * Two runs whose manifests agree on config_digest + trace_digest +
 * seed are replaying the same input through the same knobs, so every
 * correctness stat must match bit for bit; `cspdiff` uses exactly this
 * to decide whether a delta is drift or an intentional change.
 *
 * Everything here is deterministic except the host/timing block, which
 * is why cspdiff classifies `manifest.*` as informational and why the
 * manifest never appears on cspsim's stdout CSV (the serial-vs-parallel
 * byte-identical determinism contract covers stdout).
 */

#ifndef CSP_CORE_RUN_MANIFEST_H
#define CSP_CORE_RUN_MANIFEST_H

#include <cstdint>
#include <iosfwd>
#include <string>

#include "core/config.h"

namespace csp {

/**
 * Order-sensitive digest over every knob of @p config (all nested
 * structs, doubles by bit pattern). Any single-knob change produces a
 * different digest; the seed participates, so "same digest" means
 * "same deterministic run inputs modulo the trace itself".
 */
std::uint64_t configDigest(const SystemConfig &config);

/** 16-hex-digit rendering of a 64-bit digest. */
std::string hexDigest(std::uint64_t digest);

/**
 * @p text as the body of a JSON string: quotes, backslashes and control
 * characters escaped. The manifest and the sweep event journal write
 * every string through it, so a hostile workload or path name cannot
 * break a journal's one-object-per-line framing.
 */
std::string jsonEscape(const std::string &text);

/** See file comment. */
struct RunManifest
{
    std::string schema = "csp-run-manifest-v1";
    std::string tool; ///< producing binary ("cspsim", "runSweep", ...)

    // Build provenance (captured at configure time; the CSP_GIT_SHA
    // environment variable overrides the baked-in SHA so cached CI
    // builds still stamp the commit under test).
    std::string git_sha;
    bool git_dirty = false;
    std::string build_type;
    std::string compiler;
    std::string cxx_flags;

    // Run identity: enough to reproduce the run exactly.
    std::string config_digest; ///< hexDigest(configDigest(config))
    std::uint64_t seed = 0;
    std::string workloads;   ///< comma-joined workload names
    std::string prefetchers; ///< comma-joined prefetcher names
    std::uint64_t scale = 0;
    std::string placement; ///< "seq" or "rand"
    unsigned jobs = 0;     ///< resolved worker-thread count

    // Input-trace provenance (TraceBuffer::contentDigest over every
    // workload, combined in workload order for sweeps).
    std::string trace_digest;
    std::uint64_t trace_records = 0;
    std::uint64_t trace_instructions = 0;
    std::uint64_t trace_accesses = 0;

    // Host + wall-clock block — informational, never compared exactly.
    std::string hostname;
    std::string kernel;
    std::string arch;
    unsigned hw_threads = 0;
    std::string start_utc; ///< ISO-8601 UTC at manifest creation

    double trace_gen_seconds = 0.0;
    double sim_seconds = 0.0;
    double insts_per_sec = 0.0; ///< simulated instructions per second

    /** Render as a single-line JSON object. */
    std::string toJson() const;

    /** Write the manifest as one `# manifest <json>` CSV comment line
     *  (readers must skip lines starting with '#'). */
    void writeCsvComment(std::ostream &out) const;
};

/**
 * A manifest pre-filled with everything knowable before the run:
 * build provenance, config digest + seed, host info and start time.
 * Callers fill the workload/trace/timing fields as they learn them.
 */
RunManifest makeRunManifest(const std::string &tool,
                            const SystemConfig &config);

} // namespace csp

#endif // CSP_CORE_RUN_MANIFEST_H
