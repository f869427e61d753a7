/**
 * @file
 * Experiment runner: prefetcher construction by name, the sweep engine
 * over a grid of cells (each distinct trace generated once, each
 * distinct cell simulated once), speedup/geomean helpers, and the
 * benchmark groupings the paper's figures use. bench/ runs the grids
 * of the selected figures through one runSweep.
 */

#ifndef CSP_SIM_EXPERIMENT_H
#define CSP_SIM_EXPERIMENT_H

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/config.h"
#include "core/run_manifest.h"
#include "prefetch/prefetcher.h"
#include "sim/simulator.h"
#include "workloads/registry.h"

namespace csp::obs {
class LearningRecorder;
class MemRecorder;
class PrefetchTracker;
} // namespace csp::obs

namespace csp::sim {

class SweepEventJournal;

/**
 * Build a prefetcher by name: one of paperPrefetchers() ("none",
 * "stride", "ghb-gdc", "ghb-pcdc", "sms", "context"). fatal() on
 * unknown names.
 */
std::unique_ptr<prefetch::Prefetcher>
makePrefetcher(const std::string &name, const SystemConfig &config);

/** The paper's evaluated lineup (Figures 9-12), baseline first. */
std::vector<std::string> paperPrefetchers();

/** The paper's benchmark groupings. */
std::vector<std::string> ubenchWorkloads();
std::vector<std::string> specWorkloads();
std::vector<std::string> irregularWorkloads();
std::vector<std::string> allWorkloads();

/**
 * Effective workload scale: the compiled-in default, scaled by the
 * CSP_SCALE environment variable when set (a multiplier, e.g.
 * CSP_SCALE=4 quadruples every trace). A value that is not wholly a
 * finite positive number, or whose product overflows, is ignored with
 * a warning.
 */
std::uint64_t effectiveScale(std::uint64_t base);

/** One cell of a sweep grid: @p workload's trace generated with
 *  @p params, replayed on @p config by makePrefetcher(@p prefetcher). */
struct SweepCell
{
    std::string workload;
    workloads::WorkloadParams params;
    SystemConfig config;
    std::string prefetcher;
    /** When set, the cell's observer sinks stream a Chrome trace-event
     *  (Perfetto) timeline into this file live during the run. Cells
     *  sharing a CellKey share one simulation, which writes the first
     *  such cell's file. */
    std::string trace_events = {};
};

/**
 * What the observer sinks of one simulated, observed cell recorded
 * (see SweepOptions::observe). Each member is empty or null unless its
 * sink was attached.
 */
struct CellOutputs
{
    CellOutputs();
    ~CellOutputs();

    stats::Report report;       ///< kObserveStats, stats_filter applied
    stats::TimeSeries series;   ///< kObserveStats with stats_interval
    std::unique_ptr<obs::PrefetchTracker> tracker;   ///< kObserveTracker
    std::unique_ptr<obs::LearningRecorder> learner;  ///< kObserveLearn
    std::unique_ptr<obs::MemRecorder> memrec;        ///< kObserveMem
    std::uint64_t trace_digest = 0; ///< content digest of the cell's trace
};

/** The outcome of one SweepCell. */
struct CellResult
{
    std::string workload;
    std::string prefetcher;
    RunStats stats;
    /** What the cell's observers recorded; null for unobserved and
     *  cached cells. Cells sharing a simulation share one. */
    std::shared_ptr<const CellOutputs> outputs = {};
};

/** Result of a sweep: cells[i] answers the grid's i-th cell (a cross
 *  product's are row-major by workload). */
struct SweepResult
{
    /** Distinct workload and prefetcher names, first-appearance order. */
    std::vector<std::string> workload_names;
    std::vector<std::string> prefetcher_names;
    std::vector<CellResult> cells;

    // Cache accounting: how the cells were obtained. Cached and
    // simulated counts cover distinct cells (one per simulation).
    std::uint64_t cells_cached = 0;
    std::uint64_t cells_simulated = 0;
    std::uint64_t trace_cache_hits = 0; ///< trace summaries from the memo
    std::uint64_t traces_generated = 0; ///< workload traces generated
    // Warm-path cost attribution, summed over the cached cells (see
    // ResultCache::LoadStats). Side-band telemetry like the manifest's
    // timing block: never part of the deterministic cell data, carried
    // in the artefact's cache block.
    std::uint64_t cache_read_ns = 0;
    std::uint64_t cache_parse_ns = 0;
    std::uint64_t cache_entry_bytes = 0;
    std::uint64_t cache_verify_failures = 0;
    /**
     * Provenance of the sweep: build + the first cell's config digest,
     * seed, scale and placement (the whole sweep's, for a cross
     * product), the combined content digest of every distinct trace,
     * and the trace-gen/simulate wall-clock. Embed it beside sweep
     * numbers in a file; never part of the deterministic cell data.
     */
    RunManifest manifest;

    const RunStats &at(const std::string &workload,
                       const std::string &prefetcher) const;

    /** IPC speedup of @p prefetcher over "none" for @p workload. */
    double speedup(const std::string &workload,
                   const std::string &prefetcher) const;
};

/** The per-cell observer sinks SweepOptions::observe can attach. */
enum ObserveSink : unsigned
{
    kObserveTracker = 1u << 0, ///< lifecycle tracker (autopsy)
    kObserveLearn = 1u << 1,   ///< learning recorder, a snapshot per tick
    kObserveMem = 1u << 2,     ///< memory recorder, a queue row per tick
    kObserveStats = 1u << 3,   ///< full stats report + interval series
};

/** Knobs for runSweep. */
struct SweepOptions
{
    /** Per-trace summary lines plus a SweepProgress heartbeat, labelled
     *  with the workload's name when the grid has only one. */
    bool verbose = true;
    /**
     * Worker threads simulating cells; 0 resolves through
     * ThreadPool::defaultJobs() (CSP_JOBS, else all hardware
     * threads). Results are bit-identical for every value.
     */
    unsigned jobs = 0;
    /**
     * Mask of ObserveSink bits: the sinks attached to every simulated
     * cell, returned in CellResult::outputs. An observed cell (a
     * nonzero mask, or a SweepCell::trace_events file) is always
     * simulated, never answered from the result cache, which holds only
     * RunStats; its stats are still stored there. Observed sweeps
     * produce RunStats bit-identical to unobserved ones.
     */
    unsigned observe = 0;
    /** Emit 1 in N lifecycle spans and RL instants to trace_events. */
    std::uint64_t trace_sample = 1;
    /** kObserveStats: sample interval stats every N instructions into
     *  CellOutputs::series (0 = no series); N is then every observer's
     *  tick grid too (see kTicksPerRun). */
    std::uint64_t stats_interval = 0;
    /** kObserveStats: keep only stats under this dotted prefix. */
    std::string stats_filter;
    /**
     * Memoize cells in the content-addressed result cache (see
     * result_cache.h): consult before simulating, store after. Off by
     * default at the library level so tests and benches measure real
     * simulation; the cspsim sweep front-end turns it on unless
     * --no-result-cache / CSP_RESULT_CACHE=0 says otherwise.
     */
    bool use_result_cache = false;
    /**
     * Memoize each generated trace's counts and content digest in
     * trace_cache_dir (TraceMemo, result_cache.h). A warm sweep keys
     * its cells from the memo and generates a trace only for cells
     * that miss the result cache. No trace is written to disk.
     */
    bool use_trace_cache = false;
    /** Result-cache directory; empty -> defaultResultCacheDir(). */
    std::string result_cache_dir;
    /** Trace-memo directory; empty -> defaultTraceCacheDir(). */
    std::string trace_cache_dir;
    /**
     * When non-null (and open), runSweep appends csp-events-v1
     * lifecycle events — sweep_start, trace_cache/trace_gen,
     * schedule, cell_start/cell_end, heartbeat, sweep_end
     * — to this journal (see sweep_events.h). Strictly side-band: the
     * journal observes the sweep but never alters scheduling or
     * results; sweeps with and without a journal are bit-identical
     * (enforced by test). The cspsim front-end owns open/close.
     */
    SweepEventJournal *journal = nullptr;
};

/**
 * Run every cell of @p grid. Cells with the same workload, scale, seed
 * and placement share one trace, generated once (traces in parallel);
 * cells with the same CellKey (trace, config digest, prefetcher) share
 * one simulation. Distinct cells run on @p options.jobs worker threads,
 * longest trace first, and each trace is freed after its last cell.
 * Every cell's RunStats is bit-identical to a direct Simulator::run of
 * it at any jobs count: parallelism and dedup never change results.
 *
 * With options.use_trace_cache, a memoized trace contributes only its
 * summary (content digest + counts) up front and is generated lazily
 * — only if one of its cells actually misses the result cache; with
 * options.use_result_cache, memoized cells are returned without any
 * simulation. A fully warm sweep therefore does zero trace-generation
 * and zero replay work while producing the same SweepResult cells
 * bit-for-bit (caching is invisible modulo manifest timing fields).
 */
SweepResult runSweep(const std::vector<SweepCell> &grid,
                     const SweepOptions &options = {});

/** Geometric mean of a value vector (empty -> 1.0). */
double geomean(const std::vector<double> &values);

} // namespace csp::sim

#endif // CSP_SIM_EXPERIMENT_H
