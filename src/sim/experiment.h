/**
 * @file
 * Experiment runner: prefetcher construction by name, the sweep engine
 * over a grid of cells (each distinct trace generated once, each
 * distinct cell simulated once), speedup/geomean helpers, and the
 * benchmark groupings the paper's figures use. Every simulating bench/
 * binary but fig08 declares a grid and renders its result.
 */

#ifndef CSP_SIM_EXPERIMENT_H
#define CSP_SIM_EXPERIMENT_H

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/config.h"
#include "core/run_manifest.h"
#include "prefetch/prefetcher.h"
#include "sim/simulator.h"
#include "workloads/registry.h"

namespace csp::prof {
class Profiler;
}

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
 * CSP_SCALE=4 quadruples every trace).
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
};

/** The outcome of one SweepCell. */
struct CellResult
{
    std::string workload;
    std::string prefetcher;
    RunStats stats;
    /** False for cells a sharded sweep did not own (see
     *  SweepOptions::shard_count); their stats are default-valued. */
    bool present = false;
};

/** Result of a sweep: cells[i] answers the grid's i-th cell (a cross
 *  product's are row-major by workload). */
struct SweepResult
{
    /** Distinct workload and prefetcher names, first-appearance order. */
    std::vector<std::string> workload_names;
    std::vector<std::string> prefetcher_names;
    std::vector<CellResult> cells;

    // Scale-out accounting: how the cells were obtained. Cached and
    // simulated counts cover this shard's owned distinct cells only.
    std::uint64_t cells_cached = 0;
    std::uint64_t cells_simulated = 0;
    std::uint64_t trace_cache_hits = 0; ///< workload traces not regenerated
    // Warm-path cost attribution, summed over this shard's cached
    // cells (see ResultCache::LoadStats). Side-band telemetry like the
    // manifest's timing block: never part of the deterministic cell
    // data, carried in the artefact's cache block so cspmerge can sum
    // it and csptop can report it.
    std::uint64_t cache_read_ns = 0;
    std::uint64_t cache_parse_ns = 0;
    std::uint64_t cache_entry_bytes = 0;
    std::uint64_t cache_verify_failures = 0;
    unsigned shard_index = 0;
    unsigned shard_count = 1;
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

    /** Geometric-mean speedup of @p prefetcher over all workloads. */
    double geomeanSpeedup(const std::string &prefetcher) const;
};

/**
 * Mutex-guarded, wall-clock rate-limited progress reporter for one or
 * more cells running on several worker threads at once. Each cell
 * installs hook(cell) as its Simulator progress callback; updates from
 * all workers fold into one aggregate line (percent of total
 * instructions, simulated instructions per second, cells done) printed
 * via inform() at most once every 2 seconds, plus a final line when
 * the last cell completes.
 */
class SweepProgress
{
  public:
    /** @param cell_totals expected instruction count per cell. */
    SweepProgress(std::string label,
                  std::vector<std::uint64_t> cell_totals, unsigned jobs);

    /** The callback to pass to Simulator::setProgress() for @p cell. */
    Simulator::ProgressFn hook(std::size_t cell);

    /** Fold in cell progress; prints when the rate limit allows. */
    void update(std::size_t cell, std::uint64_t instructions);

    /** Mark @p cell finished; the last cell always prints. */
    void cellDone(std::size_t cell);

    /**
     * Mark @p cell satisfied from the result cache: its instructions
     * count as done instantly and the progress line grows a
     * "(N cached)" suffix distinguishing memoized cells from simulated
     * ones.
     */
    void cellCached(std::size_t cell);

    /**
     * Sharded sweeps own a subset of the grid: the final line prints
     * (and the cell denominator reads) @p expected instead of the full
     * cell count. Call before any worker reports.
     */
    void setExpectedCells(std::size_t expected);

    /**
     * Mirror every rate-limited report as a `heartbeat` journal event
     * (cells done/cached, instructions done/total, rate). Call before
     * any worker reports.
     */
    void setJournal(SweepEventJournal *journal);

    /**
     * Suppress the inform() lines while keeping journal heartbeats —
     * a non-verbose sweep with --events-out still records progress
     * without spamming stderr. Call before any worker reports.
     */
    void setPrint(bool print);

  private:
    void report();

    std::string label_;
    std::vector<std::uint64_t> totals_;
    std::vector<std::uint64_t> current_;
    std::uint64_t total_sum_ = 0;
    std::uint64_t done_sum_ = 0;
    std::size_t cells_done_ = 0;
    std::size_t cells_cached_ = 0;
    std::size_t expected_cells_ = 0;
    SweepEventJournal *journal_ = nullptr;
    bool print_ = true;
    unsigned jobs_;
    std::chrono::steady_clock::time_point start_;
    std::chrono::steady_clock::time_point last_;
    std::mutex mutex_;
};

/** The per-cell observer sinks SweepOptions::observe can attach. */
enum ObserveSink : unsigned
{
    kObserveTracker = 1u << 0, ///< lifecycle tracker, no Perfetto sink
    kObserveLearn = 1u << 1,   ///< learning recorder, final snapshot
    kObserveMem = 1u << 2,     ///< memory-hierarchy recorder
    kObserveProfile = 1u << 3, ///< self-profiler
};

/** Knobs for runSweep. */
struct SweepOptions
{
    /** Per-workload summary lines plus a SweepProgress heartbeat. */
    bool verbose = true;
    /**
     * Worker threads simulating cells; 0 resolves through
     * ThreadPool::defaultJobs() (CSP_JOBS, else all hardware
     * threads). Results are bit-identical for every value.
     */
    unsigned jobs = 0;
    /**
     * Mask of ObserveSink bits: the sinks attached to every simulated
     * cell, their results discarded. This knob exists so the
     * determinism tests can assert that observed sweeps produce
     * RunStats bit-identical to unobserved ones.
     */
    unsigned observe = 0;
    /**
     * Memoize cells in the content-addressed result cache (see
     * result_cache.h): consult before simulating, store after. Off by
     * default at the library level so tests and benches measure real
     * simulation; the cspsim sweep front-end turns it on unless
     * --no-result-cache / CSP_RESULT_CACHE=0 says otherwise.
     */
    bool use_result_cache = false;
    /**
     * Persist generated workload traces as
     * <trace_cache_dir>/<key>.csptrace and reuse them across runs. A
     * warm sweep reads only each file's header (content digest) up
     * front and maps the payload lazily, only for cells that miss the
     * result cache.
     */
    bool use_trace_cache = false;
    /** Result-cache directory; empty -> defaultResultCacheDir(). */
    std::string result_cache_dir;
    /** Trace-cache directory; empty -> defaultTraceCacheDir(). */
    std::string trace_cache_dir;
    /**
     * Deterministic 1-of-N partition of the sweep grid: this process
     * owns every distinct cell whose rank in the global longest-trace-
     * first order is shard_index mod shard_count. Non-owned cells come
     * back with present=false; cspmerge reassembles the full matrix
     * bit-identically. shard_count=1 owns everything.
     */
    unsigned shard_index = 0;
    unsigned shard_count = 1;
    /**
     * When set, every cell's phase timings (and trace generation) are
     * merged into this aggregate profiler. The warm-sweep tests use it
     * to assert a fully cached run does zero simulation work: Replay /
     * MemAccess / TraceGen call counts stay 0.
     */
    prof::Profiler *profiler_sink = nullptr;
    /**
     * When non-null (and open), runSweep appends csp-events-v1
     * lifecycle events — sweep_start, trace_cache/trace_gen/
     * trace_load, schedule, cell_start/cell_end, heartbeat, sweep_end
     * — to this journal (see sweep_events.h). Strictly side-band: the
     * journal observes the sweep but never alters scheduling or
     * results; sweeps with and without a journal are bit-identical
     * (enforced by test). runSweep stamps the journal with
     * shard_index; the cspsim front-end owns open/close.
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
 * With options.use_trace_cache, a cached trace contributes only its
 * header (content digest + counts) up front and is materialised lazily
 * — only if one of its cells actually misses the result cache; with
 * options.use_result_cache, memoized cells are returned without any
 * simulation. A fully warm sweep therefore does zero trace-generation
 * and zero replay work while producing the same SweepResult cells
 * bit-for-bit (caching is invisible modulo manifest timing fields).
 */
SweepResult runSweep(const std::vector<SweepCell> &grid,
                     const SweepOptions &options = {});

/** Every workload against every prefetcher on one system: the grid
 *  of their cross product, row-major by workload. */
SweepResult runSweep(const std::vector<std::string> &workload_names,
                     const std::vector<std::string> &prefetcher_names,
                     const workloads::WorkloadParams &params,
                     const SystemConfig &config,
                     const SweepOptions &options = {});

/** Geometric mean of a value vector (empty -> 1.0). */
double geomean(const std::vector<double> &values);

} // namespace csp::sim

#endif // CSP_SIM_EXPERIMENT_H
