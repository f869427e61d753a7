/**
 * @file
 * Sweep observability: the csp-events-v1 JSONL journal and the
 * telemetry rolled up into its `sweep_end` event.
 *
 * A long sweep is a black box without a record of which cells ran on
 * which worker and why the caches hit or missed. `cspsim --events-out`
 * opens a SweepEventJournal and `runSweep` appends one JSON object per
 * line as the sweep progresses: `sweep_start` (identity + schedule
 * parameters), `trace_cache`/`trace_gen` (per-workload trace
 * provenance), `schedule` (the longest-first plan's cell and
 * instruction totals), `cell_start`/`cell_end` (worker attribution, duration,
 * cached-vs-simulated, cache read+parse time), rate-limited
 * `heartbeat` snapshots, and a `sweep_end` roll-up embedding a
 * stats-registry report (`sweep.*` / `cache.*` counters and
 * Log2Histograms). `cspsim` appends `evict`/`cache_trim` events after
 * the sweep when `--cache-max-bytes` trims the result cache.
 *
 * Two rules keep the journal honest:
 *
 *  - **Side-band only.** Nothing read from the journal ever feeds back
 *    into results; emission sites only observe values the sweep
 *    already computed. Sweeps with events on/off are bit-identical
 *    (enforced by tests/test_sweep_events.cc), which is why the events
 *    may carry wall-clock timings at all.
 *  - **Atomic lines** (the PR 2 logging discipline): each event is
 *    formatted into one buffer and appended with a single unbuffered
 *    fwrite under the journal mutex, so concurrent workers never
 *    interleave mid-line and a crashed sweep leaves a valid prefix.
 *    `t_ns` (monotonic since open) and `seq` are assigned under the
 *    same mutex, so both are nondecreasing within one journal file.
 */

#ifndef CSP_SIM_SWEEP_EVENTS_H
#define CSP_SIM_SWEEP_EVENTS_H

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <initializer_list>
#include <mutex>
#include <string>

#include "core/stats.h"

namespace csp::sim {

/** The journal line schema, stamped into every sweep_start event. */
inline constexpr const char *kSweepEventsSchema = "csp-events-v1";

/** See file comment. */
class SweepEventJournal
{
  public:
    SweepEventJournal() = default;
    ~SweepEventJournal();

    SweepEventJournal(const SweepEventJournal &) = delete;
    SweepEventJournal &operator=(const SweepEventJournal &) = delete;

    /**
     * Create (truncate) @p path and start the journal clock. False
     * with a warning on failure — an unwritable journal never fails
     * the sweep, it just records nothing.
     */
    bool open(const std::string &path);

    bool isOpen() const { return file_ != nullptr; }

    /** Flush and close; further emit() calls are ignored. */
    void close();

    /** One typed field of an event line. */
    struct Field
    {
        enum class Kind : std::uint8_t
        {
            U64, ///< unsigned integer, emitted bare
            Str, ///< string, emitted quoted + escaped
            Raw, ///< pre-rendered JSON value, emitted verbatim
        };
        const char *key = "";
        Kind kind = Kind::U64;
        std::uint64_t u = 0;
        std::string s;
    };
    static Field u64(const char *key, std::uint64_t value);
    static Field str(const char *key, std::string value);
    /** @p json must be a complete JSON value (object/array/number). */
    static Field raw(const char *key, std::string json);

    /**
     * Append `{"event":"<event>","t_ns":…,"seq":…,<fields>}`
     * as one atomic line. Safe from any thread; no-op when closed.
     */
    void emit(const char *event, std::initializer_list<Field> fields);

    /** Wall clock (unix epoch, ns) captured at open(). */
    std::uint64_t unixStartNs() const { return unix_start_ns_; }

    /** Monotonic ns since open() — the t_ns an event emitted now gets. */
    std::uint64_t elapsedNs() const;

  private:
    std::FILE *file_ = nullptr;
    std::mutex mutex_;
    std::uint64_t seq_ = 0;
    std::chrono::steady_clock::time_point start_{};
    std::uint64_t unix_start_ns_ = 0;
};

/**
 * The sweep_end roll-up: counters and fixed log2 histograms folded in
 * by runSweep's workers (caller provides the locking; runSweep folds
 * under its telemetry mutex). Rendered as a stats-registry report so
 * the journal's `stats` block has exactly the shape every other stats
 * export uses (nested JSON, dist summaries with p50/p90/p99+buckets).
 */
struct SweepTelemetry
{
    std::uint64_t cells_owned = 0;
    std::uint64_t cells_cached = 0;
    std::uint64_t cells_simulated = 0;
    std::uint64_t trace_cache_hits = 0;
    std::uint64_t traces_generated = 0;
    std::uint64_t cache_read_ns = 0;  ///< cached-entry file reads
    std::uint64_t cache_parse_ns = 0; ///< cached-entry JSON parse+verify
    std::uint64_t cache_entry_bytes = 0;
    std::uint64_t cache_verify_failures = 0;
    Log2Histogram cell_duration_ns{40};
    Log2Histogram cache_load_ns{40}; ///< per-entry read+parse
    Log2Histogram cache_entry_bytes_dist{32};

    /**
     * Single-line JSON of the roll-up under the `sweep.` / `cache.`
     * namespaces, via a stats::Registry report.
     */
    std::string statsJson() const;
};

} // namespace csp::sim

#endif // CSP_SIM_SWEEP_EVENTS_H
