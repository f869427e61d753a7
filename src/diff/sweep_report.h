/**
 * @file
 * Sweep-journal readers and renderers behind `csptop`: parse a
 * csp-events-v1 JSONL journal (one flattened JSON object per line —
 * see src/sim/sweep_events.h for the event vocabulary), and render
 * either a post-hoc summary (cache hit rate, exact per-cell
 * p50/p90/p99, per-workload timing, straggler/critical-path table,
 * per-worker utilisation, warm-path read/parse attribution) or a
 * live status snapshot (per-worker current cell, progress, ETA) for
 * follow mode.
 *
 * Lives in csp_diff, not csp_sim: the renderers only ever see the
 * journal bytes, so csptop links the same light library cspdiff and
 * csplearn do. Output is deterministic for a given journal (fixed
 * precision, every timestamp comes from the file, never from the
 * clock), so summaries can be golden-tested.
 */

#ifndef CSP_DIFF_SWEEP_REPORT_H
#define CSP_DIFF_SWEEP_REPORT_H

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "diff/csp_diff.h"

namespace csp::diff {

/** One parsed journal line. */
struct SweepEvent
{
    std::string type;       ///< "sweep_start", "cell_end", ...
    std::uint64_t t_ns = 0; ///< monotonic ns since the journal opened
    std::uint64_t seq = 0;  ///< per-journal emission index
    FlatDoc doc;            ///< every field, flattened

    /** Integer field (full uint64 precision), @p fallback if absent
     *  or non-numeric. */
    std::uint64_t u64(const std::string &key,
                      std::uint64_t fallback = 0) const;
    /** String field, "" when absent. */
    std::string text(const std::string &key) const;
};

/** A parsed journal: events in file order. */
struct SweepJournal
{
    std::vector<SweepEvent> events;

    const SweepEvent *first(const std::string &type) const;
    const SweepEvent *last(const std::string &type) const;
};

/** What a sweep_start event says was swept. */
struct JournalIdentity
{
    std::string config_digest;
    std::uint64_t seed = 0;
    std::uint64_t scale = 0;
    std::string placement;
    std::string workloads;
    std::string prefetchers;
};

/**
 * Parse journal @p text (JSONL) and check every csp-events-v1 rule;
 * false with *error naming the first broken one (with its 1-based line
 * where one line breaks it). Each line is a JSON object with event and
 * unsigned t_ns/seq, of a known event type carrying that type's keys
 * (cell_end's source is cached or simulated, trace digests are
 * non-empty). A journal holds one sweep: seq strictly increases, t_ns
 * never decreases, only the first event may be a sweep_start,
 * cell_start/cell_end pair up by cell id, only evict and one
 * cache_trim follow sweep_end, and the sweep_end and cache_trim
 * roll-ups match the events they count. A partial journal (no
 * sweep_end yet, or no sweep_start) still parses.
 */
bool parseJournal(const std::string &text, SweepJournal &out,
                  std::string *error);

/**
 * Extract the identity from @p journal's first sweep_start event.
 * False with *error when the journal has none (not a sweep journal).
 */
bool journalIdentity(const SweepJournal &journal, JournalIdentity &out,
                     std::string *error);

struct SweepReportOptions
{
    /** Rows in the straggler (longest-cells) table. */
    std::size_t max_stragglers = 8;
    /** Rows in the per-workload table. */
    std::size_t max_workloads = 24;
};

/**
 * Post-hoc report over a complete journal: identity,
 * cache hit rate, exact per-cell duration percentiles split
 * cached/simulated, warm-path read/parse attribution, per-workload
 * table, stragglers, per-worker utilisation, evictions. Handles
 * journals without a sweep_end (reports what it can). False with
 * *error only when @p journal has no sweep_start.
 */
bool renderSweepSummary(const SweepJournal &journal, std::ostream &out,
                        std::string *error,
                        const SweepReportOptions &options = {});

/**
 * Live status snapshot for follow mode: progress (cells, insts, rate
 * from the last heartbeat or from completed cells), ETA against the
 * longest-first schedule's instruction total, per-worker
 * current cell with its running time, cache hits so far. "now" is the
 * latest t_ns in the journal, so the output is a pure function of the
 * bytes read. False with *error when @p journal has no sweep_start.
 */
bool renderSweepStatus(const SweepJournal &journal, std::ostream &out,
                       std::string *error);

} // namespace csp::diff

#endif // CSP_DIFF_SWEEP_REPORT_H
