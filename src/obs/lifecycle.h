/**
 * @file
 * Per-prefetch lifecycle tracker — the observability layer's core.
 *
 * Every prefetch the hierarchy actually dispatches gets a monotonically
 * assigned id and an active record keyed by line address; the record is
 * carried from issue (with its scheduled fill cycle and whether it
 * reached L1 / DRAM) to its terminal event, where a classifier buckets
 * the lifecycle:
 *
 *  - Timely:    first demand touch found the line's data ready
 *  - Late:      demand arrived while the fill was still in flight
 *               (the prefetch merged with the demand miss)
 *  - Early:     the line was evicted before any demand use
 *  - Redundant: the target was already cached or already in flight
 *  - Useless:   issued but never referenced by the end of the run
 *  - Dropped:   refused at issue under MSHR pressure
 *
 * The tracker is attached to a Hierarchy through a single pointer; the
 * hot path pays one null check when it is absent and the simulation's
 * RunStats never depend on it. On top of the raw classes it keeps the
 * paper's Fig-10/11 attribution inputs — per-issuing-PC
 * accuracy/timeliness and per-demand-PC coverage — and renders them as
 * autopsy CSV/JSON tables. With a TraceEventWriter attached it also
 * emits each (1-in-N sampled) lifecycle as a Perfetto async span,
 * demand misses as instant events, and MSHR occupancy as a counter
 * track sampled on every observation tick.
 */

#ifndef CSP_OBS_LIFECYCLE_H
#define CSP_OBS_LIFECYCLE_H

#include <array>
#include <cstdint>
#include <iosfwd>
#include <string>

#include "core/flat_map.h"
#include "core/types.h"
#include "obs/run_observer.h"

namespace csp::obs {

class TraceEventWriter;

/** Terminal classification of one prefetch lifecycle. */
enum class PrefetchClass : std::uint8_t
{
    Timely,    ///< demand hit with data ready
    Late,      ///< demand merged with the in-flight fill
    Early,     ///< evicted before any demand use
    Redundant, ///< target already cached or in flight
    Useless,   ///< never referenced by end of run
    Dropped,   ///< refused at issue (MSHR pressure)
    Count,
};

/** Human-readable label ("timely", "late", ...). */
const char *prefetchClassName(PrefetchClass cls);

/** See file comment. */
class PrefetchTracker
{
  public:
    /** @param events optional Perfetto sink (null: autopsy only).
     *  @param sample_every emit 1 in N lifecycles/instants (min 1). */
    explicit PrefetchTracker(TraceEventWriter *events = nullptr,
                             std::uint64_t sample_every = 1);

    // ---- hooks called by mem::Hierarchy ------------------------------
    /** A prefetch was dispatched; a lifecycle record opens. If the line
     *  already has an in-flight lifecycle the new request is classified
     *  Redundant instead. */
    void onIssued(Addr line, Addr pc, Cycle issue, Cycle fill,
                  bool to_l1, bool to_memory);

    /** Prefetch elided: the target was already cached or in flight. */
    void onRedundant(Addr line, Addr pc, Cycle now);

    /** Prefetch refused under MSHR pressure. */
    void onDropped(Addr line, Addr pc, Cycle now);

    /** First demand touch of a tracked line: Timely when the data was
     *  @p ready, Late when the fill was still in flight. */
    void onDemandUse(Addr line, Addr demand_pc, Cycle now, bool ready);

    /** A never-used prefetched line was displaced. */
    void onEvictedUnused(Addr line, Cycle now);

    /** A demand access missed L1 (includes in-flight MSHR hits) —
     *  the coverage denominator and the demand instant-event feed. */
    void onDemandMiss(Addr line, Addr pc, Cycle now, bool to_memory);

    // ---- hook called by the simulator -------------------------------
    /** One observation tick: an "mshr" counter sample (L1/L2 MSHRs
     *  busy, prefetches in flight) when a Perfetto sink is attached. */
    void onTick(const Tick &tick);

    /** Close every still-active lifecycle as Useless (end of run). */
    void finish(Cycle now);

    // ---- results -----------------------------------------------------
    std::uint64_t issued() const { return issued_; }
    std::uint64_t attempts() const { return attempts_; }
    std::uint64_t demandMisses() const { return demand_misses_; }

    std::uint64_t
    classCount(PrefetchClass cls) const
    {
        return classes_[static_cast<std::size_t>(cls)];
    }

    /** Lifecycles that served a demand access (timely + late). */
    std::uint64_t covered() const;

    /** covered / issued — the paper's prefetch accuracy. */
    double accuracy() const;

    /** timely / covered — how often a useful prefetch was fully
     *  ahead of its demand. */
    double timeliness() const;

    /** covered / (timely + demand L1 misses): the fraction of
     *  would-have-missed accesses a prefetch served. Timely hits are
     *  added back to the denominator because they never count as L1
     *  misses, while Late hits already do. */
    double coverage() const;

    /**
     * Autopsy table as CSV: a "total" row, then per-issuing-PC rows
     * (accuracy/timeliness attribution) and per-demand-PC rows
     * (coverage attribution), PCs ascending. @p label fills the first
     * column (typically the prefetcher name).
     */
    void writeAutopsyCsv(std::ostream &out,
                         const std::string &label) const;

    /** Same table as one JSON object. */
    void writeAutopsyJson(std::ostream &out,
                          const std::string &label) const;

  private:
    struct Lifecycle
    {
        std::uint64_t id = 0;
        Addr pc = 0;
        Cycle issue = 0;
        Cycle fill = 0;
        bool to_l1 = false;
        bool to_memory = false;
    };

    /** Per-issuing-PC attribution row. */
    struct IssuerRow
    {
        std::uint64_t attempts = 0;
        std::uint64_t issued = 0;
        std::array<std::uint64_t,
                   static_cast<std::size_t>(PrefetchClass::Count)>
            classes{};
    };

    /** Per-demand-PC coverage row. */
    struct DemandRow
    {
        std::uint64_t misses = 0;
        std::uint64_t covered_timely = 0;
        std::uint64_t covered_late = 0;
    };

    /** Count a terminal event against an open lifecycle record and
     *  close its span. */
    void closeLifecycle(const Lifecycle &record, PrefetchClass cls,
                        Cycle now);

    /** Count a lifecycle that terminates at issue time. */
    void classifyAtIssue(Addr line, Addr pc, PrefetchClass cls,
                         Cycle now);

    bool sampled(std::uint64_t n) const { return n % sample_every_ == 0; }

    FlatMap<Addr, Lifecycle> active_; ///< in-flight, by line
    FlatMap<Addr, IssuerRow> by_issuer_pc_;
    FlatMap<Addr, DemandRow> by_demand_pc_;
    std::array<std::uint64_t,
               static_cast<std::size_t>(PrefetchClass::Count)>
        classes_{};
    std::uint64_t next_id_ = 0;
    std::uint64_t issued_ = 0;
    std::uint64_t attempts_ = 0;
    std::uint64_t demand_misses_ = 0;

    TraceEventWriter *events_;
    std::uint64_t sample_every_;
};

} // namespace csp::obs

#endif // CSP_OBS_LIFECYCLE_H
