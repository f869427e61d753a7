/**
 * @file
 * The simulator driver: wires the core timing model, the cache
 * hierarchy and a prefetcher together and replays a workload trace in
 * program order, producing the statistics every evaluation figure is
 * built from — IPC (Figure 12), L1/L2 MPKI (Figures 10/11), the
 * per-access benefit classification (Figure 9) and the prefetcher's
 * hit-depth distribution (Figure 8).
 */

#ifndef CSP_SIM_SIMULATOR_H
#define CSP_SIM_SIMULATOR_H

#include <array>
#include <cstdint>
#include <functional>
#include <string>

#include "core/config.h"
#include "core/stats.h"
#include "core/stats_registry.h"
#include "mem/hierarchy.h"
#include "prefetch/prefetcher.h"
#include "trace/trace.h"

namespace csp::obs {
struct RunObserver;
}

namespace csp::trace {
class MappedTrace;
}

namespace csp::sim {

/** Per-access benefit categories of paper Figure 9. */
enum class AccessClass : std::uint8_t
{
    HitPrefetchedLine, ///< demand hit the cache because of a prefetch
    ShorterWait,       ///< missed, but an ongoing prefetch cut the wait
    NonTimely,         ///< predicted, but no request issued before demand
    MissNotPrefetched, ///< missed and never predicted
    HitOlderDemand,    ///< plain cache hit, no prefetch needed
    Count,
};

/** Human-readable label for an AccessClass. */
const char *accessClassName(AccessClass cls);

/** Everything one simulation run produces. */
struct RunStats
{
    std::uint64_t instructions = 0;
    Cycle cycles = 0;
    std::uint64_t demand_accesses = 0;
    std::uint64_t l1_misses = 0;
    std::uint64_t l2_demand_misses = 0;
    std::array<std::uint64_t, static_cast<std::size_t>(
                                  AccessClass::Count)>
        classes{};
    /// Wrong prefetches (issued, never used) — plotted above 100% in
    /// Figure 9.
    std::uint64_t prefetch_never_hit = 0;
    mem::HierarchyStats hierarchy;

    double
    ipc() const
    {
        return cycles == 0 ? 0.0
                           : static_cast<double>(instructions) /
                                 static_cast<double>(cycles);
    }

    double cpi() const { return ipc() == 0.0 ? 0.0 : 1.0 / ipc(); }

    double
    l1Mpki() const
    {
        return instructions == 0
                   ? 0.0
                   : 1000.0 * static_cast<double>(l1_misses) /
                         static_cast<double>(instructions);
    }

    double
    l2Mpki() const
    {
        return instructions == 0
                   ? 0.0
                   : 1000.0 * static_cast<double>(l2_demand_misses) /
                         static_cast<double>(instructions);
    }

    std::uint64_t
    classCount(AccessClass cls) const
    {
        return classes[static_cast<std::size_t>(cls)];
    }

    /** Fraction of demand accesses in @p cls. */
    double classFraction(AccessClass cls) const;

    /** Memory operations per instruction. */
    double
    memFraction() const
    {
        return instructions == 0
                   ? 0.0
                   : static_cast<double>(demand_accesses) /
                         static_cast<double>(instructions);
    }

    /** Demand L2 miss rate relative to L1 misses. */
    double
    l2MissRate() const
    {
        return l1_misses == 0
                   ? 0.0
                   : static_cast<double>(l2_demand_misses) /
                         static_cast<double>(l1_misses);
    }

    /**
     * The paper's target prefetch distance (section 4.3), in memory
     * accesses:
     *   distance = L1 miss penalty * IPC * Prob(mem op)
     * with L1 miss penalty = L2 latency + L2 miss rate * DRAM latency.
     * The paper reports 10-90 accesses across workloads, average ~30 —
     * the number the reward window is centred on.
     */
    double targetPrefetchDistance(const MemoryConfig &memory) const;

    /** Key metrics as a single-line JSON object (tool integration). */
    std::string toJson() const;
};

/**
 * Observation ticks per run when no stats interval is set: the grid is
 * then max(1, trace instructions / kTicksPerRun). Every periodic
 * observation (interval stats row, learning snapshot, queue timeline,
 * Perfetto counter tracks, progress) fires on this one grid.
 */
inline constexpr std::uint64_t kTicksPerRun = 64;

/** See file comment. */
class Simulator
{
  public:
    /** Progress hook: called with instructions retired so far. */
    using ProgressFn = std::function<void(std::uint64_t)>;

    explicit Simulator(const SystemConfig &config);

    /**
     * Enable interval stats sampling for subsequent run() calls: one
     * time-series row every @p interval_insts instructions (0 disables,
     * the default), keeping only columns under the dotted prefix
     * @p filter (empty keeps all). A nonzero interval is also the
     * run's observation grid (see kTicksPerRun). Read the result via
     * lastSeries().
     */
    void setSampling(std::uint64_t interval_insts,
                     const std::string &filter = "");

    /** Dotted-prefix filter applied to lastReport() (dump export). */
    void setReportFilter(const std::string &filter);

    /**
     * Install a progress hook called on every observation tick of
     * run(): about kTicksPerRun times per run, or once per stats
     * interval when one is set (an empty hook, the default, disables
     * it).
     */
    void setProgress(ProgressFn fn);

    /**
     * Attach an observability bundle (lifecycle tracker, learning and
     * memory observers) for subsequent run() calls; nullptr (the
     * default) detaches it. Each run hands the bundle, with the run's
     * layer ledger added, to the hierarchy and the prefetcher and
     * detaches it at the end, so the prefetcher may outlive the run.
     * Every sink is null-checked where it fires; results are
     * bit-identical either way. The bundle and its sinks must outlive
     * the run() call.
     */
    void setObserver(const obs::RunObserver *observer)
    {
        observer_ = observer;
    }

    /** Replay @p trace through @p prefetcher; returns the run's stats. */
    RunStats run(const trace::TraceBuffer &trace,
                 prefetch::Prefetcher &prefetcher);

    /**
     * Replay an mmap'd on-disk packed trace (trace_io). Streams through
     * a windowed StreamingTraceSource, so peak RSS stays near the
     * window size no matter the trace's on-disk size; results are bit
     * identical to replaying the equivalent in-memory TraceBuffer.
     */
    RunStats run(const trace::MappedTrace &trace,
                 prefetch::Prefetcher &prefetcher);

    /** Full hierarchical stats of the most recent run() (all registered
     *  counters/gauges/distributions/formulas, filter applied). */
    const stats::Report &lastReport() const { return last_report_; }

    /** Interval time-series of the most recent run() — empty unless
     *  setSampling() enabled sampling. */
    const stats::TimeSeries &lastSeries() const { return last_series_; }

  private:
    /** The replay loop, with its layer ledger (core/profiling.h), over
     *  a TraceCursor or StreamingTraceSource; @p instructions is the
     *  source's total, which sizes the observation grid. */
    template <typename Source>
    RunStats runFrom(Source &source, std::uint64_t instructions,
                     prefetch::Prefetcher &prefetcher);

    SystemConfig config_;
    const obs::RunObserver *observer_ = nullptr;
    std::uint64_t stats_interval_ = 0;
    std::string stats_filter_;
    std::string report_filter_;
    ProgressFn progress_;
    stats::Report last_report_;
    stats::TimeSeries last_series_;
};

} // namespace csp::sim

#endif // CSP_SIM_SIMULATOR_H
