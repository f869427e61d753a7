/**
 * @file
 * Hierarchical named-statistics registry with interval sampling.
 *
 * Components register scalar counters, gauges, distributions and formula
 * stats under a dotted namespace ("sim.ipc", "mem.l1.misses",
 * "context.bandit.epsilon"). The registry never owns the hot-path
 * storage: counters are read through a pointer (or callback) only when a
 * snapshot is taken, so instrumentation costs nothing while the
 * simulation runs unsampled.
 *
 * Three consumers sit on top:
 *  - Registry::report() flattens the current values into an owned
 *    Report that survives component teardown (end-of-run dump);
 *  - Report::toJson() renders the dotted names as nested JSON objects
 *    (machine-readable export, --stats-out);
 *  - IntervalSampler snapshots the registry every N instructions into a
 *    TimeSeries of per-interval rows — counter columns hold interval
 *    deltas, gauge columns point samples, formula columns ratios of the
 *    interval deltas — written as CSV (--stats-interval).
 */

#ifndef CSP_CORE_STATS_REGISTRY_H
#define CSP_CORE_STATS_REGISTRY_H

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "core/stats.h"

namespace csp::stats {

/** What a registered stat measures. */
enum class Kind : std::uint8_t
{
    Counter,      ///< monotonic cumulative count (interval = delta)
    Gauge,        ///< instantaneous value (interval = point sample)
    Distribution, ///< sample distribution (count/mean/min/max)
    Formula,      ///< scale * numerator / denominator of other stats
};

/** Point-in-time summary of a distribution stat. */
struct DistSummary
{
    std::uint64_t count = 0;
    double mean = 0.0;
    double min = 0.0;
    double max = 0.0;
    /// Bucket-resolved percentiles, valid when has_percentiles is set
    /// (log2-bucket distributions only).
    bool has_percentiles = false;
    double p50 = 0.0;
    double p90 = 0.0;
    double p99 = 0.0;
    /// Per-bucket counts: a Histogram's uniform buckets, or a log2
    /// histogram's, where bucket i covers [2^(i-1), 2^i) and bucket 0
    /// holds 0. Exported only with has_percentiles (log2 histograms).
    std::vector<std::uint64_t> buckets;
};

/** One flattened stat value (owned, component-independent). */
struct ReportEntry
{
    std::string name;
    std::string desc;
    Kind kind = Kind::Counter;
    double value = 0.0; ///< scalar kinds; dist.mean for distributions
    DistSummary dist;   ///< valid when kind == Distribution
};

/**
 * Owned snapshot of every registered stat, taken at end of run. Safe to
 * keep after the instrumented components are destroyed.
 */
struct Report
{
    std::vector<ReportEntry> entries;

    /** The entry named @p name, null when there is none. */
    const ReportEntry *find(const std::string &name) const;

    bool contains(const std::string &name) const { return find(name); }

    /** Value of a scalar stat; panics on unknown names. */
    double value(const std::string &name) const;

    /** Entries as a nested JSON object keyed by the dotted segments. */
    std::string toJson() const;
};

/**
 * Per-interval time series produced by an IntervalSampler. The first
 * column is always "instructions" (the sample position); counter columns
 * hold interval deltas, everything else point values.
 */
struct TimeSeries
{
    std::vector<std::string> columns; ///< excludes "instructions"
    struct Row
    {
        std::uint64_t instructions = 0;
        std::vector<double> values;
    };
    std::vector<Row> rows;

    bool empty() const { return rows.empty(); }

    /** Index of @p column, or -1 when absent. */
    int columnIndex(const std::string &column) const;

    /** Header line plus one line per interval row. */
    void writeCsv(std::ostream &out) const;
};

/** See file comment. */
class Registry
{
  public:
    /** Cumulative counter read through a stable pointer. */
    void counter(const std::string &name, const std::uint64_t *value,
                 const std::string &desc = "");

    /** Cumulative counter read through a callback. */
    void counter(const std::string &name,
                 std::function<std::uint64_t()> fn,
                 const std::string &desc = "");

    /** Instantaneous value read through a callback. */
    void gauge(const std::string &name, std::function<double()> fn,
               const std::string &desc = "");

    /** Distribution backed by a Histogram. */
    void distribution(const std::string &name, const Histogram *hist,
                      const std::string &desc = "");

    /**
     * Distribution backed by a fixed log2-bucket histogram. Reports
     * per-bucket counts plus p50/p90/p99 in Report::toJson(), and adds
     * .p50/.p90/.p99 columns to the IntervalSampler CSV.
     */
    void distribution(const std::string &name,
                      const Log2Histogram *hist,
                      const std::string &desc = "");

    /** Distribution summarised on demand by a callback. */
    void distribution(const std::string &name,
                      std::function<DistSummary()> fn,
                      const std::string &desc = "");

    /**
     * Ratio formula: value = @p scale * numerator / denominator
     * (0 when the denominator is 0). The operands are referenced by
     * name and resolved lazily, so registration order does not matter.
     * In interval samples, counter operands use their interval deltas —
     * "sim.ipc" over an interval is the interval's own IPC.
     */
    void formula(const std::string &name, const std::string &numerator,
                 const std::string &denominator, double scale = 1.0,
                 const std::string &desc = "");

    std::size_t size() const { return entries_.size(); }

    /** Current cumulative value of a scalar stat; panics on unknown
     *  names and on distributions. */
    double value(const std::string &name) const;

    /** Flatten current values, keeping names matching @p filter (a
     *  dotted prefix; empty keeps everything). */
    Report report(const std::string &filter = "") const;

    /** Shorthand for report(filter).toJson(). */
    std::string toJson(const std::string &filter = "") const;

    /** True when @p name lies under the dotted prefix @p filter. */
    static bool matchesFilter(const std::string &name,
                              const std::string &filter);

  private:
    friend class IntervalSampler;

    struct Entry
    {
        std::string name;
        std::string desc;
        Kind kind = Kind::Counter;
        std::function<std::uint64_t()> counter;
        std::function<double()> gauge;
        std::function<DistSummary()> dist;
        bool percentiles = false; ///< log2 distribution: sample p50/90/99
        std::string num, den; ///< formula operand names
        double scale = 1.0;
    };

    void add(Entry entry);
    const Entry *find(const std::string &name) const;
    double entryValue(const Entry &entry) const;

    std::vector<Entry> entries_;
};

/**
 * Snapshots a Registry into a TimeSeries, one row per sample() call;
 * the caller (the simulator's observation tick) decides when.
 */
class IntervalSampler
{
  public:
    /** @param filter dotted-prefix column filter (empty = all). */
    explicit IntervalSampler(const Registry &registry,
                             const std::string &filter = "");

    /** Record one row at @p instructions: counters as deltas since the
     *  previous row, gauges as point samples. */
    void sample(std::uint64_t instructions);

    const TimeSeries &series() const { return series_; }
    TimeSeries takeSeries() { return std::move(series_); }

  private:
    const Registry &registry_;
    std::vector<std::size_t> sampled_;   ///< registry entry indices
    std::vector<double> last_cumulative_; ///< per sampled column
    std::vector<double> last_num_, last_den_; ///< formula operands
    TimeSeries series_;
};

} // namespace csp::stats

#endif // CSP_CORE_STATS_REGISTRY_H
