/**
 * @file
 * Statistics primitives: saturating counters, scalar counters, histograms
 * and distribution summaries used for the evaluation figures.
 */

#ifndef CSP_CORE_STATS_H
#define CSP_CORE_STATS_H

#include <cstdint>
#include <string>
#include <vector>

#include "core/logging.h"
#include "core/types.h"

namespace csp {

/**
 * Saturating signed counter with compile-time bounds. The CST stores one
 * per context-address association (paper: 1-byte integer score).
 */
template <typename T, T Min, T Max>
class SaturatingCounter
{
    static_assert(Min < Max, "bounds must be ordered");

  public:
    constexpr SaturatingCounter() = default;
    constexpr explicit SaturatingCounter(T initial) : value_(clamp(initial))
    {}

    /** Current value. */
    constexpr T value() const { return value_; }

    /** Add @p delta, saturating at the bounds. */
    constexpr void
    add(std::int64_t delta)
    {
        std::int64_t next = static_cast<std::int64_t>(value_) + delta;
        if (next < static_cast<std::int64_t>(Min))
            next = Min;
        if (next > static_cast<std::int64_t>(Max))
            next = Max;
        value_ = static_cast<T>(next);
    }

    /** Reset to @p value (clamped). */
    constexpr void set(T value) { value_ = clamp(value); }

    constexpr bool operator<(const SaturatingCounter &o) const
    {
        return value_ < o.value_;
    }

  private:
    static constexpr T
    clamp(T v)
    {
        return v < Min ? Min : (v > Max ? Max : v);
    }

    T value_ = 0;
};

/** The 8-bit score kept per CST link (paper section 5). */
using Score8 = SaturatingCounter<std::int16_t, -128, 127>;

/**
 * Fixed-bucket histogram over a [0, max) range with uniform bucket width,
 * plus an overflow bucket. Used for prefetch hit-depth distributions
 * (paper Figure 8).
 */
class Histogram
{
  public:
    /** @param max upper bound of the tracked range.
     *  @param buckets number of uniform buckets covering [0, max). */
    Histogram(std::uint64_t max, std::size_t buckets);

    /** Record one sample. */
    void
    sample(std::uint64_t value)
    {
        ++total_;
        sum_ += value < max_ ? value : max_;
        if (value >= max_) {
            ++overflow_;
            return;
        }
        std::size_t idx = shift_ != kNoShift ? value >> shift_
                                             : value / width_;
        if (idx >= counts_.size())
            idx = counts_.size() - 1;
        ++counts_[idx];
    }

    /** Total number of samples, including overflow. */
    std::uint64_t count() const { return total_; }

    /** Samples landing at or above max. */
    std::uint64_t overflow() const { return overflow_; }

    /** Raw bucket counts. */
    const std::vector<std::uint64_t> &buckets() const { return counts_; }

    /** Inclusive upper edge of bucket @p i. */
    std::uint64_t bucketEdge(std::size_t i) const;

    /** Mean of recorded samples (overflow samples counted at max). */
    double mean() const;

  private:
    static constexpr unsigned kNoShift = ~0u;

    std::uint64_t max_;
    std::uint64_t width_;
    unsigned shift_; ///< log2(width_) when a power of two, else kNoShift
    std::vector<std::uint64_t> counts_;
    std::uint64_t overflow_ = 0;
    std::uint64_t total_ = 0;
    std::uint64_t sum_ = 0;
};

/**
 * Fixed log2-bucket histogram: bucket 0 holds the value 0, bucket i
 * (i >= 1) holds values in [2^(i-1), 2^i). The bucket count is fixed at
 * construction; values at or beyond the last bucket's range land in the
 * last bucket. Because the bucket layout never depends on the data, two
 * runs that sample the same values produce bit-identical tables — the
 * property the observability layer's determinism contract relies on.
 * Percentiles are bucket-resolved (the inclusive upper edge of the
 * bucket containing the requested rank), which is exact enough for the
 * latency/depth telemetry it backs (reward-by-depth, fill latency).
 */
class Log2Histogram
{
  public:
    explicit Log2Histogram(std::size_t buckets = 32);

    /** Record one sample. */
    void
    sample(std::uint64_t value)
    {
        std::size_t idx = value == 0 ? 0 : floorLog2(value) + 1;
        if (idx >= counts_.size())
            idx = counts_.size() - 1;
        ++counts_[idx];
        ++total_;
        sum_ += value;
    }

    /** Total number of samples. */
    std::uint64_t count() const { return total_; }

    /** Raw bucket counts. */
    const std::vector<std::uint64_t> &buckets() const { return counts_; }

    /** Inclusive lower bound of bucket @p i (0, 1, 2, 4, 8, ...). */
    std::uint64_t bucketLo(std::size_t i) const;

    /** Inclusive upper bound of bucket @p i (0, 1, 3, 7, 15, ...). */
    std::uint64_t bucketHi(std::size_t i) const;

    /** Mean of all recorded samples. */
    double mean() const;

    /**
     * Upper edge of the bucket holding the sample of rank
     * ceil(@p p * count) for @p p in (0, 1] — e.g. percentile(0.5) is
     * a p50 estimate. @p p is clamped into [0, 1]. Returns 0 when
     * empty; with exactly one sample returns that sample's exact
     * value (not a bucket edge).
     */
    std::uint64_t percentile(double p) const;

    /** Smallest and largest non-empty bucket edges (0 when empty). */
    std::uint64_t minEdge() const;
    std::uint64_t maxEdge() const;

  private:
    std::vector<std::uint64_t> counts_;
    std::uint64_t total_ = 0;
    std::uint64_t sum_ = 0;
};

/**
 * Exponentially-weighted moving accuracy tracker in [0,1]. The prediction
 * unit throttles its prefetch degree with one of these, and the
 * exploration policy shrinks epsilon as it converges.
 */
class EwmaRate
{
  public:
    explicit EwmaRate(double alpha = 0.01, double initial = 0.5)
        : alpha_(alpha), value_(initial)
    {
        CSP_ASSERT(alpha > 0.0 && alpha <= 1.0);
    }

    /** Record one boolean outcome. */
    void
    record(bool success)
    {
        value_ += alpha_ * ((success ? 1.0 : 0.0) - value_);
    }

    /** Current smoothed rate. */
    double value() const { return value_; }

  private:
    double alpha_;
    double value_;
};

} // namespace csp

#endif // CSP_CORE_STATS_H
