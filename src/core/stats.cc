#include "core/stats.h"

namespace csp {

Histogram::Histogram(std::uint64_t max, std::size_t buckets)
    : max_(max), width_((max + buckets - 1) / buckets), counts_(buckets, 0)
{
    CSP_ASSERT(max > 0 && buckets > 0);
    if (width_ == 0)
        width_ = 1;
    shift_ = isPowerOfTwo(width_) ? floorLog2(width_) : kNoShift;
}

std::uint64_t
Histogram::bucketEdge(std::size_t i) const
{
    return (i + 1) * width_ - 1;
}

double
Histogram::mean() const
{
    return total_ == 0
               ? 0.0
               : static_cast<double>(sum_) / static_cast<double>(total_);
}

Log2Histogram::Log2Histogram(std::size_t buckets) : counts_(buckets, 0)
{
    CSP_ASSERT(buckets >= 2);
}

std::uint64_t
Log2Histogram::bucketLo(std::size_t i) const
{
    return i == 0 ? 0 : std::uint64_t{1} << (i - 1);
}

std::uint64_t
Log2Histogram::bucketHi(std::size_t i) const
{
    return i == 0 ? 0 : (std::uint64_t{1} << i) - 1;
}

double
Log2Histogram::mean() const
{
    return total_ == 0
               ? 0.0
               : static_cast<double>(sum_) / static_cast<double>(total_);
}

std::uint64_t
Log2Histogram::percentile(double p) const
{
    if (total_ == 0)
        return 0;
    if (total_ == 1) {
        // One sample: every percentile IS that sample (sum_ holds its
        // exact value), not the power-of-two bucket ceiling.
        return sum_;
    }
    if (p > 1.0)
        p = 1.0;
    if (p < 0.0)
        p = 0.0;
    // Rank of the requested sample, 1-based; p50 of 10 samples is the
    // 5th from the bottom.
    auto rank = static_cast<std::uint64_t>(
        p * static_cast<double>(total_));
    if (rank == 0)
        rank = 1;
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < counts_.size(); ++i) {
        seen += counts_[i];
        if (seen >= rank)
            return bucketHi(i);
    }
    return bucketHi(counts_.size() - 1);
}

std::uint64_t
Log2Histogram::minEdge() const
{
    for (std::size_t i = 0; i < counts_.size(); ++i) {
        if (counts_[i] != 0)
            return bucketLo(i);
    }
    return 0;
}

std::uint64_t
Log2Histogram::maxEdge() const
{
    for (std::size_t i = counts_.size(); i > 0; --i) {
        if (counts_[i - 1] != 0)
            return bucketHi(i - 1);
    }
    return 0;
}

} // namespace csp
