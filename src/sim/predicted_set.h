/**
 * @file
 * Constant-time window membership for predicted-but-unissued lines.
 *
 * The Figure-9 "non-timely" class asks, per demand miss, whether the
 * missed line was recently predicted by the prefetcher but never issued.
 * The original implementation kept the last 256 such lines in a ring and
 * scanned all 256 slots per miss; this structure answers the identical
 * question with one FlatMap probe.
 *
 * Equivalence argument: the ring's 256 slots always hold the values
 * recorded at the last 256 record() positions (each position maps to a
 * unique slot, and a slot's current value is its most recent write), so
 * the ring contains `line` iff `line`'s most recent record() happened
 * within the last 256 record() calls. PredictedSet maintains exactly
 * that predicate: a map from line to its last record position, with
 * entries removed the moment the position falls out of the 256-wide
 * window. tests/test_predicted_set.cc checks equivalence against the
 * reference linear-scan ring on randomized traffic.
 */

#ifndef CSP_SIM_PREDICTED_SET_H
#define CSP_SIM_PREDICTED_SET_H

#include <array>
#include <cstdint>

#include "core/flat_map.h"
#include "core/types.h"

namespace csp::sim {

/** Tracks whether a line was recorded within the last 256 record()s. */
class PredictedSet
{
  public:
    // Room for twice the window, as for the prefetch queue's index: at
    // most quarter full, so the per-miss contains() probe stays short.
    PredictedSet() { last_pos_.reserve(2 * kWindow); }

    void
    record(Addr line)
    {
        Addr &slot = ring_[pos_ & (kWindow - 1)];
        if (pos_ >= kWindow) {
            // The record at pos_-kWindow leaves the window. Its value
            // still sits in the ring slot being overwritten; drop its
            // map entry unless the line was recorded again since.
            const std::uint64_t *last = last_pos_.find(slot);
            if (last != nullptr && *last == pos_ - kWindow)
                last_pos_.erase(slot);
        }
        slot = line;
        last_pos_[line] = pos_;
        ++pos_;
    }

    bool
    contains(Addr line) const
    {
        return last_pos_.find(line) != nullptr;
    }

  private:
    static constexpr std::size_t kWindow = 256;

    std::array<Addr, kWindow> ring_{};
    FlatMap<Addr, std::uint64_t> last_pos_; ///< line -> last record()
    std::uint64_t pos_ = 0;
};

} // namespace csp::sim

#endif // CSP_SIM_PREDICTED_SET_H
