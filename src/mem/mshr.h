/**
 * @file
 * Miss-status holding register file, modelled in time rather than by
 * event: each slot records the cycle at which its outstanding fill
 * completes. A requester that finds every slot busy is delayed until the
 * earliest completion — this is the mechanism that bounds memory-level
 * parallelism exactly as the paper's gem5 configuration does (L1: 4
 * MSHRs, L2: 20).
 */

#ifndef CSP_MEM_MSHR_H
#define CSP_MEM_MSHR_H

#include <algorithm>
#include <vector>

#include "core/types.h"

namespace csp::mem {

/** See file comment. */
class MshrFile
{
  public:
    explicit MshrFile(unsigned slots);

    /** Number of slots free at @p now. */
    unsigned
    freeAt(Cycle now) const
    {
        return freeWithin(now, 0);
    }

    /**
     * Number of slots that will be free by @p now + @p window. Because
     * the timing model books fills into the future, instantaneous
     * freeness is pessimistic; throttling decisions use a one
     * memory-round-trip window instead.
     */
    unsigned
    freeWithin(Cycle now, Cycle window) const
    {
        const Cycle horizon = now + window;
        unsigned free = 0;
        for (Cycle completion : busy_) {
            if (completion <= horizon)
                ++free;
        }
        return free;
    }

    /**
     * Earliest cycle >= @p now at which at least one slot is free.
     * Returns @p now itself when a slot is already free.
     */
    Cycle
    availableAt(Cycle now) const
    {
        Cycle earliest = kInvalidCycle;
        for (Cycle completion : busy_) {
            if (completion <= now)
                return now;
            earliest = std::min(earliest, completion);
        }
        return earliest;
    }

    /**
     * Occupy a slot until @p completion. The caller must have chosen a
     * start cycle >= availableAt(now); the slot holding the earliest
     * completion is reused.
     */
    void
    allocate(Cycle completion)
    {
        auto slot = std::min_element(busy_.begin(), busy_.end());
        *slot = completion;
        ++allocations_;
    }

    /**
     * Like allocate(@p completion), additionally crediting the
     * [start, completion) span to the occupancy accounting read by the
     * stats registry (mem.mshr.*_busy_cycles).
     */
    void
    allocate(Cycle start, Cycle completion)
    {
        allocate(completion);
        busy_cycles_ += completion - start;
    }

    /** Total slot count. */
    unsigned slots() const { return static_cast<unsigned>(busy_.size()); }

    /** Fills booked so far (allocations). */
    const std::uint64_t &allocations() const { return allocations_; }

    /** Total slot-busy cycles booked through the timed allocate()
     *  overload; divided by elapsed cycles this is the file's average
     *  occupancy in slots. */
    const std::uint64_t &busyCycles() const { return busy_cycles_; }

  private:
    std::vector<Cycle> busy_; ///< completion cycle per slot (0 = idle)
    std::uint64_t allocations_ = 0;
    std::uint64_t busy_cycles_ = 0;
};

} // namespace csp::mem

#endif // CSP_MEM_MSHR_H
