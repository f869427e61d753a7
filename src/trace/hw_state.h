/**
 * @file
 * Hardware-side context tracking: the CPU-visible state the prefetcher
 * samples at every memory access (paper Table 1, "Hardware" rows). The
 * tracker is updated in program order by the simulator and produces the
 * per-access ContextSnapshot, merging in the compiler hint carried by the
 * trace record.
 */

#ifndef CSP_TRACE_HW_STATE_H
#define CSP_TRACE_HW_STATE_H

#include <cstdint>

#include "core/hashing.h"
#include "trace/context.h"
#include "trace/trace.h"

namespace csp::trace {

/** See file comment. */
class HwContextTracker
{
  public:
    /** @param block_bytes granularity of the address-history feature. */
    explicit HwContextTracker(unsigned block_bytes = 64)
        : block_bytes_(block_bytes)
    {}

    /**
     * Compose the context of a memory-access record from current
     * hardware state plus the record's hint payload, into a
     * caller-owned snapshot. Call *before* update() so the snapshot
     * reflects state at issue time. Writes every attribute, so the
     * simulator's replay loop reuses one ContextSnapshot for the whole
     * run instead of constructing one per access.
     */
    void captureInto(const TraceRecord &rec, ContextSnapshot &ctx) const;

    /** Advance hardware state past @p rec (any record kind). */
    void update(const TraceRecord &rec);

    /** Current branch-history register (low 16 bits meaningful). */
    std::uint16_t branchHistory() const { return bhr_; }

  private:
    unsigned block_bytes_;
    std::uint16_t bhr_ = 0;         ///< branch history register
    std::uint64_t addr_hist_[2] = {0, 0}; ///< last two access blocks
    /// Position-combined addr_hist_, refreshed in update() (memory
    /// records only) so captureInto() reads it instead of re-hashing.
    std::uint64_t addr_hist_hash_ = hashCombine(0, 0);
    std::uint64_t last_loaded_ = 0; ///< previous load's returned value
};

} // namespace csp::trace

#endif // CSP_TRACE_HW_STATE_H
