/**
 * @file
 * The History Queue of the collection unit (paper section 5, Figure 6):
 * a ring of recently observed contexts waiting to be associated with
 * impending memory addresses. To avoid a fully associative search, the
 * collection unit samples the queue at a small set of predefined depths
 * (probabilistic lookup, paper section 5).
 */

#ifndef CSP_PREFETCH_CONTEXT_HISTORY_QUEUE_H
#define CSP_PREFETCH_CONTEXT_HISTORY_QUEUE_H

#include <cstdint>
#include <span>
#include <vector>

#include "core/types.h"

namespace csp::prefetch::ctx {

/** One remembered context observation. */
struct HistoryEntry
{
    std::uint32_t reduced_key = 0; ///< CST index+tag of the context
    std::uint16_t full_hash = 0;   ///< full-context hash (reducer index)
    Addr line = 0;                 ///< block address of that access
    AccessSeq seq = 0;             ///< position in the demand stream
};

/** See file comment. */
class HistoryQueue
{
  public:
    /**
     * @param capacity queue depth (paper Table 2: 50 entries).
     * @param sample_depths depths (in accesses) at which the collection
     *        unit probes the queue; empty selects a default ladder
     *        spanning the prefetch window.
     */
    explicit HistoryQueue(unsigned capacity,
                          std::vector<unsigned> sample_depths = {});

    /** Record the context observed at demand access @p seq. */
    void
    push(const HistoryEntry &entry)
    {
        ring_[head_] = entry;
        if (++head_ == capacity_)
            head_ = 0;
        ++pushes_;
    }

    /** Entry exactly @p depth pushes behind the newest (null if absent). */
    const HistoryEntry *
    at(unsigned depth) const
    {
        // depth 1 = the most recent push. head_ is the next write
        // position (== pushes_ mod capacity_), so the entry `depth`
        // pushes back sits at (head_ - depth) mod capacity_ — computed
        // without a division since 1 <= depth <= capacity_.
        if (depth == 0 || depth > capacity_ || depth > pushes_)
            return nullptr;
        const unsigned idx = head_ >= depth
                                 ? head_ - depth
                                 : head_ + capacity_ - depth;
        return &ring_[idx];
    }

    unsigned capacity() const { return capacity_; }
    std::span<const unsigned> sampleDepths() const { return depths_; }

  private:
    unsigned capacity_;
    std::vector<unsigned> depths_;
    std::vector<HistoryEntry> ring_;
    std::uint64_t pushes_ = 0;
    unsigned head_ = 0; ///< next write position (pushes_ mod capacity_)
};

} // namespace csp::prefetch::ctx

#endif // CSP_PREFETCH_CONTEXT_HISTORY_QUEUE_H
