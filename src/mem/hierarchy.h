/**
 * @file
 * Two-level cache hierarchy with main memory behind it, prefetch-to-L1
 * support, MSHR-bounded miss parallelism, and per-access classification
 * in the categories of paper Figure 9.
 */

#ifndef CSP_MEM_HIERARCHY_H
#define CSP_MEM_HIERARCHY_H

#include <cstdint>

#include "core/config.h"
#include "core/stats.h"
#include "core/types.h"
#include "mem/cache.h"
#include "mem/mshr.h"
#include "obs/run_observer.h"

namespace csp::stats {
class Registry;
}

namespace csp::mem {

/** Where a demand access was served from. */
enum class ServiceLevel : std::uint8_t
{
    L1,         ///< ready hit in L1
    L1InFlight, ///< L1 line still filling (wait shortened)
    L2,         ///< L2 ready hit
    L2InFlight, ///< L2 line still filling
    Memory,     ///< went to DRAM
};

/** Result of a demand access. */
struct AccessResult
{
    Cycle complete = 0;      ///< cycle the data is available
    ServiceLevel level = ServiceLevel::L1;
    bool l1_miss = false;    ///< not a ready L1 hit
    bool l2_miss = false;    ///< demand request reached DRAM
    /// First demand touch of an L1 line filled by a prefetch, data ready.
    bool hit_prefetched_line = false;
    /// Demand arrived while a prefetch for the line was still in flight,
    /// or missed L1 but found a prefetched (unused) line in L2 — either
    /// way the wait was cut by an earlier prefetch.
    bool shorter_wait = false;
};

/** Outcome of a prefetch attempt. */
enum class PrefetchOutcome : std::uint8_t
{
    Issued,      ///< request dispatched, L1 fill scheduled
    AlreadyHere, ///< line already present (or in flight) in L1
    NoMshr,      ///< dropped: MSHR pressure above threshold
};

/** Aggregate hierarchy statistics. */
struct HierarchyStats
{
    std::uint64_t demand_accesses = 0;
    std::uint64_t l1_misses = 0; ///< includes in-flight (MSHR) hits
    std::uint64_t l2_demand_misses = 0;
    std::uint64_t prefetches_issued = 0;
    std::uint64_t prefetches_duplicate = 0; ///< AlreadyHere outcomes
    std::uint64_t prefetches_dropped = 0;   ///< NoMshr outcomes
    std::uint64_t prefetch_evicted_unused = 0;
    std::uint64_t prefetch_unused_at_end = 0;
    std::uint64_t l1_writebacks = 0; ///< dirty L1 lines pushed to L2
    std::uint64_t l2_writebacks = 0; ///< dirty L2 lines written to DRAM

    /** Prefetches issued that never served a demand access. */
    std::uint64_t
    prefetchesNeverHit() const
    {
        return prefetch_evicted_unused + prefetch_unused_at_end;
    }
};

/** See file comment. */
class Hierarchy
{
  public:
    explicit Hierarchy(const MemoryConfig &config);

    /**
     * Perform a demand access at cycle @p now. Stores mark the line
     * dirty (write-allocate, write-back); the caller is expected not
     * to stall on them. @p pc attributes the access in the lifecycle
     * tracker (coverage tables); it never affects timing.
     */
    AccessResult access(Addr addr, Cycle now, bool is_store = false,
                        Addr pc = 0);

    /**
     * Attempt a prefetch of the line holding @p addr into L1.
     * @p min_free_mshrs is the back-off threshold of paper section 4.2:
     * if fewer L1 MSHRs are free the prefetch is dropped (the caller may
     * convert it to a shadow operation). @p pc is the demand PC the
     * prefetcher issued this request from (accuracy attribution only).
     */
    PrefetchOutcome prefetch(Addr addr, Cycle now,
                             unsigned min_free_mshrs, Addr pc = 0);

    /**
     * Attach the run's observer bundle, or detach it with nullptr. The
     * hierarchy keeps its lifecycle tracker and memory observer (miss
     * taxonomy, set pressure). Each hook is
     * compiled in at one null check per access, and attaching never
     * changes timing, HierarchyStats or any other simulation result.
     */
    void
    attach(const obs::RunObserver *observer)
    {
        tracker_ = observer != nullptr ? observer->tracker : nullptr;
        mem_obs_ = observer != nullptr ? observer->mem : nullptr;
    }

    /** MSHR occupancy and DRAM backlog at @p now: the queue depths an
     *  observation tick carries. */
    obs::QueueSample queueSample(Cycle now) const;

    /** Free L1 MSHR slots at @p now (throttling input). */
    unsigned freeL1Mshrs(Cycle now) const;

    /** Close out end-of-run accounting (unused prefetched lines). */
    void finish();

    const HierarchyStats &stats() const { return stats_; }
    const MemoryConfig &config() const { return config_; }

    /**
     * Register this hierarchy's counters and gauges under "mem.*"
     * ("mem.l1", "mem.l2", "mem.prefetch", "mem.mshr"). The registry
     * reads through pointers into this object, so it must not outlive
     * the hierarchy.
     */
    void registerStats(stats::Registry &registry) const;

    /** Line-align an address to L1 line granularity. */
    Addr lineAddr(Addr addr) const { return l1_.lineAddr(addr); }

  private:
    /** Install @p line_addr in L1 (@p level 1) or L2 with fill time
     *  @p ready, then account the displaced line in this order: the
     *  memory observer's fill event, the unused-prefetch eviction
     *  (counter and lifecycle, at cycle @p now), the dirty writeback
     *  to L2 or DRAM. Returns the installed line. */
    LineState &fillLine(std::uint8_t level, Addr line_addr, Cycle ready,
                        bool is_prefetch, Addr pc, Cycle now);

    /** L2 lookup + fill scheduling shared by demand and prefetch paths.
     *  Returns the cycle at which the line's data reaches the L1 fill
     *  port, whether DRAM was involved, and whether an unused
     *  prefetched L2 line served the request. @p pc is the requesting
     *  PC, tracker attribution only. When the caller already probed L2
     *  (without touching LRU), it passes the result through
     *  @p l2_probed/@p l2_probe to skip the re-probe; @p l2_line_out,
     *  when non-null, receives the line now holding @p addr in L2 (hit
     *  or freshly inserted) so the caller needs no post-probe either. */
    Cycle fillFromBelow(Addr addr, Cycle start, bool is_prefetch,
                        Addr pc, bool *went_to_memory,
                        bool *served_by_l2_prefetch,
                        bool l2_probed = false,
                        LineState *l2_probe = nullptr,
                        LineState **l2_line_out = nullptr);

    MemoryConfig config_;
    Cache l1_;
    Cache l2_;
    MshrFile l1_mshrs_;
    MshrFile l2_mshrs_;
    Cycle dram_next_free_ = 0; ///< DRAM bandwidth bookkeeping
    HierarchyStats stats_;
    /// DRAM fill latency (request to data) per L2 miss, log2 buckets —
    /// feeds the mem.fill_latency percentile stat.
    Log2Histogram fill_latency_;
    obs::PrefetchTracker *tracker_ = nullptr; ///< borrowed, may be null
    obs::MemObserver *mem_obs_ = nullptr;     ///< borrowed, may be null
    Cycle now_ = 0; ///< last access cycle (occupancy gauge reads)
};

} // namespace csp::mem

#endif // CSP_MEM_HIERARCHY_H
