/**
 * @file
 * Memory-hierarchy introspection tap: the interface through which
 * mem::Hierarchy publishes its demand/fill/evict traffic — one event
 * per demand access with the level it was served from, one per cache
 * fill with the victim it displaced — without knowing anything about
 * sinks; the simulator adds its observation ticks. Header-only on
 * purpose, like obs/learning_observer.h: csp_mem sees only this pure
 * interface; the concrete sink (MemRecorder) lives in the obs library
 * and is injected by the simulator through RunObserver::mem.
 *
 * Hooks are notifications only — an observer can never perturb the
 * simulation (the bit-identical on/off contract is tested). The
 * disabled cost is one null-pointer check per demand access, exactly
 * the PrefetchTracker contract.
 */

#ifndef CSP_OBS_MEM_OBSERVER_H
#define CSP_OBS_MEM_OBSERVER_H

#include <cstdint>

#include "core/types.h"
#include "obs/run_observer.h"

namespace csp::stats {
class Registry;
}

namespace csp::obs {

/** Where a demand access was served from, as seen by the tap. Kept
 *  separate from mem::ServiceLevel so csp_mem needs no header cycle;
 *  the hierarchy maps its outcome onto this enum. */
enum class MemAccessKind : std::uint8_t
{
    L1Hit,      ///< ready L1 hit (not an L1 miss)
    L1InFlight, ///< line present in L1 but still filling (counts as miss)
    L2Hit,      ///< full L1 miss served by L2 (ready or in flight)
    Memory,     ///< full L1 miss that reached DRAM (demand L2 miss)
};

/** One demand access, after its service level is known. */
struct MemAccessEvent
{
    Addr line_addr = 0; ///< line-aligned address
    Addr pc = 0;        ///< demand PC
    Cycle cycle = 0;    ///< issue cycle
    MemAccessKind kind = MemAccessKind::L1Hit;
    bool is_store = false;
};

/** One cache fill (line install), with the victim it displaced. */
struct MemFillEvent
{
    std::uint8_t level = 1;   ///< 1 = L1D, 2 = L2
    std::uint64_t set = 0;    ///< set index the line landed in
    Addr line_addr = 0;       ///< line being installed
    Addr pc = 0;              ///< requesting PC (issuer PC for prefetch)
    bool is_prefetch = false; ///< prefetch fill (vs demand fill)
    bool victim_valid = false;///< a live line was displaced
    Addr victim_addr = 0;     ///< displaced line address (when valid)
};

/** See file comment. */
class MemObserver
{
  public:
    virtual ~MemObserver() = default;

    /** A demand access completed classification at the hierarchy. */
    virtual void onDemandAccess(const MemAccessEvent &event) = 0;

    /** A line was installed (and possibly displaced a victim). */
    virtual void onFill(const MemFillEvent &event) = 0;

    /** One observation tick from the simulator, carrying the MSHR/DRAM
     *  queue depths. Default: nothing. */
    virtual void onTick(const Tick &tick) { (void)tick; }

    /** Publish observer-side telemetry (miss classes, reuse-distance
     *  histograms, set pressure) into the run's registry under the
     *  "mem.class/reuse/sets/pollution/timeline/shadow" subtrees.
     *  Default: nothing. */
    virtual void registerStats(stats::Registry &registry)
    {
        (void)registry;
    }
};

} // namespace csp::obs

#endif // CSP_OBS_MEM_OBSERVER_H
