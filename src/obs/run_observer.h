/**
 * @file
 * The bundle a caller hands to Simulator::setObserver(), and the only
 * way anything attaches to a run: the optional lifecycle tracker
 * (autopsy + Perfetto spans), learning observer (bandit, CST and reward
 * events) and memory-hierarchy observer. The simulator adds its run's
 * layer ledger and passes the bundle to Hierarchy::attach and
 * Prefetcher::attach, which keep the sinks they understand; every sink
 * is null-checked where it fires, so a null sink costs one predictable
 * branch. Periodic observations arrive as Ticks on the simulator's one
 * instruction grid. Results are bit-identical with any mix attached.
 */

#ifndef CSP_OBS_RUN_OBSERVER_H
#define CSP_OBS_RUN_OBSERVER_H

#include <cstdint>

#include "core/types.h"

namespace csp::prof {
class Ledger;
}

namespace csp::obs {

/** Memory-queue depth at one cycle (mem::Hierarchy::queueSample). */
struct QueueSample
{
    unsigned l1_mshr_busy = 0;
    unsigned l2_mshr_busy = 0;
    std::uint64_t dram_backlog = 0; ///< cycles until DRAM is free again
};

/**
 * One observation tick. The simulator builds one each time retired
 * instructions cross its instruction grid (once per crossing, however
 * many grid points one access spans) and once more at end of run when
 * instructions ran since the last tick. Every periodic consumer — the
 * interval stats row, the tracker's "mshr" counter, the memory
 * recorder's queue timeline and miss-class tracks, the learning
 * snapshot with its "bandit"/"policy" tracks, the progress hook —
 * receives the same tick, so their rows join on `instructions`.
 */
struct Tick
{
    std::uint64_t instructions = 0; ///< retired at the tick
    Cycle cycle = 0;                ///< the tick's simulated cycle
    std::uint64_t every = 0;        ///< the run's grid, in instructions
    QueueSample queue;
};

class LearningObserver;
class MemObserver;
class PrefetchTracker;

/** See file comment. All pointers are borrowed, never owned. */
struct RunObserver
{
    PrefetchTracker *tracker = nullptr; ///< lifecycle + autopsy sink
    LearningObserver *learn = nullptr;  ///< learning-dynamics sink
    MemObserver *mem = nullptr;         ///< memory-hierarchy sink
    prof::Ledger *ledger = nullptr; ///< set by the simulator per run
};

} // namespace csp::obs

#endif // CSP_OBS_RUN_OBSERVER_H
