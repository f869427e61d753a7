/**
 * @file
 * The bundle a caller hands to Simulator::setObserver(), and the only
 * way anything attaches to a run: the optional lifecycle tracker
 * (autopsy + Perfetto spans), learning observer (bandit, CST and reward
 * events), memory-hierarchy observer and self-profiler. The simulator
 * passes it to Hierarchy::attach and Prefetcher::attach, which keep the
 * sinks they understand; every sink is null-checked where it fires, so
 * a null sink costs one predictable branch. Only the profiler selects
 * a separate replay-loop instantiation (its timers sit in the hot loop
 * itself); results are bit-identical with any mix attached.
 */

#ifndef CSP_OBS_RUN_OBSERVER_H
#define CSP_OBS_RUN_OBSERVER_H

namespace csp::prof {
class Profiler;
}

namespace csp::obs {

class LearningObserver;
class MemObserver;
class PrefetchTracker;

/** See file comment. All pointers are borrowed, never owned. */
struct RunObserver
{
    PrefetchTracker *tracker = nullptr; ///< lifecycle + autopsy sink
    LearningObserver *learn = nullptr;  ///< learning-dynamics sink
    MemObserver *mem = nullptr;         ///< memory-hierarchy sink
    prof::Profiler *profiler = nullptr; ///< phase-timing sink
};

} // namespace csp::obs

#endif // CSP_OBS_RUN_OBSERVER_H
