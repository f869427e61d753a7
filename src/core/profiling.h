/**
 * @file
 * Hierarchical self-profiling: RAII scoped phase timers that attribute
 * simulator wall-clock to named phases (trace generation, replay, each
 * prefetcher's train/predict paths, memory-hierarchy work, stats
 * flushing) and publish the accumulated nanoseconds under the `prof.*`
 * subtree of a run's stats registry.
 *
 * A profiler attaches through obs::RunObserver like every other sink,
 * but it alone selects a replay-loop instantiation: the hot loop is
 * only instrumented in the kProfiled=true instantiation of
 * Simulator::runFrom, so runs without --profile execute code with no
 * timer plumbing at all (measured to pay, DESIGN.md §6). The
 * ScopedTimer additionally no-ops on a null Profiler so cold paths can
 * share one spelling for both modes.
 */

#ifndef CSP_CORE_PROFILING_H
#define CSP_CORE_PROFILING_H

#include <array>
#include <chrono>
#include <cstdint>

namespace csp::stats {
class Registry;
}

namespace csp::prof {

/** The phases wall-clock is attributed to. Replay is inclusive of the
 *  finer-grained phases nested inside it (mem.access, prefetch.*). */
enum class Phase : std::uint8_t
{
    TraceGen,        ///< workload trace generation (or trace load)
    Replay,          ///< the whole replay loop, inclusive
    MemAccess,       ///< mem::Hierarchy::access (demand path)
    MemPrefetch,     ///< mem::Hierarchy::prefetch (dispatch path)
    PrefetchObserve, ///< Prefetcher::observe, inclusive of train/predict
    PrefetchTrain,   ///< learning-side work inside observe (context pf)
    PrefetchPredict, ///< prediction-side work inside observe (context pf)
    StatsFlush,      ///< interval sampling + end-of-run stats snapshot
    Count,
};

/** Dotted stat name for @p phase (without the "prof." prefix). */
const char *phaseStatName(Phase phase);

/**
 * Per-run accumulator of phase wall-clock. One per simulated run;
 * never shared across threads. registerStats() publishes
 * `prof.<phase>.ns` / `prof.<phase>.calls` counters plus derived
 * per-call and per-access gauges; the registry reads through pointers
 * into this object, so it must outlive any report taken from that
 * registry.
 */
class Profiler
{
  public:
    /** Fold @p ns nanoseconds (from @p calls timed sections) into
     *  @p phase. */
    void
    add(Phase phase, std::uint64_t ns, std::uint64_t calls = 1)
    {
        Slot &slot = slots_[static_cast<std::size_t>(phase)];
        slot.ns += ns;
        slot.calls += calls;
    }

    std::uint64_t
    ns(Phase phase) const
    {
        return slots_[static_cast<std::size_t>(phase)].ns;
    }

    std::uint64_t
    calls(Phase phase) const
    {
        return slots_[static_cast<std::size_t>(phase)].calls;
    }

    /** Publish the `prof.*` subtree into @p registry. */
    void registerStats(stats::Registry &registry) const;

  private:
    struct Slot
    {
        std::uint64_t ns = 0;
        std::uint64_t calls = 0;
    };
    std::array<Slot, static_cast<std::size_t>(Phase::Count)> slots_{};
};

/**
 * RAII section timer: measures from construction to destruction and
 * folds the elapsed nanoseconds into one Profiler phase. A null
 * profiler skips the clock reads entirely, so the same spelling works
 * on paths where profiling may be disabled.
 */
class ScopedTimer
{
  public:
    ScopedTimer(Profiler *profiler, Phase phase)
        : profiler_(profiler), phase_(phase)
    {
        if (profiler_ != nullptr)
            start_ = std::chrono::steady_clock::now();
    }

    ~ScopedTimer()
    {
        if (profiler_ != nullptr) {
            const auto ns =
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    std::chrono::steady_clock::now() - start_)
                    .count();
            profiler_->add(phase_, static_cast<std::uint64_t>(ns));
        }
    }

    ScopedTimer(const ScopedTimer &) = delete;
    ScopedTimer &operator=(const ScopedTimer &) = delete;

  private:
    Profiler *profiler_;
    Phase phase_;
    std::chrono::steady_clock::time_point start_;
};

} // namespace csp::prof

#endif // CSP_CORE_PROFILING_H
