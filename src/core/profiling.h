/**
 * @file
 * The sampled layer ledger: always-on attribution of replay time to the
 * layers of Simulator::runFrom's loop. About 1 access in kSampleEvery
 * starts a timed run of kRun accesses, where each layer boundary is one
 * unfenced counter read (mark()) charged to the layer it closes; the
 * kBracket untimed accesses before it are timed at their two ends only.
 * Sample points depend on the access sequence number alone, so `calls`
 * counts are identical across runs and job counts. A timed access costs
 * more than its layers less their reads (the reads disturb the code
 * around them, and the timed code is cold), so the layers keep the split
 * the timed runs measured, scaled to the bracketed cost of every access.
 * Counter ticks convert to ns against the replay's steady_clock ends.
 */

#ifndef CSP_CORE_PROFILING_H
#define CSP_CORE_PROFILING_H

#include <array>
#include <chrono>
#include <cstdint>

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#endif

namespace csp::stats {
class Registry;
}

namespace csp::prof {

/** The layers replay time is attributed to. Decode through Loop tile a
 *  timed step: each boundary closes one and opens the next. */
enum class Layer : std::uint8_t
{
    Decode,      ///< the trace source's next()
    Cpu,         ///< cpu::CoreModel dispatch, issue and completion
    Capture,     ///< HwContextTracker capture and update
    MemAccess,   ///< mem::Hierarchy::access (demand path)
    Classify,    ///< the Figure-9 benefit classification
    Observe,     ///< Prefetcher::observe, inclusive of Train/Predict
    MemPrefetch, ///< request dispatch through mem::Hierarchy::prefetch
    Loop,        ///< the loop's own bookkeeping between calls
    Tick,        ///< observation ticks, each timed whole
    // Inside Observe (context prefetcher). Train and Predict are never
    // marked: end() sets each to the sum of the sub-layers after it.
    Train,       ///< Feedback + Index + Collect
    Predict,     ///< Select + Enqueue
    Feedback,    ///< prefetch-queue search and the rewards it applies
    Index,       ///< full/reduced context hashes and the reducer lookup
    Collect,     ///< history-ladder CST links and the overload check
    Select,      ///< degree, best links and the exploration draw
    Enqueue,     ///< prefetch-queue pushes and the history push
    Count,
};

/** Dotted stat name for @p layer (without the "prof." prefix). */
const char *layerName(Layer layer);

inline constexpr std::uint64_t kSampleEvery = 1024; ///< mean run spacing
inline constexpr std::uint64_t kRun = 16;      ///< accesses per timed run
inline constexpr std::uint64_t kBracket = 256; ///< bracket before a run

/** The access at which the timed run after the one starting at
 *  @p start starts (the first run follows 0): a hash of @p start
 *  spreads the gaps over [kSampleEvery/2, 3*kSampleEvery/2), so runs do
 *  not alias with a workload's periodic access pattern. */
std::uint64_t nextTimedRun(std::uint64_t start);

/** One boundary read: the time-stamp counter, unfenced, where the
 *  target has one. A steady_clock read is ordered, so every boundary
 *  would wait for the replay's outstanding host cache misses. */
inline std::int64_t
readCounter()
{
#if defined(__x86_64__) || defined(__i386__)
    return static_cast<std::int64_t>(__rdtsc());
#else
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
#endif
}

/** One run's layer costs. registerStats() publishes
 *  `prof.<layer>.{ns,calls,ns_per_access}`, `prof.replay.*` and
 *  `prof.unattributed_frac` = 1 - (layers + ticks) / replay: the
 *  ledger's own cost, the end-of-run flushes and sampling error. */
class Ledger
{
  public:
    /** Whether a timed run is open: marks are only taken inside one. */
    bool timing() const { return timing_; }

    /** Replay start and end (after @p accesses demand accesses); end()
     *  converts every layer to nanoseconds. */
    void begin();
    void end(std::uint64_t accesses);

    /** Open the bracket of the timed run kBracket accesses ahead. */
    void openBracket() { bracket_start_ = readCounter(); }

    /** Close the open bracket and start a timed run. */
    void
    beginRun()
    {
        const std::int64_t t = readCounter();
        bracket_ticks_ += t - bracket_start_;
        ++brackets_;
        timing_ = true;
        prev_ = nested_prev_ = t;
    }

    void
    endRun(std::uint64_t accesses)
    {
        timing_ = false;
        timed_accesses_ += accesses;
    }

    /** Close @p layer at this boundary, inside a timed run. */
    void
    mark(Layer layer)
    {
        const std::int64_t t = readCounter();
        charge(layer, t - prev_);
        prev_ = nested_prev_ = t;
    }

    /** Close @p layer, nested in the open one: from the last boundary
     *  of either kind, leaving the open layer open. */
    void
    markNested(Layer layer)
    {
        const std::int64_t t = readCounter();
        charge(layer, t - nested_prev_);
        nested_prev_ = t;
    }

    /** Charge the tick that started at counter value @p start; an open
     *  bracket or layer goes on as if it had not run. */
    void
    endTick(std::int64_t start)
    {
        const std::int64_t elapsed = readCounter() - start;
        charge(Layer::Tick, elapsed);
        prev_ += elapsed;
        nested_prev_ += elapsed;
        bracket_start_ += elapsed;
    }

    void registerStats(stats::Registry &registry) const;

  private:
    static constexpr std::size_t kLayers =
        static_cast<std::size_t>(Layer::Count);

    void
    charge(Layer layer, std::int64_t ticks)
    {
        ticks_[static_cast<std::size_t>(layer)] += ticks;
        ++calls_[static_cast<std::size_t>(layer)];
    }

    bool timing_ = false;
    std::int64_t prev_ = 0;        ///< counter at the last boundary
    std::int64_t nested_prev_ = 0; ///< ... of either kind
    std::array<std::int64_t, kLayers> ticks_{};
    std::array<std::uint64_t, kLayers> calls_{};
    std::array<std::uint64_t, kLayers> ns_{}; ///< set by end()
    std::uint64_t timed_accesses_ = 0;
    std::int64_t bracket_start_ = 0;
    std::int64_t bracket_ticks_ = 0;
    std::uint64_t brackets_ = 0;
    std::uint64_t accesses_ = 0;
    std::uint64_t replay_ns_ = 0;
    std::int64_t start_ns_ = 0;
    std::int64_t start_counter_ = 0;
};

/** A ledger that never times: what a prefetcher observed outside a
 *  simulator run points at. */
inline constinit Ledger idle_ledger;

} // namespace csp::prof

#endif // CSP_CORE_PROFILING_H
