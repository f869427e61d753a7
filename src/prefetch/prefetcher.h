/**
 * @file
 * The prefetcher interface shared by the context-based prefetcher (the
 * paper's contribution) and the competing spatio-temporal prefetchers it
 * is evaluated against (stride, GHB G/DC, GHB PC/DC, SMS).
 *
 * The simulator calls observe() once per demand access, in program
 * order, with the access's machine context and memory-system pressure;
 * the prefetcher appends candidate prefetches (real or shadow) to the
 * output vector. The simulator dispatches real candidates to the
 * hierarchy and reports each outcome back through onPrefetchOutcome().
 */

#ifndef CSP_PREFETCH_PREFETCHER_H
#define CSP_PREFETCH_PREFETCHER_H

#include <cstdint>
#include <string>
#include <vector>

#include "core/stats.h"
#include "core/types.h"
#include "mem/hierarchy.h"
#include "trace/context.h"

namespace csp::stats {
class Registry;
}

namespace csp::obs {
struct RunObserver;
}

namespace csp::prefetch {

/** One candidate emitted by a prefetcher. */
struct PrefetchRequest
{
    Addr addr = 0;
    /**
     * Shadow operations (paper section 4.1) are tracked for training but
     * never dispatched to the memory system.
     */
    bool shadow = false;
    /// Demand PC the candidate was predicted from — lifecycle-tracker
    /// attribution only, never consulted by the memory system.
    Addr pc = 0;
};

/** Everything a prefetcher may inspect about the current demand access. */
struct AccessInfo
{
    AccessSeq seq = 0;   ///< index of this access in the demand stream
    Cycle cycle = 0;     ///< issue cycle of the access
    Addr pc = 0;
    Addr vaddr = 0;
    Addr line_addr = 0;  ///< vaddr aligned to the L1 line
    /// No prefetcher reads this or loaded_value. Both stay because
    /// perfbench's replay loop writes them in step with Simulator's;
    /// they go when that second loop does.
    bool is_store = false;
    bool l1_miss = false;
    bool hit_prefetched_line = false;
    unsigned free_l1_mshrs = 0; ///< throttle input
    /// Value returned by this load (0 when unknown/not a load); see
    /// is_store.
    std::uint64_t loaded_value = 0;
    /// Full machine context (paper Table 1); never null.
    const trace::ContextSnapshot *context = nullptr;
};

/** Abstract prefetcher. */
class Prefetcher
{
  public:
    virtual ~Prefetcher();

    /** Short identifier, e.g. "context", "ghb-gdc". */
    virtual std::string name() const = 0;

    /** Observe one demand access; append candidates to @p out. */
    virtual void observe(const AccessInfo &info,
                         std::vector<PrefetchRequest> &out) = 0;

    /** Dispatch outcome for a previously emitted real candidate. */
    virtual void
    onPrefetchOutcome(Addr addr, mem::PrefetchOutcome outcome)
    {
        (void)addr;
        (void)outcome;
    }

    /** End-of-run hook (flush training structures into stats). */
    virtual void finish() {}

    /**
     * Hit-depth histogram (accesses between prediction and use), when
     * the prefetcher tracks one — the context prefetcher's feedback unit
     * does (paper Figure 8). Null otherwise.
     */
    virtual const Histogram *hitDepths() const { return nullptr; }

    /**
     * Register internal counters and gauges with the run's stats
     * registry — baselines under "prefetch.<name>.*", the context
     * prefetcher under "context.*". The registry reads through
     * pointers into this object, so it must not outlive the
     * prefetcher. Default: no stats.
     */
    virtual void registerStats(stats::Registry &registry) const
    {
        (void)registry;
    }

    /**
     * Attach the run's observer bundle, or detach it with nullptr (the
     * simulator does, at end of run). A prefetcher keeps only the sinks
     * it feeds: online learners the learning observer, prefetchers with
     * a meaningful train/predict split the profiler. The default
     * ignores the bundle. Attaching never changes what is predicted.
     */
    virtual void attach(const obs::RunObserver *observer)
    {
        (void)observer;
    }
};

/**
 * The no-op prefetcher: the paper's "baseline with no prefetching".
 */
class NullPrefetcher final : public Prefetcher
{
  public:
    std::string name() const override { return "none"; }

    void
    observe(const AccessInfo &, std::vector<PrefetchRequest> &) override
    {}
};

} // namespace csp::prefetch

#endif // CSP_PREFETCH_PREFETCHER_H
