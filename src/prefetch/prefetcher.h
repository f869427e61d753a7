/**
 * @file
 * The prefetcher interface shared by the context-based prefetcher (the
 * paper's contribution) and the competing spatio-temporal prefetchers it
 * is evaluated against (stride, GHB G/DC, GHB PC/DC, SMS).
 *
 * The simulator calls observe() once per demand access, in program
 * order; the prefetcher appends candidate prefetches (real or shadow)
 * to the output vector. Only a prefetcher whose readsContext() is true
 * is handed the access's machine context and memory-system pressure:
 * capturing the context is a layer of its own, and the baselines read
 * only the PC and address. The simulator dispatches real candidates to
 * the hierarchy and reports each outcome back through
 * onPrefetchOutcome().
 */

#ifndef CSP_PREFETCH_PREFETCHER_H
#define CSP_PREFETCH_PREFETCHER_H

#include <cstdint>
#include <string>
#include <vector>

#include "core/types.h"
#include "mem/hierarchy.h"
#include "trace/context.h"

namespace csp::stats {
class Registry;
}

namespace csp::obs {
struct RunObserver;
struct Tick;
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
    /// Throttle input. Set only for a prefetcher whose readsContext()
    /// is true; 0 otherwise.
    unsigned free_l1_mshrs = 0;
    /// Value returned by this load (0 when unknown/not a load); see
    /// is_store.
    std::uint64_t loaded_value = 0;
    /// Full machine context (paper Table 1). Never null for a
    /// prefetcher whose readsContext() is true; null for every other,
    /// which must not read it.
    const trace::ContextSnapshot *context = nullptr;
};

/** Abstract prefetcher. */
class Prefetcher
{
  public:
    virtual ~Prefetcher();

    /** Short identifier, e.g. "context", "ghb-gdc". */
    virtual std::string name() const = 0;

    /**
     * Whether observe() reads AccessInfo::context and free_l1_mshrs.
     * The simulator asks once per run; when false it skips context
     * capture and hands observe() a null context and 0 free MSHRs.
     * Default: false.
     */
    virtual bool readsContext() const { return false; }

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
     * a meaningful train/predict split the ledger. The default
     * ignores the bundle. Attaching never changes what is predicted.
     */
    virtual void attach(const obs::RunObserver *observer)
    {
        (void)observer;
    }

    /** One observation tick of the simulator's instruction grid (see
     *  obs::Tick). Default: nothing; the context prefetcher hands its
     *  learning observer a snapshot. */
    virtual void onTick(const obs::Tick &tick) { (void)tick; }
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
