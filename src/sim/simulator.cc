#include "sim/simulator.h"

#include <algorithm>
#include <cstdint>
#include <optional>
#include <sstream>
#include <vector>

#include "core/profiling.h"
#include "cpu/core_model.h"
#include "obs/learning_observer.h"
#include "obs/lifecycle.h"
#include "obs/mem_observer.h"
#include "obs/run_observer.h"
#include "sim/predicted_set.h"
#include "trace/hw_state.h"
#include "trace/trace_io.h"

namespace csp::sim {

using trace::InstKind;
using trace::TraceRecord;

const char *
accessClassName(AccessClass cls)
{
    switch (cls) {
      case AccessClass::HitPrefetchedLine: return "hit-prefetched";
      case AccessClass::ShorterWait: return "shorter-wait";
      case AccessClass::NonTimely: return "non-timely";
      case AccessClass::MissNotPrefetched: return "miss-not-prefetched";
      case AccessClass::HitOlderDemand: return "hit-older-demand";
      case AccessClass::Count: break;
    }
    return "?";
}

double
RunStats::classFraction(AccessClass cls) const
{
    return demand_accesses == 0
               ? 0.0
               : static_cast<double>(classCount(cls)) /
                     static_cast<double>(demand_accesses);
}

double
RunStats::targetPrefetchDistance(const MemoryConfig &memory) const
{
    return memory.l1MissPenalty(l2MissRate()) * ipc() * memFraction();
}

std::string
RunStats::toJson() const
{
    std::ostringstream out;
    out << "{\"instructions\":" << instructions
        << ",\"cycles\":" << cycles << ",\"ipc\":" << ipc()
        << ",\"l1_mpki\":" << l1Mpki() << ",\"l2_mpki\":" << l2Mpki()
        << ",\"demand_accesses\":" << demand_accesses
        << ",\"prefetches_issued\":" << hierarchy.prefetches_issued
        << ",\"prefetch_never_hit\":" << prefetch_never_hit
        << ",\"classes\":{";
    for (std::size_t c = 0;
         c < static_cast<std::size_t>(AccessClass::Count); ++c) {
        out << (c == 0 ? "" : ",") << '"'
            << accessClassName(static_cast<AccessClass>(c))
            << "\":" << classes[c];
    }
    out << "}}";
    return out.str();
}

namespace {

using prof::Layer;

/**
 * One replay: the models, the run-local counters and the per-access
 * step, which replays the records up to and including the next demand
 * access. step<false> is the loop body and carries no timing code;
 * step<true> is the same code with a ledger boundary after every layer
 * and runs only inside timedRun().
 */
template <typename Source>
struct Replay
{
    Replay(Source &trace, const SystemConfig &system,
           prefetch::Prefetcher &pf, const obs::RunObserver *observer)
        : source(trace), config(system), prefetcher(pf),
          reads_context(pf.readsContext()), core(system.core),
          hierarchy(system.memory),
          hw(system.memory.l1d.line_bytes),
          bundle(observer != nullptr ? *observer : obs::RunObserver())
    {
        bundle.ledger = &ledger;
        hierarchy.attach(&bundle);
        prefetcher.attach(&bundle);
    }
    Replay(const Replay &) = delete;
    Replay &operator=(const Replay &) = delete;

    /** Replay the trace, then the end-of-run flushes and final tick.
     *  The ledger costs the loop one compare per access, against its
     *  next sample point: a bracket opening, or the timed run that
     *  closes it. */
    void
    run()
    {
        ledger.begin();
        AccessSeq timed = prof::nextTimedRun(0);
        AccessSeq next_sample = timed - prof::kBracket;
        for (;;) {
            if (seq == next_sample) [[unlikely]] {
                if (next_sample != timed) {
                    ledger.openBracket();
                    next_sample = timed;
                } else {
                    timed = prof::nextTimedRun(timed);
                    next_sample = timed - prof::kBracket;
                    if (!timedRun())
                        break;
                    continue;
                }
            }
            if (!step<false>())
                break;
        }
        prefetcher.finish();
        hierarchy.finish();
        // A final tick, after the end-of-run flushes, covers the
        // instructions since the last one (none when the last tick
        // landed on the final instruction).
        if (ticking && core.instructions() > last_tick)
            tick(core.elapsed());
        ledger.end(seq);
    }

    /** Up to kRun accesses through the timed step; false once the trace
     *  is exhausted. */
    [[gnu::noinline]] bool
    timedRun()
    {
        const AccessSeq start = seq;
        ledger.beginRun();
        bool more = true;
        while (more && seq - start < prof::kRun)
            more = step<true>();
        ledger.endRun(seq - start);
        return more;
    }

    template <bool kTimed>
    void
    mark(Layer layer)
    {
        if constexpr (kTimed)
            ledger.mark(layer);
    }

    /** False once the trace is exhausted. */
    template <bool kTimed>
    [[gnu::always_inline]] bool
    step()
    {
        for (;;) {
            const TraceRecord *rec_ptr = source.next();
            mark<kTimed>(Layer::Decode);
            if (rec_ptr == nullptr)
                return false;
            const TraceRecord &rec = *rec_ptr;
            switch (rec.kind) {
              case InstKind::Compute:
                core.computeBurst(rec.repeat);
                mark<kTimed>(Layer::Cpu);
                break;

              case InstKind::Branch: {
                const Cycle dispatch = core.dispatchNext();
                core.complete(dispatch + 1);
                mark<kTimed>(Layer::Cpu);
                if (reads_context)
                    hw.update(rec);
                mark<kTimed>(Layer::Capture);
                break;
              }

              case InstKind::Load:
              case InstKind::Store:
                access<kTimed>(rec);
                return true;
            }
        }
    }

    template <bool kTimed>
    [[gnu::always_inline]] void
    access(const TraceRecord &rec)
    {
        const bool is_store = rec.kind == InstKind::Store;
        const Cycle dispatch = core.dispatchNext();
        const Cycle issue =
            is_store ? dispatch
                     : core.loadIssueAt(dispatch, rec.dep_on_prev_load);
        mark<kTimed>(Layer::Cpu);
        const mem::AccessResult result =
            hierarchy.access(rec.vaddr, issue, is_store, rec.pc);
        mark<kTimed>(Layer::MemAccess);
        if (is_store) {
            // The store buffer hides the fill latency; retirement only
            // needs the L1 write port.
            core.complete(issue + config.memory.l1d.access_latency);
        } else {
            core.completeLoad(result.complete);
        }
        mark<kTimed>(Layer::Cpu);

        // Classify the access (paper Figure 9).
        const Addr line = hierarchy.lineAddr(rec.vaddr);
        AccessClass cls;
        if (result.hit_prefetched_line)
            cls = AccessClass::HitPrefetchedLine;
        else if (result.shorter_wait)
            cls = AccessClass::ShorterWait;
        else if (!result.l1_miss)
            cls = AccessClass::HitOlderDemand;
        else if (predicted_unissued.contains(line))
            cls = AccessClass::NonTimely;
        else
            cls = AccessClass::MissNotPrefetched;
        ++stats.classes[static_cast<std::size_t>(cls)];
        if (cls == AccessClass::HitPrefetchedLine ||
            cls == AccessClass::ShorterWait) {
            ++useful_hits;
        }
        mark<kTimed>(Layer::Classify);

        // Hand the access to the prefetcher and dispatch its requests.
        // Only a prefetcher that reads the machine context pays for it.
        if (reads_context)
            hw.captureInto(rec, ctx);
        mark<kTimed>(Layer::Capture);
        prefetch::AccessInfo info;
        info.seq = seq;
        info.cycle = issue;
        info.pc = rec.pc;
        info.vaddr = rec.vaddr;
        info.line_addr = line;
        info.is_store = is_store;
        info.l1_miss = result.l1_miss;
        info.hit_prefetched_line = result.hit_prefetched_line;
        info.loaded_value = is_store ? 0 : rec.loaded_value;
        if (reads_context) {
            info.free_l1_mshrs = hierarchy.freeL1Mshrs(issue);
            info.context = &ctx;
        }
        requests.clear();
        mark<kTimed>(Layer::Loop);
        prefetcher.observe(info, requests);
        mark<kTimed>(Layer::Observe);
        for (const prefetch::PrefetchRequest &req : requests) {
            if (req.shadow) {
                ++requests_shadow;
                predicted_unissued.record(hierarchy.lineAddr(req.addr));
                continue;
            }
            ++requests_real;
            const mem::PrefetchOutcome outcome = hierarchy.prefetch(
                req.addr, issue, config.context.min_free_mshrs, req.pc);
            prefetcher.onPrefetchOutcome(req.addr, outcome);
            if (outcome == mem::PrefetchOutcome::NoMshr)
                predicted_unissued.record(hierarchy.lineAddr(req.addr));
        }
        mark<kTimed>(Layer::MemPrefetch);
        if (reads_context)
            hw.update(rec);
        mark<kTimed>(Layer::Capture);
        ++seq;

        // Observation tick check, on the memory-access path only (every
        // grid point is crossed within a few hundred instructions on any
        // workload; the compute/branch paths stay call-free and
        // register-resident). One tick per crossing, however many grid
        // points this access spans.
        if (core.instructions() >= next_tick) [[unlikely]] {
            tick(issue);
            while (next_tick <= last_tick)
                next_tick += tick_every;
        }
    }

    /** One observation tick, timed whole as sim.tick. */
    [[gnu::noinline]] void
    tick(Cycle now)
    {
        const std::int64_t start = prof::readCounter();
        obs::Tick t;
        t.instructions = core.instructions();
        t.cycle = now;
        t.every = tick_every;
        t.queue = hierarchy.queueSample(now);
        if (bundle.tracker != nullptr)
            bundle.tracker->onTick(t);
        if (bundle.mem != nullptr)
            bundle.mem->onTick(t);
        prefetcher.onTick(t);
        if (sampler != nullptr)
            sampler->sample(t.instructions);
        if (progress)
            progress(t.instructions);
        last_tick = t.instructions;
        ledger.endTick(start);
    }

    Source &source;
    const SystemConfig &config;
    prefetch::Prefetcher &prefetcher;
    /// prefetcher.readsContext(), read once: whether to capture the
    /// machine context and the free L1 MSHRs for it.
    const bool reads_context;
    cpu::CoreModel core;
    mem::Hierarchy hierarchy;
    trace::HwContextTracker hw;
    PredictedSet predicted_unissued;
    RunStats stats;
    AccessSeq seq = 0;
    std::vector<prefetch::PrefetchRequest> requests;
    /// One context snapshot for the whole run; captureInto() writes
    /// every attribute per access (context readers only).
    trace::ContextSnapshot ctx;
    // Run-local counters that exist only as registry stats.
    std::uint64_t requests_real = 0;
    std::uint64_t requests_shadow = 0;
    std::uint64_t useful_hits = 0;
    prof::Ledger ledger;
    /// The caller's sinks plus the ledger: what every layer sees.
    obs::RunObserver bundle;

    // The one observation clock: every periodic consumer fires on the
    // same tick, so their rows join on instructions. The hot loop pays
    // for it with ONE compare against the next grid point (UINT64_MAX
    // when nothing consumes ticks).
    stats::IntervalSampler *sampler = nullptr;
    Simulator::ProgressFn progress;
    bool ticking = false;
    std::uint64_t tick_every = 1;
    std::uint64_t next_tick = UINT64_MAX;
    std::uint64_t last_tick = 0;
};

} // namespace

Simulator::Simulator(const SystemConfig &config) : config_(config) {}

void
Simulator::setSampling(std::uint64_t interval_insts,
                       const std::string &filter)
{
    stats_interval_ = interval_insts;
    stats_filter_ = filter;
}

void
Simulator::setReportFilter(const std::string &filter)
{
    report_filter_ = filter;
}

void
Simulator::setProgress(ProgressFn fn)
{
    progress_ = std::move(fn);
}

RunStats
Simulator::run(const trace::TraceBuffer &trace,
               prefetch::Prefetcher &prefetcher)
{
    trace::TraceCursor cursor = trace.cursor();
    return runFrom(cursor, trace.instructions(), prefetcher);
}

RunStats
Simulator::run(const trace::MappedTrace &trace,
               prefetch::Prefetcher &prefetcher)
{
    trace::StreamingTraceSource source(trace);
    return runFrom(source, trace.instructions(), prefetcher);
}


template <typename Source>
RunStats
Simulator::runFrom(Source &source, std::uint64_t instructions,
                   prefetch::Prefetcher &prefetcher)
{
    Replay<Source> replay(source, config_, prefetcher, observer_);
    const obs::RunObserver &bundle = replay.bundle;

    // The run's stats registry: every layer contributes named stats,
    // the registry reads them through pointers/callbacks only when a
    // snapshot is taken (end of run, or each sampling interval).
    const cpu::CoreModel &core = replay.core;
    stats::Registry registry;
    registry.counter(
        "sim.instructions", [&core] { return core.instructions(); },
        "instructions dispatched");
    registry.counter(
        "sim.cycles", [&core] { return core.elapsed(); },
        "cycles elapsed (last retirement)");
    registry.formula("sim.ipc", "sim.instructions", "sim.cycles", 1.0,
                     "instructions per cycle");
    registry.formula("sim.l1_mpki", "mem.l1.misses",
                     "sim.instructions", 1000.0,
                     "L1D misses per kilo-instruction");
    registry.formula("sim.l2_mpki", "mem.l2.demand_misses",
                     "sim.instructions", 1000.0,
                     "demand L2 misses per kilo-instruction");
    for (std::size_t c = 0;
         c < static_cast<std::size_t>(AccessClass::Count); ++c) {
        registry.counter(
            std::string("sim.class.") +
                accessClassName(static_cast<AccessClass>(c)),
            &replay.stats.classes[c],
            "demand accesses in this Figure-9 benefit class");
    }
    registry.counter("sim.prefetch.requests_real", &replay.requests_real,
                     "real prefetch candidates emitted");
    registry.counter("sim.prefetch.requests_shadow",
                     &replay.requests_shadow,
                     "shadow (training-only) candidates emitted");
    registry.counter("sim.prefetch.useful_hits", &replay.useful_hits,
                     "demand accesses sped up by a prefetch");
    replay.hierarchy.registerStats(registry);
    prefetcher.registerStats(registry);
    if (bundle.learn != nullptr)
        bundle.learn->registerStats(registry);
    if (bundle.mem != nullptr)
        bundle.mem->registerStats(registry);
    registry.formula("mem.mshr.occupancy_avg",
                     "mem.mshr.l1_busy_cycles", "sim.cycles", 1.0,
                     "average L1 MSHR slots in use");
    registry.formula("mem.mshr.l2_occupancy_avg",
                     "mem.mshr.l2_busy_cycles", "sim.cycles", 1.0,
                     "average L2 MSHR slots in use");

    // The grid is the stats interval when set, else about kTicksPerRun
    // ticks per run.
    std::optional<stats::IntervalSampler> sampler;
    if (stats_interval_ != 0)
        sampler.emplace(registry, stats_filter_);
    // Registered after the sampler fixed its columns, so wall-clock
    // never enters the interval series.
    replay.ledger.registerStats(registry);
    replay.sampler = sampler ? &*sampler : nullptr;
    replay.progress = progress_;
    replay.ticking = sampler || progress_ || bundle.tracker != nullptr ||
                     bundle.mem != nullptr || bundle.learn != nullptr;
    replay.tick_every =
        stats_interval_ != 0
            ? stats_interval_
            : std::max<std::uint64_t>(1, instructions / kTicksPerRun);
    if (replay.ticking)
        replay.next_tick = replay.tick_every;

    replay.run();

    // Close every still-active lifecycle as Useless and detach the
    // bundle: the prefetcher may outlive this run.
    if (bundle.tracker != nullptr)
        bundle.tracker->finish(core.elapsed());
    prefetcher.attach(nullptr);

    // RunStats keeps its public shape but is populated from the
    // registry — the registry is the single source of truth.
    RunStats &stats = replay.stats;
    stats.instructions =
        static_cast<std::uint64_t>(registry.value("sim.instructions"));
    stats.cycles = static_cast<Cycle>(registry.value("sim.cycles"));
    stats.hierarchy = replay.hierarchy.stats();
    stats.demand_accesses = static_cast<std::uint64_t>(
        registry.value("mem.l1.demand_accesses"));
    stats.l1_misses =
        static_cast<std::uint64_t>(registry.value("mem.l1.misses"));
    stats.l2_demand_misses = static_cast<std::uint64_t>(
        registry.value("mem.l2.demand_misses"));
    stats.prefetch_never_hit = static_cast<std::uint64_t>(
        registry.value("mem.prefetch.never_hit"));

    last_report_ = registry.report(report_filter_);
    last_series_ = sampler ? sampler->takeSeries() : stats::TimeSeries();
    return stats;
}

} // namespace csp::sim
