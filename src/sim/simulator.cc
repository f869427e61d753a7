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

/** Record source over a materialised vector, matching TraceCursor's
 *  `const TraceRecord *next()` shape for runFrom(). */
class VectorSource
{
  public:
    explicit VectorSource(const std::vector<TraceRecord> &records)
        : cur_(records.data()), end_(records.data() + records.size())
    {}

    const TraceRecord *
    next()
    {
        return cur_ == end_ ? nullptr : cur_++;
    }

  private:
    const TraceRecord *cur_;
    const TraceRecord *end_;
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
    return dispatchRun(cursor, trace.instructions(), prefetcher);
}

RunStats
Simulator::run(const std::vector<trace::TraceRecord> &records,
               prefetch::Prefetcher &prefetcher)
{
    std::uint64_t instructions = 0;
    for (const TraceRecord &rec : records)
        instructions += rec.kind == InstKind::Compute ? rec.repeat : 1;
    VectorSource source(records);
    return dispatchRun(source, instructions, prefetcher);
}

RunStats
Simulator::run(const trace::MappedTrace &trace,
               prefetch::Prefetcher &prefetcher)
{
    trace::StreamingTraceSource source(trace);
    return dispatchRun(source, trace.instructions(), prefetcher);
}

template <typename Source>
RunStats
Simulator::dispatchRun(Source &source, std::uint64_t instructions,
                       prefetch::Prefetcher &prefetcher)
{
    return observer_ != nullptr && observer_->profiler != nullptr
               ? runFrom<true>(source, instructions, prefetcher)
               : runFrom<false>(source, instructions, prefetcher);
}

template <bool kProfiled, typename Source>
RunStats
Simulator::runFrom(Source &source, std::uint64_t instructions,
                   prefetch::Prefetcher &prefetcher)
{
    // Folds to a compile-time nullptr in the unprofiled instantiation,
    // so every ScopedTimer below vanishes from its codegen.
    prof::Profiler *const profiler =
        kProfiled ? observer_->profiler : nullptr;
    cpu::CoreModel core(config_.core);
    mem::Hierarchy hierarchy(config_.memory);
    hierarchy.attach(observer_);
    prefetcher.attach(observer_);
    trace::HwContextTracker hw(config_.memory.l1d.line_bytes);
    PredictedSet predicted_unissued;

    RunStats stats;
    AccessSeq seq = 0;
    std::vector<prefetch::PrefetchRequest> requests;

    // Run-local counters that exist only as registry stats.
    std::uint64_t requests_real = 0;
    std::uint64_t requests_shadow = 0;
    std::uint64_t useful_hits = 0;

    // The run's stats registry: every layer contributes named stats,
    // the registry reads them through pointers/callbacks only when a
    // snapshot is taken (end of run, or each sampling interval).
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
            &stats.classes[c],
            "demand accesses in this Figure-9 benefit class");
    }
    registry.counter("sim.prefetch.requests_real", &requests_real,
                     "real prefetch candidates emitted");
    registry.counter("sim.prefetch.requests_shadow", &requests_shadow,
                     "shadow (training-only) candidates emitted");
    registry.counter("sim.prefetch.useful_hits", &useful_hits,
                     "demand accesses sped up by a prefetch");
    hierarchy.registerStats(registry);
    prefetcher.registerStats(registry);
    if (observer_ != nullptr && observer_->learn != nullptr)
        observer_->learn->registerStats(registry);
    if (observer_ != nullptr && observer_->mem != nullptr)
        observer_->mem->registerStats(registry);
    if constexpr (kProfiled)
        profiler->registerStats(registry);
    registry.formula("mem.mshr.occupancy_avg",
                     "mem.mshr.l1_busy_cycles", "sim.cycles", 1.0,
                     "average L1 MSHR slots in use");
    registry.formula("mem.mshr.l2_occupancy_avg",
                     "mem.mshr.l2_busy_cycles", "sim.cycles", 1.0,
                     "average L2 MSHR slots in use");

    // The one observation clock: every periodic consumer fires on the
    // same tick, so their rows join on instructions. The grid is the
    // stats interval when set, else about kTicksPerRun ticks per run.
    std::optional<stats::IntervalSampler> sampler;
    if (stats_interval_ != 0)
        sampler.emplace(registry, stats_filter_);
    obs::PrefetchTracker *const tracker =
        observer_ != nullptr ? observer_->tracker : nullptr;
    obs::MemObserver *const mem_obs =
        observer_ != nullptr ? observer_->mem : nullptr;
    const bool ticking =
        sampler || progress_ || tracker != nullptr ||
        mem_obs != nullptr ||
        (observer_ != nullptr && observer_->learn != nullptr);
    const std::uint64_t tick_every =
        stats_interval_ != 0
            ? stats_interval_
            : std::max<std::uint64_t>(1, instructions / kTicksPerRun);
    std::uint64_t last_tick = 0;
    const auto tick = [&](Cycle now) {
        obs::Tick t;
        t.instructions = core.instructions();
        t.cycle = now;
        t.every = tick_every;
        t.queue = hierarchy.queueSample(now);
        if (tracker != nullptr)
            tracker->onTick(t);
        if (mem_obs != nullptr)
            mem_obs->onTick(t);
        prefetcher.onTick(t);
        if (sampler) {
            prof::ScopedTimer timer(profiler, prof::Phase::StatsFlush);
            sampler->sample(t.instructions);
        }
        if (progress_)
            progress_(t.instructions);
        last_tick = t.instructions;
    };

    // The hot loop pays for instrumentation with ONE compare against
    // the next grid point (UINT64_MAX when nothing consumes ticks).
    std::uint64_t next_tick = ticking ? tick_every : UINT64_MAX;

    // One context snapshot for the whole run; captureInto() writes
    // every attribute per access.
    trace::ContextSnapshot ctx;

    // Replay wall-clock is inclusive of the finer phases timed inside
    // the loop (mem.access, mem.prefetch, prefetch.observe). Timed
    // manually rather than via ScopedTimer: the accumulated value must
    // land in the profiler before the end-of-run registry snapshot.
    std::chrono::steady_clock::time_point replay_start;
    if (profiler != nullptr)
        replay_start = std::chrono::steady_clock::now();

    while (const TraceRecord *rec_ptr = source.next()) {
        const TraceRecord &rec = *rec_ptr;
        switch (rec.kind) {
          case InstKind::Compute:
            core.computeBurst(rec.repeat);
            break;

          case InstKind::Branch: {
            const Cycle dispatch = core.dispatchNext();
            core.complete(dispatch + 1);
            hw.update(rec);
            break;
          }

          case InstKind::Load:
          case InstKind::Store: {
            const bool is_store = rec.kind == InstKind::Store;
            const Cycle dispatch = core.dispatchNext();
            const Cycle issue = is_store
                                    ? dispatch
                                    : core.loadIssueAt(
                                          dispatch,
                                          rec.dep_on_prev_load);
            mem::AccessResult result;
            {
                prof::ScopedTimer timer(profiler,
                                        prof::Phase::MemAccess);
                result = hierarchy.access(rec.vaddr, issue, is_store,
                                          rec.pc);
            }
            if (is_store) {
                // The store buffer hides the fill latency; retirement
                // only needs the L1 write port.
                core.complete(
                    issue + config_.memory.l1d.access_latency);
            } else {
                core.completeLoad(result.complete);
            }

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

            // Hand the access to the prefetcher and dispatch its
            // requests.
            hw.captureInto(rec, ctx);
            prefetch::AccessInfo info;
            info.seq = seq;
            info.cycle = issue;
            info.pc = rec.pc;
            info.vaddr = rec.vaddr;
            info.line_addr = line;
            info.is_store = is_store;
            info.l1_miss = result.l1_miss;
            info.hit_prefetched_line = result.hit_prefetched_line;
            info.free_l1_mshrs = hierarchy.freeL1Mshrs(issue);
            info.loaded_value = is_store ? 0 : rec.loaded_value;
            info.context = &ctx;
            requests.clear();
            {
                prof::ScopedTimer timer(profiler,
                                        prof::Phase::PrefetchObserve);
                prefetcher.observe(info, requests);
            }
            {
                prof::ScopedTimer timer(profiler,
                                        prof::Phase::MemPrefetch);
                for (const prefetch::PrefetchRequest &req : requests) {
                    if (req.shadow)
                        ++requests_shadow;
                    else
                        ++requests_real;
                    if (req.shadow) {
                        predicted_unissued.record(
                            hierarchy.lineAddr(req.addr));
                        continue;
                    }
                    const mem::PrefetchOutcome outcome =
                        hierarchy.prefetch(
                            req.addr, issue,
                            config_.context.min_free_mshrs, req.pc);
                    prefetcher.onPrefetchOutcome(req.addr, outcome);
                    if (outcome == mem::PrefetchOutcome::NoMshr) {
                        predicted_unissued.record(
                            hierarchy.lineAddr(req.addr));
                    }
                }
            }

            hw.update(rec);
            ++seq;

            // Observation tick check, on the memory-access path only
            // (every grid point is crossed within a few hundred
            // instructions on any workload; the compute/branch paths
            // stay call-free and register-resident). One tick per
            // crossing, however many grid points this access spans.
            if (core.instructions() >= next_tick) [[unlikely]] {
                tick(issue);
                while (next_tick <= last_tick)
                    next_tick += tick_every;
            }
            break;
          }
        }
    }

    prefetcher.finish();
    hierarchy.finish();
    if constexpr (kProfiled) {
        if (profiler != nullptr) {
            const auto replay_ns =
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    std::chrono::steady_clock::now() - replay_start)
                    .count();
            profiler->add(prof::Phase::Replay,
                          static_cast<std::uint64_t>(replay_ns));
        }
    }
    // A final tick, after the end-of-run flushes, covers the
    // instructions since the last one (none when the last tick landed
    // on the final instruction).
    if (ticking && core.instructions() > last_tick)
        tick(core.elapsed());
    // Close every still-active lifecycle as Useless and detach the
    // bundle: the prefetcher may outlive this run.
    if (tracker != nullptr)
        tracker->finish(core.elapsed());
    prefetcher.attach(nullptr);

    // RunStats keeps its public shape but is populated from the
    // registry — the registry is the single source of truth.
    stats.instructions =
        static_cast<std::uint64_t>(registry.value("sim.instructions"));
    stats.cycles = static_cast<Cycle>(registry.value("sim.cycles"));
    stats.hierarchy = hierarchy.stats();
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
