#include "sim/simulator.h"

#include <algorithm>
#include <cstdint>
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

namespace {

/** Instructions between two progress hook calls (see setProgress). */
constexpr std::uint64_t kProgressEvery = 100000;

} // namespace

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
    return dispatchRun(cursor, prefetcher);
}

RunStats
Simulator::run(const std::vector<trace::TraceRecord> &records,
               prefetch::Prefetcher &prefetcher)
{
    VectorSource source(records);
    return dispatchRun(source, prefetcher);
}

RunStats
Simulator::run(const trace::MappedTrace &trace,
               prefetch::Prefetcher &prefetcher)
{
    trace::StreamingTraceSource source(trace);
    return dispatchRun(source, prefetcher);
}

template <typename Source>
RunStats
Simulator::dispatchRun(Source &source, prefetch::Prefetcher &prefetcher)
{
    return observer_ != nullptr && observer_->profiler != nullptr
               ? runFrom<true>(source, prefetcher)
               : runFrom<false>(source, prefetcher);
}

template <bool kProfiled, typename Source>
RunStats
Simulator::runFrom(Source &source, prefetch::Prefetcher &prefetcher)
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

    stats::IntervalSampler sampler(registry, stats_interval_,
                                   stats_filter_);
    std::uint64_t next_progress = progress_ ? kProgressEvery : UINT64_MAX;

    // The hot loop pays for instrumentation with ONE compare against
    // this fused boundary (UINT64_MAX when sampling and progress are
    // both off); the cold path below recomputes it.
    std::uint64_t next_event =
        std::min(sampler.nextSampleAt(), next_progress);

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

            // Instrumentation boundary check, on the memory-access
            // path only (every boundary is crossed within a few
            // hundred instructions on any workload; the compute/branch
            // paths stay call-free and register-resident). One compare
            // against the fused bound when nothing is enabled.
            if (core.instructions() >= next_event) [[unlikely]] {
                const std::uint64_t insts = core.instructions();
                if (sampler.due(insts)) {
                    prof::ScopedTimer timer(profiler,
                                            prof::Phase::StatsFlush);
                    sampler.sample(insts);
                }
                if (insts >= next_progress) {
                    progress_(insts);
                    while (next_progress <= insts)
                        next_progress += kProgressEvery;
                }
                next_event =
                    std::min(sampler.nextSampleAt(), next_progress);
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
    {
        prof::ScopedTimer timer(profiler, prof::Phase::StatsFlush);
        sampler.finish(core.instructions());
    }
    // Close every still-active lifecycle as Useless and detach the
    // bundle: the prefetcher may outlive this run. The learning
    // observer detaches after finish() so the final snapshot above
    // reached it.
    if (observer_ != nullptr && observer_->tracker != nullptr)
        observer_->tracker->finish(core.elapsed());
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
    last_series_ = sampler.takeSeries();
    return stats;
}

} // namespace csp::sim
