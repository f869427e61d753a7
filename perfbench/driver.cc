/**
 * @file
 * perfbench_driver — the benchmark's own C++ helper. It links the
 * simulator's libraries and calls only their public functions; nothing
 * under src/ is instrumented.
 *
 *   stream  One stream-replay iteration. Set-up generates every trace,
 *           saves it as a trace file and maps it back (MappedTrace);
 *           the replay then runs every (workload, prefetcher) cell out
 *           of the mapping through Simulator::run. With --reference the
 *           in-memory traces are replayed instead, untimed, to give the
 *           counts the mmap replay must reproduce.
 *   trace   The traced run. Fixed-cost probes, trace generation and the
 *           trace-file round trip, then the grid replayed three times:
 *           by Simulator::run (the reference counts), by the benchmark's
 *           own copy of Simulator::runFrom's loop untraced, and by the
 *           same loop with spans on 1 access in 1024. Both own-loop passes
 *           must reproduce the reference counts exactly, or the run
 *           fails instead of mis-attributing time.
 *
 * Each subcommand prints one JSON document on stdout.
 */

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#endif

#include "core/config.h"
#include "core/run_manifest.h"
#include "cpu/core_model.h"
#include "mem/hierarchy.h"
#include "prefetch/prefetcher.h"
#include "sim/experiment.h"
#include "sim/predicted_set.h"
#include "sim/result_cache.h"
#include "sim/simulator.h"
#include "trace/hw_state.h"
#include "trace/trace.h"
#include "trace/trace_io.h"
#include "workloads/registry.h"

namespace {

using namespace csp;
using Clock = std::chrono::steady_clock;

std::int64_t
nowNs()
{
    static const Clock::time_point epoch = Clock::now();
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - epoch)
        .count();
}

/*
 * Span boundaries read the time-stamp counter without a fence where the
 * target has one. steady_clock's read is ordered (it fences), so every
 * boundary would wait for the replay loop's outstanding host cache
 * misses and inflate the very layers it measures. Ticks convert to the
 * steady_clock timeline through a rate calibrated against it.
 */
#if defined(__x86_64__) || defined(__i386__)
std::int64_t
spanTicks()
{
    return static_cast<std::int64_t>(__rdtsc());
}
#else
std::int64_t
spanTicks()
{
    return nowNs();
}
#endif

struct TickScale
{
    double ns_per_tick = 1.0;
    std::int64_t tick0 = 0;
    std::int64_t ns0 = 0;

    std::int64_t
    toNs(std::int64_t ticks) const
    {
        return ns0 + static_cast<std::int64_t>(
                         static_cast<double>(ticks - tick0) * ns_per_tick);
    }
};

TickScale
calibrateTicks()
{
    TickScale scale;
    scale.ns0 = nowNs();
    scale.tick0 = spanTicks();
    while (nowNs() - scale.ns0 < 50'000'000) {
    }
    const std::int64_t ns1 = nowNs();
    const std::int64_t tick1 = spanTicks();
    if (tick1 > scale.tick0) {
        scale.ns_per_tick = static_cast<double>(ns1 - scale.ns0) /
                            static_cast<double>(tick1 - scale.tick0);
    }
    return scale;
}

TickScale g_ticks;

[[noreturn]] void
die(const std::string &message)
{
    std::fprintf(stderr, "perfbench_driver: %s\n", message.c_str());
    std::exit(2);
}

std::vector<std::string>
splitList(const std::string &text)
{
    std::vector<std::string> out;
    std::stringstream stream(text);
    std::string item;
    while (std::getline(stream, item, ','))
        if (!item.empty())
            out.push_back(item);
    return out;
}

/** `--key value` pairs; bare `--flag` maps to "1". */
std::map<std::string, std::string>
parseArgs(int argc, char **argv, int first)
{
    std::map<std::string, std::string> args;
    for (int i = first; i < argc; ++i) {
        std::string key = argv[i];
        if (key.rfind("--", 0) != 0)
            die("unexpected argument " + key);
        key = key.substr(2);
        if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0)
            args[key] = argv[++i];
        else
            args[key] = "1";
    }
    return args;
}

std::string
need(const std::map<std::string, std::string> &args, const std::string &key)
{
    const auto it = args.find(key);
    if (it == args.end())
        die("missing --" + key);
    return it->second;
}

std::uint64_t
needU64(const std::map<std::string, std::string> &args,
        const std::string &key)
{
    const std::string text = need(args, key);
    char *end = nullptr;
    const std::uint64_t value = std::strtoull(text.c_str(), &end, 10);
    if (text.empty() || *end != '\0')
        die("--" + key + " wants an unsigned integer, got " + text);
    return value;
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 == 1 ? values[n / 2]
                      : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

void
writeStats(std::ostream &out, const sim::RunStats &stats)
{
    out << '{';
    bool first = true;
    for (const auto &[name, value] : sim::runStatsFields(stats)) {
        out << (first ? "" : ",") << '"' << name << "\":" << value;
        first = false;
    }
    out << '}';
}

bool
sameStats(const sim::RunStats &a, const sim::RunStats &b)
{
    return sim::runStatsFields(a) == sim::runStatsFields(b);
}

struct GridSpec
{
    std::vector<std::string> workloads;
    std::vector<std::string> prefetchers;
    workloads::WorkloadParams params;
    SystemConfig config;
};

GridSpec
gridSpec(const std::map<std::string, std::string> &args)
{
    GridSpec spec;
    spec.workloads = splitList(need(args, "workloads"));
    spec.prefetchers = splitList(need(args, "prefetchers"));
    spec.params.scale = needU64(args, "scale");
    spec.params.seed = needU64(args, "seed");
    spec.config.seed = spec.params.seed;
    const auto &registry = workloads::Registry::builtin();
    for (const std::string &name : spec.workloads)
        if (!registry.contains(name))
            die("unknown workload " + name);
    return spec;
}

std::string
tracePath(const std::string &dir, const std::string &workload)
{
    return dir + "/" + workload + ".csptrace";
}

void
mapTrace(trace::MappedTrace &map, const std::string &path)
{
    const trace::TraceIoStatus status = map.open(path);
    if (status != trace::TraceIoStatus::Ok)
        die("cannot map " + path + ": " + trace::traceIoStatusName(status));
}

// ---------------------------------------------------------------- stream

int
runStream(const std::map<std::string, std::string> &args)
{
    const GridSpec spec = gridSpec(args);
    const bool reference = args.count("reference") != 0;
    const std::string dir = reference ? "" : need(args, "dir");
    const auto &registry = workloads::Registry::builtin();

    std::vector<trace::TraceBuffer> buffers;
    std::vector<trace::MappedTrace> maps(spec.workloads.size());
    const std::int64_t t_setup = nowNs();
    for (std::size_t wi = 0; wi < spec.workloads.size(); ++wi) {
        trace::TraceBuffer buffer =
            registry.create(spec.workloads[wi])->generate(spec.params);
        if (reference) {
            buffers.push_back(std::move(buffer));
            continue;
        }
        const std::string path = tracePath(dir, spec.workloads[wi]);
        if (!trace::saveTraceFile(buffer, path))
            die("cannot write " + path);
        mapTrace(maps[wi], path);
    }
    const std::int64_t t_replay = nowNs();

    std::ostringstream cells;
    std::uint64_t insts = 0;
    for (std::size_t wi = 0; wi < spec.workloads.size(); ++wi) {
        for (const std::string &pf_name : spec.prefetchers) {
            auto prefetcher = sim::makePrefetcher(pf_name, spec.config);
            sim::Simulator simulator(spec.config);
            const sim::RunStats stats =
                reference ? simulator.run(buffers[wi], *prefetcher)
                          : simulator.run(maps[wi], *prefetcher);
            insts += stats.instructions;
            cells << (cells.tellp() > 0 ? ",\n" : "") << "{\"workload\":\""
                  << spec.workloads[wi] << "\",\"prefetcher\":\""
                  << pf_name << "\",\"stats\":";
            writeStats(cells, stats);
            cells << '}';
        }
    }
    const std::int64_t t_end = nowNs();

    std::cout << std::setprecision(9) << "{\"setup_s\":"
              << (t_replay - t_setup) / 1e9
              << ",\"replay_s\":" << (t_end - t_replay) / 1e9
              << ",\"insts\":" << insts << ",\"cells\":[\n"
              << cells.str() << "]}\n";
    return 0;
}

// ----------------------------------------------------------------- trace

/** Layers of the replay loop, one span name each. */
enum Layer : std::uint8_t
{
    kDecode,
    kCpu,
    kCapture,
    kMemAccess,
    kClassify,
    kObserve,
    kMemPrefetch,
    kLoop, ///< the loop's own bookkeeping between calls
    kLayers,
    kRunSpan = kLayers, ///< a timed run of accesses: parent of its calls
    kCellSpan,          ///< the whole replay of one cell
    kBracket,           ///< an untimed run, timed only at its two ends
};

const char *const kSpanNames[] = {
    "trace.decode",     "cpu",          "trace.capture", "mem.access",
    "sim.classify",     "prefetch.observe", "mem.prefetch", "sim.loop",
    "sim.run",          "sim.cell",         "sim.run.bracketed",
};

/**
 * Spans are kept on 1 access in kSampleEvery, in timed runs of kRun
 * consecutive accesses: one access alone is only a few counter reads
 * long, and a run spreads the cost of entering its rarely executed code.
 * A bracketed run of kBracketRun accesses starts on another 1 access in
 * kSampleEvery; its two reads cost next to nothing per access, so the
 * brackets cover about a fifth of the replay.
 */
constexpr std::uint64_t kSampleEvery = 1024;
constexpr std::uint64_t kRun = 16;
constexpr std::uint64_t kBracketRun = 256;

/** A timed run whose accesses took this long each, on average, lost
 *  the CPU inside it. It is left out, so that one preemption cannot
 *  land on whichever layer it hit. */
constexpr std::int64_t kInterruptedNs = 10'000;

struct Span
{
    std::int64_t start = 0;
    std::int64_t end = 0;
    std::int32_t parent = -1; ///< index into the cell's span vector
    std::uint8_t name = 0;
    std::uint16_t accesses = 0; ///< run spans: the accesses they hold
};

/** What one pass of the benchmark's replay loop returns. */
struct LoopResult
{
    sim::RunStats stats;
    std::uint64_t requests_real = 0;
    std::uint64_t useful_hits = 0;
    std::int64_t replay_ns = 0;
    std::uint64_t clock_reads = 0; ///< counter reads during the replay
    std::vector<Span> spans;
};

/** splitmix64 of the access sequence number. */
std::uint64_t
seqHash(std::uint64_t seq)
{
    std::uint64_t z = seq + 0x9e3779b97f4a7c15ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

/**
 * The benchmark's copy of Simulator::runFrom (unobserved, unprofiled):
 * the same public calls in the same order. The replay advances one
 * access at a time — one demand access and the records before it. A
 * timed run replays kRun accesses through the step<true> instantiation,
 * where every call is a span closed by one unfenced counter read;
 * everything else runs step<false>, which carries no timing code at
 * all. A bracketed run replays kBracketRun accesses untimed with one
 * read at each end: what they cost without spans.
 */
template <typename Source>
class Replayer
{
  public:
    Replayer(Source &source, prefetch::Prefetcher &prefetcher,
             const SystemConfig &config)
        : source_(source), prefetcher_(prefetcher), config_(config),
          core_(config.core), hierarchy_(config.memory),
          hw_(config.memory.l1d.line_bytes)
    {}

    /** Replay the whole trace; with @p traced, runs are kept as spans. */
    LoopResult
    run(bool traced, std::uint64_t expected_accesses)
    {
        std::vector<Span> &spans = out_.spans;
        if (traced) {
            spans.reserve(24 * (expected_accesses / kSampleEvery) + 1024);
            spans.push_back({0, 0, -1, kCellSpan});
        }
        const std::int64_t t_start = nowNs();
        if (traced) {
            for (bool more = true; more;) {
                const std::uint64_t h = seqHash(seq_);
                if ((h & (kSampleEvery * kRun - 1)) == 0)
                    more = timedRun();
                else if (((h >> 32) & (kSampleEvery - 1)) == 0)
                    more = bracketedRun();
                else
                    more = step<false>();
            }
        } else {
            while (step<false>()) {
            }
        }
        const std::int64_t t_end = nowNs();
        out_.replay_ns = t_end - t_start;
        if (traced) {
            spans[0].start = t_start;
            spans[0].end = t_end;
        }
        prefetcher_.finish();
        hierarchy_.finish();

        sim::RunStats &stats = out_.stats;
        const mem::HierarchyStats &h = hierarchy_.stats();
        stats.instructions = core_.instructions();
        stats.cycles = core_.elapsed();
        stats.hierarchy = h;
        stats.demand_accesses = h.demand_accesses;
        stats.l1_misses = h.l1_misses;
        stats.l2_demand_misses = h.l2_demand_misses;
        stats.prefetch_never_hit = h.prefetchesNeverHit();
        return std::move(out_);
    }

  private:
    bool
    timedRun()
    {
        run_ = static_cast<std::int32_t>(out_.spans.size());
        out_.spans.push_back({0, 0, 0, kRunSpan});
        ++out_.clock_reads;
        const std::int64_t start = spanTicks();
        prev_ = start;
        bool more = true;
        std::uint16_t accesses = 0;
        while (more && accesses < kRun) {
            more = step<true>();
            ++accesses;
        }
        flush();
        out_.spans[run_] = {g_ticks.toNs(start), g_ticks.toNs(prev_), 0,
                            kRunSpan, accesses};
        return more;
    }

    bool
    bracketedRun()
    {
        const std::int64_t start = spanTicks();
        bool more = true;
        std::uint16_t accesses = 0;
        while (more && accesses < kBracketRun) {
            more = step<false>();
            ++accesses;
        }
        const std::int64_t end = spanTicks();
        out_.clock_reads += 2;
        out_.spans.push_back({g_ticks.toNs(start), g_ticks.toNs(end), 0,
                              kBracket, accesses});
        return more;
    }

    template <bool kTimed>
    void
    mark(std::uint8_t layer)
    {
        if constexpr (kTimed) {
            marks_[n_marks_++] = {spanTicks(), layer};
            if (n_marks_ == marks_.size()) [[unlikely]]
                flush();
        }
    }

    /** Turn the buffered counter reads into spans of the open run. Runs
     *  when the run closes, so no vector growth lands inside it. */
    void
    flush()
    {
        for (std::size_t i = 0; i < n_marks_; ++i) {
            out_.spans.push_back({g_ticks.toNs(prev_),
                                  g_ticks.toNs(marks_[i].t), run_,
                                  marks_[i].layer});
            prev_ = marks_[i].t;
        }
        out_.clock_reads += n_marks_;
        n_marks_ = 0;
    }

    /** Replay up to and including the next demand access; false once
     *  the trace is exhausted. Kept out of line so that bracketed runs
     *  execute the very code, already warm, that untimed steps do. */
    template <bool kTimed>
    [[gnu::noinline]] bool
    step()
    {
        using trace::InstKind;
        for (;;) {
            const trace::TraceRecord *rec_ptr = source_.next();
            mark<kTimed>(kDecode);
            if (rec_ptr == nullptr)
                return false;
            const trace::TraceRecord &rec = *rec_ptr;
            switch (rec.kind) {
              case InstKind::Compute:
                core_.computeBurst(rec.repeat);
                mark<kTimed>(kCpu);
                break;

              case InstKind::Branch: {
                const Cycle dispatch = core_.dispatchNext();
                core_.complete(dispatch + 1);
                mark<kTimed>(kCpu);
                hw_.update(rec);
                mark<kTimed>(kCapture);
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
    void
    access(const trace::TraceRecord &rec)
    {
        const bool is_store = rec.kind == trace::InstKind::Store;
        const Cycle dispatch = core_.dispatchNext();
        const Cycle issue =
            is_store ? dispatch
                     : core_.loadIssueAt(dispatch, rec.dep_on_prev_load);
        mark<kTimed>(kCpu);
        const mem::AccessResult result =
            hierarchy_.access(rec.vaddr, issue, is_store, rec.pc);
        mark<kTimed>(kMemAccess);
        if (is_store)
            core_.complete(issue + config_.memory.l1d.access_latency);
        else
            core_.completeLoad(result.complete);
        mark<kTimed>(kCpu);

        const Addr line = hierarchy_.lineAddr(rec.vaddr);
        sim::AccessClass cls;
        if (result.hit_prefetched_line)
            cls = sim::AccessClass::HitPrefetchedLine;
        else if (result.shorter_wait)
            cls = sim::AccessClass::ShorterWait;
        else if (!result.l1_miss)
            cls = sim::AccessClass::HitOlderDemand;
        else if (predicted_unissued_.contains(line))
            cls = sim::AccessClass::NonTimely;
        else
            cls = sim::AccessClass::MissNotPrefetched;
        ++out_.stats.classes[static_cast<std::size_t>(cls)];
        if (cls == sim::AccessClass::HitPrefetchedLine ||
            cls == sim::AccessClass::ShorterWait) {
            ++out_.useful_hits;
        }
        mark<kTimed>(kClassify);

        hw_.captureInto(rec, ctx_);
        mark<kTimed>(kCapture);
        prefetch::AccessInfo info;
        info.seq = seq_;
        info.cycle = issue;
        info.pc = rec.pc;
        info.vaddr = rec.vaddr;
        info.line_addr = line;
        info.is_store = is_store;
        info.l1_miss = result.l1_miss;
        info.hit_prefetched_line = result.hit_prefetched_line;
        info.free_l1_mshrs = hierarchy_.freeL1Mshrs(issue);
        info.loaded_value = is_store ? 0 : rec.loaded_value;
        info.context = &ctx_;
        requests_.clear();
        mark<kTimed>(kLoop);
        prefetcher_.observe(info, requests_);
        mark<kTimed>(kObserve);
        for (const prefetch::PrefetchRequest &req : requests_) {
            if (req.shadow) {
                predicted_unissued_.record(hierarchy_.lineAddr(req.addr));
                continue;
            }
            ++out_.requests_real;
            const mem::PrefetchOutcome outcome = hierarchy_.prefetch(
                req.addr, issue, config_.context.min_free_mshrs, req.pc);
            prefetcher_.onPrefetchOutcome(req.addr, outcome);
            if (outcome == mem::PrefetchOutcome::NoMshr)
                predicted_unissued_.record(hierarchy_.lineAddr(req.addr));
        }
        mark<kTimed>(kMemPrefetch);
        hw_.update(rec);
        mark<kTimed>(kCapture);
        ++seq_;
    }

    struct Mark
    {
        std::int64_t t = 0; ///< counter ticks
        std::uint8_t layer = 0;
    };

    Source &source_;
    prefetch::Prefetcher &prefetcher_;
    const SystemConfig &config_;
    cpu::CoreModel core_;
    mem::Hierarchy hierarchy_;
    trace::HwContextTracker hw_;
    sim::PredictedSet predicted_unissued_;
    AccessSeq seq_ = 0;
    std::vector<prefetch::PrefetchRequest> requests_;
    trace::ContextSnapshot ctx_;
    LoopResult out_;
    std::array<Mark, 4096> marks_{};
    std::size_t n_marks_ = 0;
    std::int32_t run_ = -1;  ///< span index of the open timed run
    std::int64_t prev_ = 0; ///< ticks of the last read in a timed run
};

/** Median cost of one span boundary — a counter read stored to a
 *  buffer, as Replayer::mark does — the per-span correction. */
double
clockReadNs()
{
    struct Mark
    {
        std::int64_t t;
        std::uint8_t layer;
    };
    std::array<Mark, 256> marks{};
    std::vector<double> deltas;
    for (int round = 0; round < 64; ++round) {
        const std::int64_t a = spanTicks();
        for (std::size_t i = 0; i < marks.size(); ++i)
            marks[i] = {spanTicks(), static_cast<std::uint8_t>(i)};
        deltas.push_back(static_cast<double>(marks.back().t - a) *
                         g_ticks.ns_per_tick / marks.size());
    }
    return median(deltas);
}

/** Run @p fn(i) for i in @p order on @p jobs threads. */
template <typename Fn>
void
parallelFor(const std::vector<std::size_t> &order, unsigned jobs, Fn &&fn)
{
    std::atomic<std::size_t> next{0};
    const auto worker = [&] {
        for (std::size_t i; (i = next.fetch_add(1)) < order.size();)
            fn(order[i]);
    };
    std::vector<std::thread> threads;
    for (unsigned j = 1; j < jobs; ++j)
        threads.emplace_back(worker);
    worker();
    for (std::thread &thread : threads)
        thread.join();
}

struct TraceCell
{
    std::size_t workload = 0;
    std::string prefetcher;
    bool probe = false; ///< measures a prefetcher the grid lacks
    sim::RunStats reference;
    std::uint64_t ref_requests_real = 0;
    std::uint64_t ref_useful_hits = 0;
    std::uint64_t associations = 0;
    std::uint64_t pq_hits = 0;
    LoopResult plain;
    LoopResult traced;
    bool faithful = true;
};

std::uint64_t
reportValue(const stats::Report &report, const std::string &name)
{
    return report.contains(name)
               ? static_cast<std::uint64_t>(report.value(name))
               : 0;
}

int
runTrace(const std::map<std::string, std::string> &args)
{
    const GridSpec spec = gridSpec(args);
    const std::string dir = need(args, "dir");
    const unsigned jobs = static_cast<unsigned>(
        std::max<std::uint64_t>(1, needU64(args, "jobs")));
    const bool use_mmap = need(args, "source") == "mmap";
    const bool inject_mismatch = args.count("inject-mismatch") != 0;
    const std::vector<std::string> probe_prefetchers =
        args.count("probe-prefetchers")
            ? splitList(args.at("probe-prefetchers"))
            : std::vector<std::string>{};
    const std::string spans_out = need(args, "spans-out");
    const auto &registry = workloads::Registry::builtin();
    const SystemConfig &config = spec.config;

    // Fixed per-cell costs, measured first on a quiet process.
    std::vector<std::string> lineup = sim::paperPrefetchers();
    std::map<std::string, double> construct_us;
    for (const std::string &name : lineup) {
        std::vector<double> samples;
        for (int r = 0; r < 31; ++r) {
            const std::int64_t t0 = nowNs();
            auto prefetcher = sim::makePrefetcher(name, config);
            samples.push_back((nowNs() - t0) / 1e3);
        }
        construct_us[name] = median(samples);
    }
    double run_fixed_us = 0.0;
    {
        const trace::TraceBuffer empty;
        prefetch::NullPrefetcher none;
        sim::Simulator simulator(config);
        std::vector<double> samples;
        for (int r = 0; r < 201; ++r) {
            const std::int64_t t0 = nowNs();
            simulator.run(empty, none);
            samples.push_back((nowNs() - t0) / 1e3);
        }
        run_fixed_us = median(samples);
    }
    g_ticks = calibrateTicks();
    const double clock_ns = clockReadNs();

    // Trace generation, workloads in parallel like the sweep engine.
    const std::size_t n_workloads = spec.workloads.size();
    std::vector<trace::TraceBuffer> buffers(n_workloads);
    std::vector<double> gen_s(n_workloads, 0.0);
    std::vector<std::size_t> by_index(n_workloads);
    for (std::size_t i = 0; i < n_workloads; ++i)
        by_index[i] = i;
    parallelFor(by_index, jobs, [&](std::size_t wi) {
        const std::int64_t t0 = nowNs();
        buffers[wi] =
            registry.create(spec.workloads[wi])->generate(spec.params);
        gen_s[wi] = (nowNs() - t0) / 1e9;
    });

    // Trace-file round trip: save, then map with digest verification.
    std::vector<trace::MappedTrace> maps(n_workloads);
    double write_ms = 0.0;
    double open_ms = 0.0;
    std::uint64_t packed_bytes = 0;
    std::uint64_t records = 0;
    for (std::size_t wi = 0; wi < n_workloads; ++wi) {
        const std::string path = tracePath(dir, spec.workloads[wi]);
        std::int64_t t0 = nowNs();
        if (!trace::saveTraceFile(buffers[wi], path))
            die("cannot write " + path);
        write_ms += (nowNs() - t0) / 1e6;
        t0 = nowNs();
        mapTrace(maps[wi], path);
        open_ms += (nowNs() - t0) / 1e6;
        packed_bytes += buffers[wi].sizeBytes();
        records += buffers[wi].size();
    }

    // The cells: the grid, plus probe cells on the first workload for
    // prefetchers the grid does not run.
    std::vector<TraceCell> cells;
    for (std::size_t wi = 0; wi < n_workloads; ++wi) {
        for (const std::string &name : spec.prefetchers) {
            TraceCell cell;
            cell.workload = wi;
            cell.prefetcher = name;
            cells.push_back(cell);
        }
    }
    for (const std::string &name : probe_prefetchers) {
        TraceCell cell;
        cell.workload = 0;
        cell.prefetcher = name;
        cell.probe = true;
        cells.push_back(cell);
    }
    std::vector<std::size_t> order(cells.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                         return buffers[cells[a].workload].instructions() >
                                buffers[cells[b].workload].instructions();
                     });

    const auto ownPass = [&](bool traced) {
        const std::int64_t t0 = nowNs();
        parallelFor(order, jobs, [&](std::size_t k) {
            TraceCell &cell = cells[k];
            auto prefetcher = sim::makePrefetcher(cell.prefetcher, config);
            const std::uint64_t accesses =
                buffers[cell.workload].memAccesses();
            const auto replay = [&](auto &source) {
                return Replayer(source, *prefetcher, config)
                    .run(traced, accesses);
            };
            LoopResult result;
            if (use_mmap) {
                trace::StreamingTraceSource source(maps[cell.workload]);
                result = replay(source);
            } else {
                trace::TraceCursor source = buffers[cell.workload].cursor();
                result = replay(source);
            }
            (traced ? cell.traced : cell.plain) = std::move(result);
        });
        return (nowNs() - t0) / 1e9;
    };

    // Reference counts from the program's own entry point.
    const std::int64_t t_ref = nowNs();
    parallelFor(order, jobs, [&](std::size_t k) {
        TraceCell &cell = cells[k];
        auto prefetcher = sim::makePrefetcher(cell.prefetcher, config);
        sim::Simulator simulator(config);
        cell.reference = simulator.run(buffers[cell.workload], *prefetcher);
        const stats::Report &report = simulator.lastReport();
        cell.ref_requests_real =
            reportValue(report, "sim.prefetch.requests_real");
        cell.ref_useful_hits = reportValue(report, "sim.prefetch.useful_hits");
        cell.associations = reportValue(report, "context.cst.associations");
        cell.pq_hits = reportValue(report, "context.pq.hits");
    });
    const double reference_s = (nowNs() - t_ref) / 1e9;
    const double plain_s = ownPass(false);
    const double traced_s = ownPass(true);

    if (inject_mismatch && !cells.empty())
        ++cells[0].traced.stats.cycles;
    std::uint64_t mismatches = 0;
    for (TraceCell &cell : cells) {
        for (const LoopResult *pass : {&cell.plain, &cell.traced}) {
            cell.faithful = cell.faithful &&
                            sameStats(pass->stats, cell.reference) &&
                            pass->requests_real == cell.ref_requests_real &&
                            pass->useful_hits == cell.ref_useful_hits;
        }
        mismatches += cell.faithful ? 0 : 1;
    }

    // Result-cache round trip over the grid's reference stats.
    std::vector<double> store_us;
    std::vector<double> load_us;
    std::uint64_t cache_mismatches = 0;
    {
        const sim::ResultCache cache(dir + "/result-cache");
        std::filesystem::create_directories(cache.root());
        const std::uint64_t config_digest = configDigest(config);
        for (const TraceCell &cell : cells) {
            sim::CellKey key;
            key.config_digest = config_digest;
            key.trace_digest = buffers[cell.workload].contentDigest();
            key.workload = spec.workloads[cell.workload];
            key.prefetcher = cell.prefetcher;
            key.scale = spec.params.scale;
            key.seed = spec.params.seed;
            key.placement = "rand";
            std::int64_t t0 = nowNs();
            const bool stored = cache.store(key, cell.reference, "perfbench");
            store_us.push_back((nowNs() - t0) / 1e3);
            sim::RunStats loaded;
            t0 = nowNs();
            const bool hit = cache.load(key, loaded);
            load_us.push_back((nowNs() - t0) / 1e3);
            if (!stored || !hit || !sameStats(loaded, cell.reference))
                ++cache_mismatches;
        }
    }

    // Layer self time: a call span's duration less the cost of the
    // counter read that closes it, summed over a cell's timed runs and
    // scaled up to all of the cell's accesses. Timed runs that lost the
    // CPU (kInterruptedNs) are left out; bracketed runs all count, as
    // their time is the replay's.
    struct Sample
    {
        double layer_ns[kLayers] = {}; ///< over the kept timed runs
        double bracket_ns = 0.0;       ///< over the kept bracketed runs
        double bracket_steps = 0.0;
        double steps = 0.0; ///< accesses in the whole replay
    };
    std::uint64_t dropped_runs = 0;
    const auto sampleOf = [&](const LoopResult &run) {
        Sample sample;
        // One step per demand access, plus the one that ends the trace.
        sample.steps = static_cast<double>(run.stats.demand_accesses + 1);
        std::vector<char> kept(run.spans.size(), 1);
        for (std::size_t i = 0; i < run.spans.size(); ++i) {
            const Span &span = run.spans[i];
            const double dur = static_cast<double>(span.end - span.start);
            if (span.name == kRunSpan) {
                // A run's span precedes its calls' spans.
                kept[i] = span.end - span.start <
                          kInterruptedNs * static_cast<std::int64_t>(
                                               span.accesses);
                dropped_runs += kept[i] ? 0 : 1;
            } else if (span.name < kLayers && kept[span.parent]) {
                sample.layer_ns[span.name] += dur - clock_ns;
            } else if (span.name == kBracket) {
                sample.bracket_ns += dur - clock_ns;
                sample.bracket_steps += span.accesses;
            }
        }
        return sample;
    };
    // A timed run is slower than its call spans less their reads
    // account for: the reads also disturb the code around them. So each
    // cell's layer self times keep the split its timed runs measured,
    // scaled to the cost per access of its bracketed runs.
    std::uint64_t unsampled_cells = 0;
    const auto scaleOf = [&](const Sample &sample) {
        double timed_ns = 0.0;
        for (double ns : sample.layer_ns)
            timed_ns += ns;
        if (sample.bracket_steps == 0.0 || timed_ns <= 0.0) {
            ++unsampled_cells;
            return 0.0;
        }
        return sample.steps * sample.bracket_ns / sample.bracket_steps /
               timed_ns;
    };

    struct Agg
    {
        double layer_ns[kLayers] = {};
        double replay_ns = 0.0; ///< traced replay, read costs removed
        std::uint64_t insts = 0;
        std::uint64_t accesses = 0;
        std::uint64_t records = 0;
        std::uint64_t requests_real = 0;
        std::uint64_t useful_hits = 0;
    };
    Agg grid;
    std::map<std::string, Agg> per_prefetcher;
    std::uint64_t spans_total = 0;
    std::uint64_t l1_misses = 0;
    std::uint64_t l2_misses = 0;
    std::uint64_t associations = 0;
    std::uint64_t pq_hits = 0;
    for (std::size_t k = 0; k < cells.size(); ++k) {
        const TraceCell &cell = cells[k];
        const LoopResult &run = cell.traced;
        const Sample sample = sampleOf(run);
        const double scale = scaleOf(sample);
        Agg agg;
        for (int l = 0; l < kLayers; ++l)
            agg.layer_ns[l] = scale * sample.layer_ns[l];
        agg.replay_ns = static_cast<double>(run.replay_ns) -
                        clock_ns * static_cast<double>(run.clock_reads);
        agg.insts = run.stats.instructions;
        agg.accesses = run.stats.demand_accesses;
        agg.records = buffers[cell.workload].size();
        agg.requests_real = run.requests_real;
        agg.useful_hits = run.useful_hits;
        spans_total += run.spans.size();

        const auto add = [](Agg &into, const Agg &from) {
            for (int l = 0; l < kLayers; ++l)
                into.layer_ns[l] += from.layer_ns[l];
            into.replay_ns += from.replay_ns;
            into.insts += from.insts;
            into.accesses += from.accesses;
            into.records += from.records;
            into.requests_real += from.requests_real;
            into.useful_hits += from.useful_hits;
        };
        add(per_prefetcher[cell.prefetcher], agg);
        if (cell.probe)
            continue;
        add(grid, agg);
        l1_misses += cell.reference.l1_misses;
        l2_misses += cell.reference.l2_demand_misses;
        associations += cell.associations;
        pq_hits += cell.pq_hits;
    }

    // Spans stay in memory until here, then go out in one file: the
    // cell table first, then one line per span.
    {
        std::ofstream out(spans_out);
        if (!out)
            die("cannot write " + spans_out);
        out << "# cell,workload,prefetcher\n";
        for (std::size_t k = 0; k < cells.size(); ++k) {
            out << "# " << k << ',' << spec.workloads[cells[k].workload]
                << ',' << cells[k].prefetcher << '\n';
        }
        out << "cell,span,name,parent,start_ns,end_ns\n";
        for (std::size_t k = 0; k < cells.size(); ++k) {
            const std::vector<Span> &spans = cells[k].traced.spans;
            for (std::size_t i = 0; i < spans.size(); ++i) {
                out << k << ',' << i << ',' << kSpanNames[spans[i].name]
                    << ',' << spans[i].parent << ',' << spans[i].start << ','
                    << spans[i].end << '\n';
            }
        }
    }

    const auto perAccess = [](double ns, std::uint64_t n) {
        return n == 0 ? 0.0 : ns / static_cast<double>(n);
    };
    const auto ratio = [](std::uint64_t a, std::uint64_t b) {
        return b == 0 ? 0.0
                      : static_cast<double>(a) / static_cast<double>(b);
    };
    double attributed = 0.0;
    for (double ns : grid.layer_ns)
        attributed += ns;
    // Signed: negative when the layers claim more than the replay took.
    const double unattributed =
        grid.replay_ns <= 0.0 ? 0.0
                              : (grid.replay_ns - attributed) /
                                    grid.replay_ns;
    std::uint64_t gen_insts = 0;
    double gen_total_s = 0.0;
    for (std::size_t wi = 0; wi < n_workloads; ++wi) {
        gen_insts += buffers[wi].instructions();
        gen_total_s += gen_s[wi];
    }

    std::ostream &out = std::cout;
    out << std::setprecision(9) << "{\"metrics\":{";
    auto metric = [&out, first = true](const std::string &name,
                                             double value) mutable {
        out << (first ? "" : ",\n") << '"' << name << "\":" << value;
        first = false;
    };
    metric("workloads.gen_minsts_per_s",
           gen_total_s > 0.0 ? gen_insts / gen_total_s / 1e6 : 0.0);
    metric("trace.decode_ns_per_record",
           perAccess(grid.layer_ns[kDecode], grid.records));
    metric("trace.capture_ns_per_access",
           perAccess(grid.layer_ns[kCapture], grid.accesses));
    metric("trace.write_ms", write_ms);
    metric("trace.open_ms", open_ms);
    metric("trace.bytes_per_record", ratio(packed_bytes, records));
    metric("cpu.ns_per_inst", perAccess(grid.layer_ns[kCpu], grid.insts));
    metric("mem.access_ns",
           perAccess(grid.layer_ns[kMemAccess], grid.accesses));
    metric("mem.prefetch_ns",
           perAccess(grid.layer_ns[kMemPrefetch], grid.accesses));
    metric("sim.classify_ns",
           perAccess(grid.layer_ns[kClassify], grid.accesses));
    for (const std::string &name : lineup) {
        const auto it = per_prefetcher.find(name);
        const Agg agg = it == per_prefetcher.end() ? Agg{} : it->second;
        const std::string p = "prefetch." + name;
        metric(p + ".observe_ns",
               perAccess(agg.layer_ns[kObserve], agg.accesses));
        metric(p + ".construct_us", construct_us[name]);
        metric(p + ".requests_per_access",
               ratio(agg.requests_real, agg.accesses));
        metric(p + ".useful_ratio",
               ratio(agg.useful_hits, agg.requests_real));
    }
    metric("mem.l1_misses", static_cast<double>(l1_misses));
    metric("mem.l2_demand_misses", static_cast<double>(l2_misses));
    metric("context.cst.associations", static_cast<double>(associations));
    metric("context.pq.hits", static_cast<double>(pq_hits));
    metric("sim.run_fixed_us", run_fixed_us);
    metric("sim.result_cache.store_us", median(store_us));
    metric("sim.result_cache.load_us", median(load_us));
    metric("sim.unattributed_frac", std::abs(unattributed));
    metric("sim.traced_minsts_per_s", grid.insts / traced_s / 1e6);
    metric("sim.untraced_minsts_per_s", grid.insts / plain_s / 1e6);
    metric("sim.trace_overhead_frac", 1.0 - plain_s / traced_s);
    out << "},\n\"layers_self_frac\":{";
    for (int l = 0; l < kLayers; ++l) {
        out << (l == 0 ? "" : ",") << '"' << kSpanNames[l]
            << "\":" << grid.layer_ns[l] / grid.replay_ns;
    }
    out << "},\n\"per_workload_gen_minsts_per_s\":{";
    for (std::size_t wi = 0; wi < n_workloads; ++wi) {
        out << (wi == 0 ? "" : ",") << '"' << spec.workloads[wi] << "\":"
            << (gen_s[wi] > 0.0 ? buffers[wi].instructions() / gen_s[wi] / 1e6
                                : 0.0);
    }
    out << "},\n\"cells\":" << cells.size() << ",\"mismatched_cells\":"
        << mismatches << ",\"cache_mismatches\":" << cache_mismatches
        << ",\"grid_insts\":" << grid.insts
        << ",\"reference_s\":" << reference_s << ",\"untraced_s\":"
        << plain_s << ",\"traced_s\":" << traced_s
        << ",\"clock_read_ns\":" << clock_ns
        << ",\"unsampled_cells\":" << unsampled_cells
        << ",\"unattributed_signed\":" << unattributed
        << ",\"sample_every\":" << kSampleEvery << ",\"run_accesses\":"
        << kRun << ",\"spans\":" << spans_total
        << ",\"dropped_runs\":" << dropped_runs << "}\n";
    return mismatches == 0 && cache_mismatches == 0 ? 0 : 3;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        die("usage: perfbench_driver stream|trace --key value ...");
    const std::string command = argv[1];
    const auto args = parseArgs(argc, argv, 2);
    if (command == "stream")
        return runStream(args);
    if (command == "trace")
        return runTrace(args);
    die("unknown subcommand " + command);
}
