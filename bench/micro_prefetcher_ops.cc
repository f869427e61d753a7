/** @file Google-benchmark microbenchmarks behind tools/bench_smoke.py's
 *  gates, and nothing else: the context prefetcher's per-access
 *  observe() cost, raw trace decode from memory and from an mmap'd
 *  file, and replay of one mcf/context cell with each observer mix.
 *  The per-prefetcher and per-layer costs of whole sweeps live in
 *  perfbench; these benches hold the bars perfbench does not. */

#include <benchmark/benchmark.h>

#include <cstdio>
#include <memory>
#include <sstream>
#include <string>
#include <unistd.h>

#include "core/rng.h"
#include "obs/learning.h"
#include "obs/lifecycle.h"
#include "obs/mem_recorder.h"
#include "obs/run_observer.h"
#include "obs/trace_events.h"
#include "sim/experiment.h"
#include "trace/hw_state.h"
#include "trace/trace_io.h"
#include "workloads/registry.h"

namespace {

using namespace csp;

/** Pre-baked mixed access stream (strided + pointer-ish + random). */
const std::vector<prefetch::AccessInfo> &
stream(const trace::ContextSnapshot &ctx)
{
    static std::vector<prefetch::AccessInfo> accesses = [&] {
        std::vector<prefetch::AccessInfo> out;
        Rng rng(7);
        Addr strided = 0x100000;
        out.reserve(8192);
        for (int i = 0; i < 8192; ++i) {
            prefetch::AccessInfo info;
            const int kind = i % 3;
            if (kind == 0) {
                strided += 64;
                info.vaddr = strided;
                info.pc = 0x400;
            } else if (kind == 1) {
                info.vaddr = 0x900000 + rng.below(4096) * 64;
                info.pc = 0x404;
            } else {
                info.vaddr = 0x4000000 + rng.below(1 << 22);
                info.pc = 0x408;
            }
            info.line_addr = alignDown(info.vaddr, 64);
            info.seq = static_cast<AccessSeq>(i);
            info.l1_miss = true;
            info.free_l1_mshrs = 4;
            out.push_back(info);
        }
        return out;
    }();
    for (auto &info : accesses)
        info.context = &ctx;
    return accesses;
}

/** One context-prefetcher observe() per iteration: the per-access
 *  learning cost bench_smoke.py caps. */
void
BM_Context(benchmark::State &state)
{
    SystemConfig config;
    auto prefetcher = sim::makePrefetcher("context", config);
    trace::ContextSnapshot ctx;
    ctx.set(trace::Attr::IP, 0x400);
    const auto &accesses = stream(ctx);
    std::vector<prefetch::PrefetchRequest> out;
    std::size_t i = 0;
    for (auto _ : state) {
        out.clear();
        prefetcher->observe(accesses[i % accesses.size()], out);
        benchmark::DoNotOptimize(out.data());
        ++i;
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(i));
}

BENCHMARK(BM_Context);

/** The mcf trace (scale 100000, seed 1) every decode and replay bench
 *  reads, generated on first use. */
const trace::TraceBuffer &
mcfTrace()
{
    static const trace::TraceBuffer trace = [] {
        workloads::WorkloadParams params;
        params.scale = 100000;
        params.seed = 1;
        return workloads::Registry::builtin().create("mcf")->generate(
            params);
    }();
    return trace;
}

/** Raw decode throughput of the packed trace encoding, simulator
 *  excluded: TraceCursor over the in-memory buffer vs
 *  StreamingTraceSource over an mmap'd trace file (zero-copy decode
 *  plus windowed MADV_DONTNEED releases). bench_smoke.py floors the
 *  packed rate and gates the mmap rate against it, so neither the
 *  shared decoder nor the streaming wrapper can quietly regress. */
void
runDecode(benchmark::State &state, bool use_mmap)
{
    const trace::TraceBuffer &buffer = mcfTrace();
    trace::MappedTrace mapped;
    std::string path;
    if (use_mmap) {
        path = "/tmp/csp_bench_decode_" + std::to_string(getpid()) +
               ".csptrace";
        if (!trace::saveTraceFile(buffer, path) ||
            mapped.open(path) != trace::TraceIoStatus::Ok) {
            std::remove(path.c_str());
            state.SkipWithError("cannot save/map the decode trace");
            return;
        }
    }
    std::uint64_t insts = 0;
    std::uint64_t records = 0;
    for (auto _ : state) {
        if (use_mmap) {
            trace::StreamingTraceSource source(mapped);
            while (const trace::TraceRecord *rec = source.next()) {
                benchmark::DoNotOptimize(rec->vaddr);
                ++records;
            }
        } else {
            trace::TraceCursor cursor(buffer);
            while (const trace::TraceRecord *rec = cursor.next()) {
                benchmark::DoNotOptimize(rec->vaddr);
                ++records;
            }
        }
        insts += buffer.instructions();
    }
    state.counters["insts/s"] = benchmark::Counter(
        static_cast<double>(insts), benchmark::Counter::kIsRate);
    state.counters["records/s"] = benchmark::Counter(
        static_cast<double>(records), benchmark::Counter::kIsRate);
    if (!path.empty())
        std::remove(path.c_str());
}

void BM_Decode_Packed(benchmark::State &s) { runDecode(s, false); }
void BM_Decode_Mmap(benchmark::State &s) { runDecode(s, true); }

BENCHMARK(BM_Decode_Packed);
BENCHMARK(BM_Decode_Mmap);

/** Observer overhead on replay: every configuration replays the same
 *  mcf/context cell from mcfTrace(), so what is attached is the only
 *  difference between two benches:
 *   - TraceObs_Control:  no observer attached. Its rate is also the
 *     context prefetcher's replay floor.
 *   - TraceObs_NullSink, LearnObs_NullTap, MemObs_NullTap: an observer
 *     with every sink null — the same replay with all runtime guards
 *     false. This is the "compiled in but disabled" cost the bench
 *     gates compare against Control.
 *   - TraceObs_Enabled:  full tracker + learning recorder + Perfetto
 *     writer into a string sink, 1-in-64 sampling — the real cost of
 *     tracing a run.
 *   - LearnObs_Recorder: full LearningRecorder, a snapshot per tick.
 *   - MemObs_Recorder:   full MemRecorder — every demand access fed
 *     through the Fenwick stack distance and the demand-only shadow
 *     cache, plus per-set fill telemetry: the real price of the
 *     3C+pollution taxonomy.
 */
enum class ObsMode
{
    Control,
    NullSink,
    Traced,
    Learning,
    Memory,
};

void
runObservedReplay(benchmark::State &state, ObsMode mode)
{
    const trace::TraceBuffer &trace = mcfTrace();
    SystemConfig config;
    std::uint64_t insts = 0;
    for (auto _ : state) {
        auto prefetcher = sim::makePrefetcher("context", config);
        sim::Simulator simulator(config);
        std::ostringstream sink;
        std::unique_ptr<obs::TraceEventWriter> events;
        std::unique_ptr<obs::PrefetchTracker> tracker;
        std::unique_ptr<obs::LearningRecorder> learner;
        std::unique_ptr<obs::MemRecorder> mem;
        obs::RunObserver observer;
        if (mode == ObsMode::Traced) {
            events = std::make_unique<obs::TraceEventWriter>(sink);
            tracker = std::make_unique<obs::PrefetchTracker>(
                events.get(), /*sample_every=*/64);
            obs::LearningRecorder::Options opts;
            opts.trace_sample = 64;
            learner = std::make_unique<obs::LearningRecorder>(
                opts, events.get());
            observer.tracker = tracker.get();
        } else if (mode == ObsMode::Learning) {
            learner = std::make_unique<obs::LearningRecorder>();
        } else if (mode == ObsMode::Memory) {
            mem = std::make_unique<obs::MemRecorder>(config.memory);
        }
        observer.learn = learner.get();
        observer.mem = mem.get();
        if (mode != ObsMode::Control)
            simulator.setObserver(&observer);
        const sim::RunStats stats = simulator.run(trace, *prefetcher);
        benchmark::DoNotOptimize(stats.cycles);
        insts += stats.instructions;
    }
    state.counters["insts/s"] = benchmark::Counter(
        static_cast<double>(insts), benchmark::Counter::kIsRate);
}

void
BM_TraceObs_Control(benchmark::State &s)
{
    runObservedReplay(s, ObsMode::Control);
}
void
BM_TraceObs_NullSink(benchmark::State &s)
{
    runObservedReplay(s, ObsMode::NullSink);
}
void
BM_TraceObs_Enabled(benchmark::State &s)
{
    runObservedReplay(s, ObsMode::Traced);
}
void
BM_LearnObs_NullTap(benchmark::State &s)
{
    runObservedReplay(s, ObsMode::NullSink);
}
void
BM_LearnObs_Recorder(benchmark::State &s)
{
    runObservedReplay(s, ObsMode::Learning);
}
void
BM_MemObs_NullTap(benchmark::State &s)
{
    runObservedReplay(s, ObsMode::NullSink);
}
void
BM_MemObs_Recorder(benchmark::State &s)
{
    runObservedReplay(s, ObsMode::Memory);
}

// One replay per repetition. bench_smoke.py pairs the repetitions of
// two benches, so each must be the same work: an iteration count
// probed per bench read 1 on some and 2 on others, and the median of
// 40 single-replay pairs spreads half as wide as 20 probed ones.
BENCHMARK(BM_TraceObs_Control)->Iterations(1);
BENCHMARK(BM_TraceObs_NullSink)->Iterations(1);
BENCHMARK(BM_TraceObs_Enabled)->Iterations(1);
BENCHMARK(BM_LearnObs_NullTap)->Iterations(1);
BENCHMARK(BM_LearnObs_Recorder)->Iterations(1);
BENCHMARK(BM_MemObs_NullTap)->Iterations(1);
BENCHMARK(BM_MemObs_Recorder)->Iterations(1);

} // namespace

BENCHMARK_MAIN();
