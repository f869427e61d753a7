/** @file Google-benchmark microbenchmarks of per-access prefetcher
 *  overhead: how much host time each prefetcher's observe() costs on a
 *  mixed synthetic stream, plus trace-generation throughput per
 *  workload (insts/sec, accesses/sec) — the other half of a sweep
 *  cell's cost. Not a paper figure — engineering data for simulator
 *  users sizing long sweeps. */

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

void
runPrefetcher(benchmark::State &state, const std::string &name)
{
    SystemConfig config;
    auto prefetcher = sim::makePrefetcher(name, config);
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

void BM_Stride(benchmark::State &s) { runPrefetcher(s, "stride"); }
void BM_GhbGdc(benchmark::State &s) { runPrefetcher(s, "ghb-gdc"); }
void BM_GhbPcdc(benchmark::State &s) { runPrefetcher(s, "ghb-pcdc"); }
void BM_Sms(benchmark::State &s) { runPrefetcher(s, "sms"); }
void BM_Context(benchmark::State &s) { runPrefetcher(s, "context"); }

BENCHMARK(BM_Stride);
BENCHMARK(BM_GhbGdc);
BENCHMARK(BM_GhbPcdc);
BENCHMARK(BM_Sms);
BENCHMARK(BM_Context);

/** Trace-generation throughput for one workload: how many simulated
 *  instructions (and memory accesses) per host second the generator
 *  produces, content digest included. Surfaces trace-gen hotspots next
 *  to the prefetcher op costs above — runSweep's phase 1 pays exactly
 *  this per trace. */
void
runTraceGen(benchmark::State &state, const std::string &name)
{
    const auto &registry = workloads::Registry::builtin();
    workloads::WorkloadParams params;
    params.scale = 50000;
    params.seed = 1;
    std::uint64_t insts = 0;
    std::uint64_t accesses = 0;
    for (auto _ : state) {
        const auto workload = registry.create(name);
        const trace::TraceBuffer trace = workload->generate(params);
        // runSweep's phase 1 digests every trace it generates.
        benchmark::DoNotOptimize(trace.contentDigest());
        insts += trace.instructions();
        accesses += trace.memAccesses();
    }
    state.counters["insts/s"] = benchmark::Counter(
        static_cast<double>(insts), benchmark::Counter::kIsRate);
    state.counters["accesses/s"] = benchmark::Counter(
        static_cast<double>(accesses), benchmark::Counter::kIsRate);
}

void BM_TraceGen_Array(benchmark::State &s) { runTraceGen(s, "array"); }
void BM_TraceGen_List(benchmark::State &s) { runTraceGen(s, "list"); }
void BM_TraceGen_Mcf(benchmark::State &s) { runTraceGen(s, "mcf"); }
void
BM_TraceGen_Graph500List(benchmark::State &s)
{
    runTraceGen(s, "graph500-list");
}
void
BM_TraceGen_SuffixArray(benchmark::State &s)
{
    runTraceGen(s, "suffixArray");
}

BENCHMARK(BM_TraceGen_Array);
BENCHMARK(BM_TraceGen_List);
BENCHMARK(BM_TraceGen_Mcf);
BENCHMARK(BM_TraceGen_Graph500List);
BENCHMARK(BM_TraceGen_SuffixArray);

/** Full-trace replay throughput through the simulator (runSweep's
 *  phase 2), plus the packed encoding's bytes/record and total
 *  resident size for the replayed trace. `bytes_per_record` is the
 *  gauge behind the >= 2x compression acceptance bar (the old AoS
 *  record was 56 bytes). */
void
runReplay(benchmark::State &state, const std::string &workload_name,
          const std::string &prefetcher_name)
{
    workloads::WorkloadParams params;
    params.scale = 100000;
    params.seed = 1;
    const trace::TraceBuffer trace = workloads::Registry::builtin()
                                         .create(workload_name)
                                         ->generate(params);
    SystemConfig config;
    std::uint64_t insts = 0;
    for (auto _ : state) {
        auto prefetcher =
            sim::makePrefetcher(prefetcher_name, config);
        sim::Simulator simulator(config);
        const sim::RunStats stats =
            simulator.run(trace, *prefetcher);
        benchmark::DoNotOptimize(stats.cycles);
        insts += stats.instructions;
    }
    state.counters["insts/s"] = benchmark::Counter(
        static_cast<double>(insts), benchmark::Counter::kIsRate);
    state.counters["bytes_per_record"] =
        benchmark::Counter(trace.bytesPerRecord());
    state.counters["trace_bytes"] = benchmark::Counter(
        static_cast<double>(trace.sizeBytes()));
}

void
BM_Replay_Mcf_None(benchmark::State &s)
{
    runReplay(s, "mcf", "none");
}
void
BM_Replay_Mcf_Context(benchmark::State &s)
{
    runReplay(s, "mcf", "context");
}
void
BM_Replay_List_None(benchmark::State &s)
{
    runReplay(s, "list", "none");
}
void
BM_Replay_List_Context(benchmark::State &s)
{
    runReplay(s, "list", "context");
}
void
BM_Replay_Libquantum_None(benchmark::State &s)
{
    runReplay(s, "libquantum", "none");
}
void
BM_Replay_Libquantum_Stride(benchmark::State &s)
{
    runReplay(s, "libquantum", "stride");
}

BENCHMARK(BM_Replay_Mcf_None);
BENCHMARK(BM_Replay_Mcf_Context);
BENCHMARK(BM_Replay_List_None);
BENCHMARK(BM_Replay_List_Context);
BENCHMARK(BM_Replay_Libquantum_None);
BENCHMARK(BM_Replay_Libquantum_Stride);

/** Raw decode throughput of the packed trace encoding, simulator
 *  excluded: TraceCursor over the in-memory buffer vs
 *  StreamingTraceSource over an mmap'd trace file (zero-copy decode
 *  plus windowed MADV_DONTNEED releases). bench_smoke.py floors the
 *  packed rate and gauges the mmap rate next to it, so neither the
 *  shared decoder nor the streaming wrapper can quietly regress. */
void
runDecode(benchmark::State &state, bool use_mmap)
{
    workloads::WorkloadParams params;
    params.scale = 100000;
    params.seed = 1;
    const trace::TraceBuffer buffer = workloads::Registry::builtin()
                                          .create("mcf")
                                          ->generate(params);
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

/** Streaming replay throughput: the same cells as the BM_Replay_*
 *  gauges above, but fed from MappedTrace + StreamingTraceSource
 *  instead of the in-memory TraceBuffer — runSweep's replay path when
 *  a cell misses the result cache but its trace sits in traces/cache.
 *  The trace is generated and saved once outside the timed loop; every
 *  iteration replays straight out of the mapping. */
void
runMmapReplay(benchmark::State &state,
              const std::string &workload_name,
              const std::string &prefetcher_name)
{
    workloads::WorkloadParams params;
    params.scale = 100000;
    params.seed = 1;
    const std::string path = "/tmp/csp_bench_mmap_" + workload_name +
                             "_" + std::to_string(getpid()) +
                             ".csptrace";
    {
        const trace::TraceBuffer buffer =
            workloads::Registry::builtin()
                .create(workload_name)
                ->generate(params);
        if (!trace::saveTraceFile(buffer, path)) {
            std::remove(path.c_str());
            state.SkipWithError("cannot save the replay trace");
            return;
        }
        // The buffer dies here; the timed loop sees only the mapping.
    }
    trace::MappedTrace mapped;
    if (mapped.open(path) != trace::TraceIoStatus::Ok) {
        std::remove(path.c_str());
        state.SkipWithError("cannot map the replay trace");
        return;
    }
    SystemConfig config;
    std::uint64_t insts = 0;
    for (auto _ : state) {
        auto prefetcher =
            sim::makePrefetcher(prefetcher_name, config);
        sim::Simulator simulator(config);
        const sim::RunStats stats =
            simulator.run(mapped, *prefetcher);
        benchmark::DoNotOptimize(stats.cycles);
        insts += stats.instructions;
    }
    state.counters["insts/s"] = benchmark::Counter(
        static_cast<double>(insts), benchmark::Counter::kIsRate);
    state.counters["trace_bytes"] = benchmark::Counter(
        static_cast<double>(mapped.payloadBytes()));
    mapped.close();
    std::remove(path.c_str());
}

void
BM_ReplayMmap_Mcf_Context(benchmark::State &s)
{
    runMmapReplay(s, "mcf", "context");
}
void
BM_ReplayMmap_List_None(benchmark::State &s)
{
    runMmapReplay(s, "list", "none");
}

BENCHMARK(BM_ReplayMmap_Mcf_Context);
BENCHMARK(BM_ReplayMmap_List_None);

/** Observer overhead on replay: every configuration replays the same
 *  mcf/context cell from one shared trace, so what is attached is the
 *  only difference between two benches:
 *   - TraceObs_Control:  no observer attached.
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

/** The mcf trace (scale 100000, seed 1) every observer bench replays,
 *  generated on first use. */
const trace::TraceBuffer &
observedTrace()
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

void
runObservedReplay(benchmark::State &state, ObsMode mode)
{
    const trace::TraceBuffer &trace = observedTrace();
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

BENCHMARK(BM_TraceObs_Control);
BENCHMARK(BM_TraceObs_NullSink);
BENCHMARK(BM_TraceObs_Enabled);
BENCHMARK(BM_LearnObs_NullTap);
BENCHMARK(BM_LearnObs_Recorder);
BENCHMARK(BM_MemObs_NullTap);
BENCHMARK(BM_MemObs_Recorder);

} // namespace

BENCHMARK_MAIN();
