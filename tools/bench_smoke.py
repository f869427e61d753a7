#!/usr/bin/env python3
"""Bench smoke: perf gauges for the replay and observer paths.

Runs four quick probes against an existing build tree and writes a
single JSON scorecard (bench_scorecard.json by default) so CI tracks the
perf trajectory; each PR that moves a gauge archives its scorecard as
results/BENCH_PR<N>.json, and CI diffs against the newest of those:

  1. A reduced fig12 sweep (CSP_SCALE-scaled) timed end to end, with the
     peak resident set of the child process captured via getrusage --
     this machine image has no /usr/bin/time. The sweep-service caches
     are forced off (CSP_RESULT_CACHE=0, CSP_TRACE_CACHE=0) so this
     stays a cold-path wall-clock gauge no matter what state the working
     tree's results/cache happens to be in.
  2. `micro_prefetcher_ops` filtered to the replay-throughput, raw
     trace-decode, per-access observe() (stride, both GHB flavors,
     context) and observer benchmarks, exported as google-benchmark
     JSON and distilled to insts/s, bytes/record, and ns/op.
  3. A cold-then-warm `cspsim --workloads` sweep against fresh cache
     directories: the warm pass must be fully memoized (zero cells
     simulated) and at least MIN_WARM_SWEEP_SPEEDUP_X faster end to end.
     The warm pass runs with --events-out, so the bar also proves a
     journaled warm sweep stays >= 10x, and the scorecard distills the
     journal's warm-path read/parse attribution.
  4. An events-overhead probe: the same uncached sweep timed with the
     journal off and on, interleaved best-of-2 per side. The journaled
     sweep must retain at least MIN_EVENTS_ENABLED_RATE of the plain
     sweep's wall-clock (events are a handful of atomic JSONL writes
     per cell -- they must stay invisible next to simulation work) and
     its cell CSV must be byte-identical.

The scorecard embeds the run-provenance manifest reported by
`cspsim --manifest` (build, config digest, host), so every archived
BENCH_*.json records exactly what produced its numbers.

The script fails (exit 1) if any replayed workload's packed encoding
compresses worse than MIN_COMPRESSION_X against the retired 56-byte
array-of-structs record, so a regression in the trace encoding turns
the bench-smoke job red rather than silently fattening sweeps.

It also gates the three "disabled observability must stay free" bars
(see MIN_DISABLED_RATE for how the bar relates to timer noise):

  - BM_TraceObs_NullSink (observer attached, every sink null) must
    retain at least MIN_DISABLED_RATE of BM_TraceObs_Control's insts/s.
  - BM_LearnObs_NullTap (observer attached, learning observer null)
    must retain at least MIN_DISABLED_RATE of the control rate, so the
    learning hooks cost nothing when --learn-out is not requested.
    Control and NullTap run the same context-prefetcher code; each
    hook there is one null check.
  - BM_MemObs_NullTap (observer attached, mem observer null) must
    retain at least MIN_DISABLED_RATE of the control rate, so the
    memory-hierarchy hooks cost nothing when --mem-out is not
    requested. BM_MemObs_Recorder (all three shadow models live) is
    distilled as an ungated overhead gauge.

And two absolute hot-path bars for the context prefetcher (the PR7
flat-CST/incremental-hash rework), so a hot-path regression turns the
job red on the machine that ran it:

  - replay mcf/context must sustain at least
    MIN_MCF_CONTEXT_INSTS_PER_SEC (floor set ~30% under the tuned
    path's measured rate to absorb runner-generation noise).
  - BM_Context (per-access observe cost) must stay under
    MAX_CONTEXT_OBSERVE_NS.

And the scale-out sweep-service bars (PR8 mmap replay + result cache):

  - BM_Decode_Packed (raw TraceCursor decode, no simulator) must
    sustain MIN_DECODE_PACKED_INSTS_PER_SEC -- the absolute floor for
    the decoder that both the in-memory and mmap paths share.
  - BM_Decode_Mmap must retain at least MIN_MMAP_DECODE_RATE of the
    packed rate, so the zero-copy streaming wrapper (window bookkeeping
    + MADV_DONTNEED releases) can never quietly regress decode.
  - The warm sweep pass must simulate zero cells and run at least
    MIN_WARM_SWEEP_SPEEDUP_X faster than the cold pass.

Usage: python3 tools/bench_smoke.py [--build-dir build] [--out bench_scorecard.json]
"""

import argparse
import json
import os
import resource
import subprocess
import sys
import tempfile
import time

# The retired array-of-structs trace record was 56 bytes; the packed
# encoding must stay at least this many times smaller per record.
AOS_RECORD_BYTES = 56.0
MIN_COMPRESSION_X = 2.0

# Disabled-path overhead bar, shared by lifecycle tracing (NullSink vs
# Control) and the learning and memory observers (NullTap vs Control).
# Every disabled path runs control's replay loop with each sink's null
# check false, so their true ratio is ~1.0 -- but on single-vCPU CI
# runners two identical binaries timed seconds apart measure with up
# to ~5% spread even on best-of-N medians. The bar therefore sits below
# the noise floor but well above every *enabled* path's level
# (trace-obs 0.72, learn-obs 0.86 of control), so a hook accidentally
# left live on the disabled path still turns the job red.
MIN_DISABLED_RATE = 0.92

# Context-prefetcher hot-path bars (PR7). The tuned path replays mcf at
# ~3.0M insts/s and observes in ~330 ns on the dev machine; the floors
# leave ~30-40% headroom for slower CI runners while still catching a
# real regression (the pre-rework path ran at 1.26M insts/s / ~700 ns).
MIN_MCF_CONTEXT_INSTS_PER_SEC = 2.0e6
MAX_CONTEXT_OBSERVE_NS = 500.0

# Scale-out sweep-service bars (PR8). The shared decoder streams ~165M
# insts/s on the dev machine through either path; the absolute floor
# leaves ~2x headroom for slower CI runners. The mmap/packed ratio is
# measured at ~0.97 (same binary, same pass) -- 0.75 sits under the
# cross-benchmark timing noise but far above any real regression like a
# per-record syscall or a copy sneaking into the streaming wrapper.
MIN_DECODE_PACKED_INSTS_PER_SEC = 80.0e6
MIN_MMAP_DECODE_RATE = 0.75

# A fully-memoized sweep does no trace generation and no simulation --
# measured ~450x faster than cold on the dev machine. 10x is the
# acceptance bar: generous enough for process-startup-dominated CI
# runners, while a warm pass that re-simulates anything lands near 1x
# and fails loudly.
MIN_WARM_SWEEP_SPEEDUP_X = 10.0

# Sweep-observatory bar (PR9). The journal writes one preformatted
# line per event through an unbuffered FILE* under a mutex -- tens of
# microseconds across a whole sweep that simulates for seconds. 0.98
# is one-sided noise tolerance (best-of-2 interleaved passes), not a
# real budget: any measurable slowdown means an emitter landed on the
# per-access hot path and should fail loudly.
MIN_EVENTS_ENABLED_RATE = 0.98


def peak_child_rss_mb():
    """Peak RSS over all reaped children so far, in MiB (Linux: KiB)."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def run_fig12(build_dir, scale, jobs):
    """Reduced fig12 sweep: wall seconds + child peak RSS.

    Must run before any other child process so RUSAGE_CHILDREN's
    high-water mark belongs to the sweep alone.
    """
    binary = os.path.join(build_dir, "bench", "fig12_speedup")
    # Caches pinned off so this stays a cold-path wall-clock gauge:
    # bench binaries default to uncached runSweep today, but the env
    # knobs make that explicit rather than an accident of defaults.
    env = dict(os.environ, CSP_SCALE=str(scale),
               CSP_RESULT_CACHE="0", CSP_TRACE_CACHE="0")
    start = time.monotonic()
    subprocess.run([binary, "--jobs", str(jobs)], check=True, env=env,
                   stdout=subprocess.DEVNULL)
    return {
        "scale_factor": scale,
        "jobs": jobs,
        "seconds": round(time.monotonic() - start, 3),
        "peak_rss_mb": round(peak_child_rss_mb(), 1),
    }


def run_micro_once(build_dir, min_time, repetitions, raw_out):
    """One micro-suite pass: per-benchmark median aggregates."""
    binary = os.path.join(build_dir, "bench", "micro_prefetcher_ops")
    subprocess.run(
        [
            binary,
            "--benchmark_filter="
            "BM_Replay_|BM_ReplayMmap_|BM_Decode_|"
            "BM_TraceObs_|BM_LearnObs_|BM_MemObs_|"
            "BM_Stride$|BM_GhbGdc$|BM_GhbPcdc$|BM_Context$",
            f"--benchmark_min_time={min_time}",
            f"--benchmark_repetitions={repetitions}",
            "--benchmark_report_aggregates_only=true",
            f"--benchmark_out={raw_out}",
            "--benchmark_out_format=json",
        ],
        check=True,
        stdout=subprocess.DEVNULL,
    )
    with open(raw_out) as f:
        raw = json.load(f)["benchmarks"]
    # One repetition emits no aggregates: its single entry is the median.
    wanted = "median" if repetitions > 1 else None
    medians = []
    for bench in raw:
        if bench.get("aggregate_name") != wanted:
            continue
        bench = dict(bench)
        bench["name"] = bench["name"].removesuffix("_median")
        medians.append(bench)
    return medians


def run_micro(build_dir, min_time, repetitions, micro_runs, raw_out):
    """Replay + observe microbenchmarks as parsed google-benchmark JSON.

    Two layers of noise rejection, because every gate below is either an
    absolute bar or a ratio of two *separately-timed* benchmarks:

      1. within a pass, each benchmark runs `repetitions` times and only
         the median aggregate is kept (kills per-iteration jitter);
      2. the whole suite runs `micro_runs` times and, per benchmark, the
         pass with the lowest median real time wins (best-of-N).

    Best-of-N matters for the ratio gates: passes are sequential, so
    slow background-load drift hits a benchmark and its control
    unequally within one pass and can flap a 0.98 ratio bar even on
    medians (observed: control medians drifting ~9% between passes on a
    single-vCPU runner). The fastest observation of each benchmark is
    the least load-contaminated estimate of its true cost, and a real
    regression depresses every pass, so the gates still catch it.
    """
    best = {}
    for _ in range(max(micro_runs, 1)):
        for bench in run_micro_once(build_dir, min_time, repetitions,
                                    raw_out):
            kept = best.get(bench["name"])
            if kept is None or bench["real_time"] < kept["real_time"]:
                best[bench["name"]] = bench
    return list(best.values())


def run_manifest(build_dir):
    """Provenance block from `cspsim --manifest` (None if unavailable)."""
    binary = os.path.join(build_dir, "tools", "cspsim")
    try:
        out = subprocess.run([binary, "--manifest"], check=True,
                             stdout=subprocess.PIPE).stdout
        return json.loads(out)
    except (OSError, subprocess.CalledProcessError, ValueError) as err:
        print(f"warning: no manifest from {binary}: {err}",
              file=sys.stderr)
        return None


def distill(benchmarks):
    """Split raw entries into replay/observer rates + observe costs."""
    replay = {}
    replay_mmap = {}
    decode = {}
    trace_obs = {}
    learn_obs = {}
    mem_obs = {}
    observe_ns = {}
    for bench in benchmarks:
        name = bench["name"]
        if name.startswith("BM_ReplayMmap_"):
            # BM_ReplayMmap_<Workload>_<Prefetcher>: streaming replay
            # out of a mapped trace file (no bytes_per_record -- the
            # encoding gauge belongs to the in-memory twin above).
            _, _, workload, prefetcher = name.split("_")
            replay_mmap[f"{workload.lower()}/{prefetcher.lower()}"] = {
                "insts_per_sec": round(bench["insts/s"]),
                "trace_bytes": int(bench["trace_bytes"]),
            }
        elif name.startswith("BM_Replay_"):
            # BM_Replay_<Workload>_<Prefetcher>
            _, _, workload, prefetcher = name.split("_")
            bpr = bench["bytes_per_record"]
            replay[f"{workload.lower()}/{prefetcher.lower()}"] = {
                "insts_per_sec": round(bench["insts/s"]),
                "bytes_per_record": round(bpr, 2),
                "compression_x": round(AOS_RECORD_BYTES / bpr, 2),
                "trace_bytes": int(bench["trace_bytes"]),
            }
        elif name.startswith("BM_Decode_"):
            # BM_Decode_<Packed|Mmap>: raw decoder rates, no simulator.
            mode = name.removeprefix("BM_Decode_").lower()
            decode[mode] = {
                "insts_per_sec": round(bench["insts/s"]),
                "records_per_sec": round(bench["records/s"]),
            }
        elif name.startswith("BM_TraceObs_"):
            # BM_TraceObs_<Mode>: lifecycle-tracing replay rates
            mode = name.removeprefix("BM_TraceObs_").lower()
            trace_obs[mode] = round(bench["insts/s"])
        elif name.startswith("BM_LearnObs_"):
            # BM_LearnObs_<NullTap|Recorder>: learning-observer rates
            mode = name.removeprefix("BM_LearnObs_").lower()
            learn_obs[mode] = round(bench["insts/s"])
        elif name.startswith("BM_MemObs_"):
            # BM_MemObs_<NullTap|Recorder>: mem-observer replay rates
            mode = name.removeprefix("BM_MemObs_").lower()
            mem_obs[mode] = round(bench["insts/s"])
        else:
            observe_ns[name.removeprefix("BM_").lower()] = round(
                bench["real_time"], 1)
    return (replay, replay_mmap, decode, trace_obs, learn_obs, mem_obs,
            observe_ns)


def run_sweep_probe(build_dir, scale, jobs):
    """Cold-then-warm sweep through fresh cache dirs; wall times + cache
    accounting.

    Both passes run the identical command against the same (initially
    empty) result/trace cache directories, so the second pass exercises
    exactly the memoized path a real re-run takes: trace-memo reads
    for the digests, then every cell served from results/cache.
    The returned dict carries what main() gates: the warm pass's cache
    block (zero simulated cells is the correctness half of the bar) and
    the cold/warm wall-clock ratio (the perf half). The cell CSVs on
    stdout must match byte for byte -- caching must be invisible in the
    deterministic data.

    The warm pass also runs with --events-out, so the >= 10x bar covers
    a journaled warm sweep, and the journal's sweep_end roll-up is
    distilled into the scorecard's warm-path read/parse attribution
    (the JSON-parse bottleneck the observatory exists to quantify).
    """
    binary = os.path.join(build_dir, "tools", "cspsim")
    with tempfile.TemporaryDirectory(prefix="csp_bench_sweep_") as tmp:
        cmd = [
            binary, "--workloads", "ubench", "--prefetcher", "all",
            "--scale", str(scale), "--jobs", str(jobs),
            "--result-cache-dir", os.path.join(tmp, "results"),
            "--trace-cache", os.path.join(tmp, "traces"),
        ]

        def one_pass(label, extra=()):
            out = os.path.join(tmp, label + ".json")
            start = time.monotonic()
            csv = subprocess.run(cmd + ["--sweep-out", out] +
                                 list(extra),
                                 check=True,
                                 stdout=subprocess.PIPE).stdout
            seconds = time.monotonic() - start
            with open(out) as f:
                cache = json.load(f)["cache"]
            return seconds, cache, csv

        cold_seconds, cold_cache, cold_csv = one_pass("cold")
        events_path = os.path.join(tmp, "warm.events.jsonl")
        warm_seconds, warm_cache, warm_csv = one_pass(
            "warm", ["--events-out", events_path])
        journal = distill_journal(events_path)
    return {
        "scale": scale,
        "jobs": jobs,
        "cells": int(warm_cache["cells_total"]),
        "cold_seconds": round(cold_seconds, 3),
        "warm_seconds": round(warm_seconds, 3),
        "speedup_x": round(cold_seconds / max(warm_seconds, 1e-9), 1),
        "cold_cells_simulated": int(cold_cache["cells_simulated"]),
        "warm_cells_simulated": int(warm_cache["cells_simulated"]),
        "warm_cells_cached": int(warm_cache["cells_cached"]),
        "csv_identical": cold_csv == warm_csv,
        "warm_journal": journal,
    }


def distill_journal(path):
    """Warm-path attribution from a --events-out journal's roll-up.

    Returns the sweep_end cache counters plus event counts; journal_ok
    is the (gated) structural check: every line parses, the journal
    opens with sweep_start and carries exactly one sweep_end.
    """
    events = []
    try:
        with open(path) as f:
            for line in f:
                if line.strip():
                    events.append(json.loads(line))
    except (OSError, ValueError) as err:
        print(f"warning: bad events journal {path}: {err}",
              file=sys.stderr)
        return {"journal_ok": False}
    ends = [ev for ev in events if ev.get("event") == "sweep_end"]
    ok = (bool(events) and events[0].get("event") == "sweep_start"
          and events[0].get("schema") == "csp-events-v1"
          and len(ends) == 1)
    if not ok:
        return {"journal_ok": False, "events": len(events)}
    end = ends[0]
    cached_wall_ns = sum(ev.get("duration_ns", 0) for ev in events
                         if ev.get("event") == "cell_end"
                         and ev.get("source") == "cached")
    return {
        "journal_ok": True,
        "events": len(events),
        "cache_read_ns": int(end["cache_read_ns"]),
        "cache_parse_ns": int(end["cache_parse_ns"]),
        "cache_entry_bytes": int(end["cache_entry_bytes"]),
        "cache_verify_failures": int(end["cache_verify_failures"]),
        "cached_cell_wall_ns": cached_wall_ns,
    }


def run_events_overhead(build_dir, scale, jobs):
    """Uncached sweep timed with the journal off and on, interleaved
    best-of-2 per side.

    Interleaving pairs each off-pass with an adjacent on-pass so slow
    load drift hits both sides roughly equally; best-of-2 keeps the
    least contaminated observation of each side (the same reasoning as
    run_micro's best-of-N). The ratio gate is one-sided: only a
    journaled sweep measurably *slower* than the plain one fails.
    """
    binary = os.path.join(build_dir, "tools", "cspsim")
    with tempfile.TemporaryDirectory(prefix="csp_bench_events_") as tmp:
        cmd = [
            binary, "--workloads", "array,list,bst",
            "--prefetcher", "all", "--scale", str(scale),
            "--jobs", str(jobs),
            "--no-result-cache", "--no-trace-cache",
        ]

        def one_pass(extra=()):
            start = time.monotonic()
            csv = subprocess.run(cmd + list(extra), check=True,
                                 stdout=subprocess.PIPE).stdout
            return time.monotonic() - start, csv

        events_path = os.path.join(tmp, "events.jsonl")
        t_off, t_on = [], []
        csv_off = csv_on = None
        for _ in range(2):
            seconds, csv_off = one_pass()
            t_off.append(seconds)
            seconds, csv_on = one_pass(["--events-out", events_path])
            t_on.append(seconds)
    best_off, best_on = min(t_off), min(t_on)
    return {
        "scale": scale,
        "jobs": jobs,
        "off_seconds": round(best_off, 3),
        "on_seconds": round(best_on, 3),
        "enabled_rate": round(best_off / max(best_on, 1e-9), 4),
        "csv_identical": csv_off == csv_on,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--build-dir", default="build")
    parser.add_argument("--out", default="bench_scorecard.json")
    parser.add_argument("--fig12-scale", type=float, default=0.05,
                        help="CSP_SCALE for the reduced fig12 sweep")
    parser.add_argument("--jobs", type=int, default=2)
    parser.add_argument("--sweep-scale", type=int, default=100000,
                        help="per-workload scale for the cold/warm "
                             "sweep-cache probe")
    parser.add_argument("--events-scale", type=int, default=100000,
                        help="per-workload scale for the events-"
                             "overhead probe")
    parser.add_argument("--min-time", type=float, default=0.1,
                        help="--benchmark_min_time per microbenchmark")
    parser.add_argument("--repetitions", type=int, default=3,
                        help="benchmark repetitions; gates read medians")
    parser.add_argument("--micro-runs", type=int, default=3,
                        help="micro-suite passes; per benchmark the "
                             "fastest pass's median wins (best-of-N)")
    args = parser.parse_args()

    fig12 = run_fig12(args.build_dir, args.fig12_scale, args.jobs)
    print(f"fig12 (scale x{args.fig12_scale}, jobs {args.jobs}): "
          f"{fig12['seconds']} s, peak RSS {fig12['peak_rss_mb']} MiB")

    sweep = run_sweep_probe(args.build_dir, args.sweep_scale, args.jobs)
    print(f"sweep probe (scale {args.sweep_scale}, {sweep['cells']} "
          f"cells): cold {sweep['cold_seconds']} s, warm "
          f"{sweep['warm_seconds']} s ({sweep['speedup_x']}x, "
          f"{sweep['warm_cells_simulated']} cells re-simulated)")
    journal = sweep["warm_journal"]
    if journal.get("journal_ok"):
        print(f"warm journal: {journal['events']} events, read "
              f"{journal['cache_read_ns'] / 1e6:.3f} ms, parse "
              f"{journal['cache_parse_ns'] / 1e6:.3f} ms over "
              f"{journal['cache_entry_bytes']} entry bytes")

    events = run_events_overhead(args.build_dir, args.events_scale,
                                 args.jobs)
    print(f"events overhead (scale {args.events_scale}): off "
          f"{events['off_seconds']} s, on {events['on_seconds']} s "
          f"(rate {events['enabled_rate']}, "
          f">= {MIN_EVENTS_ENABLED_RATE} required)")

    raw_out = args.out + ".raw"
    (replay, replay_mmap, decode, trace_obs, learn_obs, mem_obs,
     observe_ns) = distill(
        run_micro(args.build_dir, args.min_time, args.repetitions,
                  args.micro_runs, raw_out))
    os.remove(raw_out)

    control = trace_obs.get("control", 0)
    disabled_rate = (trace_obs["nullsink"] / control if control else 0.0)
    learn_rate = (learn_obs.get("nulltap", 0) / control
                  if control else 0.0)
    mem_rate = (mem_obs.get("nulltap", 0) / control if control else 0.0)
    # Ungated gauge: what the live shadow models (infinite tag set +
    # Fenwick stack distance + shadow cache per access) actually cost.
    mem_recorder_rate = (mem_obs.get("recorder", 0) / control
                         if control else 0.0)
    worst = min(replay.values(), key=lambda r: r["compression_x"])
    packed_rate = decode.get("packed", {}).get("insts_per_sec", 0)
    mmap_rate = decode.get("mmap", {}).get("insts_per_sec", 0)
    mmap_decode_rate = (mmap_rate / packed_rate if packed_rate else 0.0)
    report = {
        "schema": "csp-bench-smoke-v8",
        "generated_by": "tools/bench_smoke.py",
        "manifest": run_manifest(args.build_dir),
        "aos_record_bytes": AOS_RECORD_BYTES,
        "min_compression_x": worst["compression_x"],
        "replay": replay,
        "replay_mmap": replay_mmap,
        "decode": decode,
        "mmap_decode_rate": round(mmap_decode_rate, 4),
        "warm_sweep": sweep,
        "events_overhead": events,
        "trace_obs_insts_per_sec": trace_obs,
        "trace_obs_disabled_rate": round(disabled_rate, 4),
        "learn_obs_insts_per_sec": learn_obs,
        "learn_obs_disabled_rate": round(learn_rate, 4),
        "mem_obs_insts_per_sec": mem_obs,
        "mem_obs_disabled_rate": round(mem_rate, 4),
        "mem_obs_recorder_rate": round(mem_recorder_rate, 4),
        "observe_ns_per_access": observe_ns,
        "hot_path_bars": {
            "min_mcf_context_insts_per_sec": MIN_MCF_CONTEXT_INSTS_PER_SEC,
            "max_context_observe_ns": MAX_CONTEXT_OBSERVE_NS,
            "min_decode_packed_insts_per_sec":
                MIN_DECODE_PACKED_INSTS_PER_SEC,
            "min_mmap_decode_rate": MIN_MMAP_DECODE_RATE,
            "min_warm_sweep_speedup_x": MIN_WARM_SWEEP_SPEEDUP_X,
            "min_events_enabled_rate": MIN_EVENTS_ENABLED_RATE,
        },
        "fig12_reduced_sweep": fig12,
    }
    with open(args.out, "w") as f:
        json.dump(report, f, indent=2)
        f.write("\n")

    for key, gauges in sorted(replay.items()):
        print(f"replay {key}: {gauges['insts_per_sec'] / 1e6:.2f} M insts/s, "
              f"{gauges['bytes_per_record']} B/record "
              f"({gauges['compression_x']}x vs AoS)")
    for key, gauges in sorted(replay_mmap.items()):
        print(f"replay-mmap {key}: "
              f"{gauges['insts_per_sec'] / 1e6:.2f} M insts/s")
    print(f"decode packed {packed_rate / 1e6:.2f} M insts/s, mmap "
          f"{mmap_rate / 1e6:.2f} M insts/s "
          f"(rate {mmap_decode_rate:.4f}, "
          f">= {MIN_MMAP_DECODE_RATE} required)")
    for mode in ("control", "nullsink", "enabled"):
        if mode in trace_obs:
            print(f"trace-obs {mode}: {trace_obs[mode] / 1e6:.2f} M insts/s")
    for mode in ("nulltap", "recorder"):
        if mode in learn_obs:
            print(f"learn-obs {mode}: {learn_obs[mode] / 1e6:.2f} "
                  f"M insts/s")
    for mode in ("nulltap", "recorder"):
        if mode in mem_obs:
            print(f"mem-obs {mode}: {mem_obs[mode] / 1e6:.2f} "
                  f"M insts/s")
    print(f"trace-obs disabled-path rate: {disabled_rate:.4f} "
          f"(>= {MIN_DISABLED_RATE} required)")
    print(f"learn-obs disabled-path rate: {learn_rate:.4f} "
          f"(>= {MIN_DISABLED_RATE} required)")
    print(f"mem-obs disabled-path rate: {mem_rate:.4f} "
          f"(>= {MIN_DISABLED_RATE} required); recorder rate "
          f"{mem_recorder_rate:.4f} (gauge)")
    mcf_context = replay.get("mcf/context", {}).get("insts_per_sec", 0)
    context_ns = observe_ns.get("context", float("inf"))
    print(f"hot path: mcf/context {mcf_context / 1e6:.2f} M insts/s "
          f"(>= {MIN_MCF_CONTEXT_INSTS_PER_SEC / 1e6:.2f} M required), "
          f"context observe {context_ns} ns/access "
          f"(<= {MAX_CONTEXT_OBSERVE_NS} ns required)")
    print(f"wrote {args.out}")

    failed = False
    if worst["compression_x"] < MIN_COMPRESSION_X:
        print(f"FAIL: worst compression {worst['compression_x']}x "
              f"< required {MIN_COMPRESSION_X}x", file=sys.stderr)
        failed = True
    if disabled_rate < MIN_DISABLED_RATE:
        print(f"FAIL: disabled-path tracing keeps only "
              f"{disabled_rate:.4f} of the control replay rate "
              f"(bar: {MIN_DISABLED_RATE})", file=sys.stderr)
        failed = True
    if learn_rate < MIN_DISABLED_RATE:
        print(f"FAIL: disabled learning observer keeps only "
              f"{learn_rate:.4f} of the control replay rate "
              f"(bar: {MIN_DISABLED_RATE})", file=sys.stderr)
        failed = True
    if mem_rate < MIN_DISABLED_RATE:
        print(f"FAIL: disabled mem observer keeps only "
              f"{mem_rate:.4f} of the control replay rate "
              f"(bar: {MIN_DISABLED_RATE})", file=sys.stderr)
        failed = True
    if mcf_context < MIN_MCF_CONTEXT_INSTS_PER_SEC:
        print(f"FAIL: replay mcf/context {mcf_context / 1e6:.2f} M "
              f"insts/s < required "
              f"{MIN_MCF_CONTEXT_INSTS_PER_SEC / 1e6:.2f} M",
              file=sys.stderr)
        failed = True
    if context_ns > MAX_CONTEXT_OBSERVE_NS:
        print(f"FAIL: context observe {context_ns} ns/access > "
              f"ceiling {MAX_CONTEXT_OBSERVE_NS} ns",
              file=sys.stderr)
        failed = True
    if packed_rate < MIN_DECODE_PACKED_INSTS_PER_SEC:
        print(f"FAIL: packed decode {packed_rate / 1e6:.2f} M insts/s "
              f"< floor {MIN_DECODE_PACKED_INSTS_PER_SEC / 1e6:.2f} M",
              file=sys.stderr)
        failed = True
    if mmap_decode_rate < MIN_MMAP_DECODE_RATE:
        print(f"FAIL: mmap decode keeps only {mmap_decode_rate:.4f} "
              f"of the packed rate (bar: {MIN_MMAP_DECODE_RATE})",
              file=sys.stderr)
        failed = True
    if sweep["warm_cells_simulated"] != 0:
        print(f"FAIL: warm sweep re-simulated "
              f"{sweep['warm_cells_simulated']} cells (must be 0)",
              file=sys.stderr)
        failed = True
    if not sweep["csv_identical"]:
        print("FAIL: warm sweep CSV differs from cold sweep CSV",
              file=sys.stderr)
        failed = True
    if sweep["speedup_x"] < MIN_WARM_SWEEP_SPEEDUP_X:
        print(f"FAIL: warm sweep only {sweep['speedup_x']}x faster "
              f"than cold (bar: {MIN_WARM_SWEEP_SPEEDUP_X}x)",
              file=sys.stderr)
        failed = True
    if not journal.get("journal_ok"):
        print("FAIL: warm sweep --events-out journal is malformed",
              file=sys.stderr)
        failed = True
    if events["enabled_rate"] < MIN_EVENTS_ENABLED_RATE:
        print(f"FAIL: journaled sweep keeps only "
              f"{events['enabled_rate']} of the plain sweep's rate "
              f"(bar: {MIN_EVENTS_ENABLED_RATE})", file=sys.stderr)
        failed = True
    if not events["csv_identical"]:
        print("FAIL: sweep CSV differs with --events-out on",
              file=sys.stderr)
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
