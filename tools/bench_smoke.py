#!/usr/bin/env python3
"""Bench smoke: the gates on the context prefetcher's per-access cost,
the observer hooks and the sweep service.

Runs three probes against an existing build tree and writes one JSON
scorecard (bench_scorecard.json by default). A PR that moves a gauge
archives its scorecard as results/BENCH_PR<N>.json, and CI diffs the
deterministic gauges against the newest of those.

  1. `micro_prefetcher_ops`: its ten benches, MICRO_REPETITIONS
     repetitions each, run in one process in random interleaved order.
     An absolute gate reads a bench's median over its repetitions. A
     ratio gate pairs the k-th repetition of A with the k-th of B and
     reads the median of the per-pair ratios.
  2. A cold-then-warm `cspsim --workloads` sweep against fresh cache
     directories. The warm pass must simulate zero cells, run at least
     MIN_WARM_SWEEP_SPEEDUP_X faster and print the same CSV. It runs
     with --events-out, so the bar covers a journaled warm sweep, and
     the journal must be well-formed.
  3. An events-overhead probe: EVENTS_ROUNDS rounds of three uncached
     sweeps -- journal off, on, and off again -- each round starting
     one side later. The enabled rate is the median of the per-round
     off/on time ratios, and every sweep must print the same CSV.

Gates (exit 1 when any fails):

  - BM_TraceObs_Control (mcf/context replay, no observer) sustains
    MIN_MCF_CONTEXT_INSTS_PER_SEC;
  - BM_Context (one context observe) stays under MAX_CONTEXT_OBSERVE_NS;
  - BM_Decode_Packed sustains MIN_DECODE_PACKED_INSTS_PER_SEC, and
    BM_Decode_Mmap keeps MIN_MMAP_DECODE_RATE of it;
  - TraceObs_NullSink, LearnObs_NullTap and MemObs_NullTap keep
    MIN_DISABLED_RATE of TraceObs_Control: an observer with every sink
    null costs nothing;
  - the warm sweep bars above;
  - the journaled sweep keeps MIN_EVENTS_ENABLED_RATE of the plain one.

The three enabled observers (TraceObs_Enabled, LearnObs_Recorder,
MemObs_Recorder) are reported against control as ungated gauges.

Every timed ratio is reported with its pair count, quartiles and a
same-code ratio: NullSink against Control for the micro benches (the
same replay), the two journal-off sweeps for the events probe. A gate
value inside the same-code spread is host noise; one below it is the
code.

The scorecard embeds the run-provenance manifest reported by
`cspsim --manifest` (build, config digest, host), so every archived
BENCH_*.json records what produced its numbers.

Usage: python3 tools/bench_smoke.py [--build-dir build] [--out bench_scorecard.json]
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time

# Repetitions of each micro bench, interleaved in one process, and the
# minimum time of one repetition of the benches that do not fix their
# iteration count (each replay bench is one replay). 40 pairs put the
# same-code ratio's median within ~3% of 1.0 on a shared 4-vCPU host.
MICRO_REPETITIONS = 40
MICRO_MIN_TIME_S = 0.1

# Sweep probes: ubench (cold/warm) and array,list,bst x every
# prefetcher (events) at this scale, on this many workers.
SWEEP_SCALE = 100000
EVENTS_SCALE = 100000
JOBS = 2
EVENTS_ROUNDS = 10

# Disabled-path bar, shared by lifecycle tracing (NullSink) and the
# learning and memory observers (NullTap). Each of those benches runs
# control's replay with every sink's null check false, so the true
# ratio is 1.0; the bar sits under the same-code spread but well above
# every *enabled* path (trace-obs ~0.7, learn-obs ~0.85 of control), so
# a hook left live on the disabled path still fails.
MIN_DISABLED_RATE = 0.92

# Context-prefetcher hot-path bars. The tuned path replays mcf at
# ~3.7M insts/s and observes in ~220 ns on a 2.1 GHz Xeon; the floors
# leave ~30-40% headroom for slower CI runners while still catching a
# real regression (the pre-rework path ran at 1.26M insts/s / ~700 ns).
MIN_MCF_CONTEXT_INSTS_PER_SEC = 2.0e6
MAX_CONTEXT_OBSERVE_NS = 500.0

# The shared decoder streams ~140M insts/s through either path; the
# floor leaves ~2x headroom for slower runners. Mmap decode runs the
# same decoder, so 0.75 catches only a per-record syscall or copy
# sneaking into the streaming wrapper.
MIN_DECODE_PACKED_INSTS_PER_SEC = 80.0e6
MIN_MMAP_DECODE_RATE = 0.75

# A fully memoized sweep does no trace generation and no simulation
# (~100x faster than cold). A warm pass that re-simulates anything
# lands near 1x.
MIN_WARM_SWEEP_SPEEDUP_X = 10.0

# The journal writes one preformatted line per event -- tens of
# microseconds across a sweep that simulates for a fraction of a
# second. Any measurable slowdown means an emitter landed on the
# per-access hot path. The bar is within the same-code spread of a
# ~0.2 s sweep on a loaded host; the scorecard reports that spread.
MIN_EVENTS_ENABLED_RATE = 0.98


def paired(numer, denom):
    """Median and quartiles of the per-pair ratios numer[k] / denom[k]."""
    ratios = [a / b for a, b in zip(numer, denom, strict=True)]
    q1, _, q3 = statistics.quantiles(ratios, n=4)
    return {
        "pairs": len(ratios),
        "median": round(statistics.median(ratios), 4),
        "q1": round(q1, 4),
        "q3": round(q3, 4),
    }


def run_micro(build_dir):
    """Per-repetition samples of every micro bench, in repetition order:
    insts/s where a bench counts instructions, else ns per iteration."""
    binary = os.path.join(build_dir, "bench", "micro_prefetcher_ops")
    out = subprocess.run(
        [
            binary,
            f"--benchmark_min_time={MICRO_MIN_TIME_S}",
            f"--benchmark_repetitions={MICRO_REPETITIONS}",
            "--benchmark_enable_random_interleaving=true",
            "--benchmark_format=json",
        ],
        check=True,
        stdout=subprocess.PIPE,
    ).stdout
    samples = {}
    for bench in json.loads(out)["benchmarks"]:
        if bench["run_type"] != "iteration":
            continue
        if bench.get("error_occurred"):
            sys.exit(f"{bench['name']}: {bench['error_message']}")
        value = bench.get("insts/s", bench["real_time"])
        name = bench["run_name"].partition("/")[0]  # "/iterations:1"
        samples.setdefault(name, {})[
            bench["repetition_index"]] = value
    return {name: [reps[k] for k in sorted(reps)]
            for name, reps in samples.items()}


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


def run_sweep_probe(build_dir):
    """Cold-then-warm sweep through fresh cache dirs; wall times + cache
    accounting.

    Both passes run the identical command against the same (initially
    empty) result/trace cache directories, so the second pass exercises
    exactly the memoized path a real re-run takes: trace-memo reads
    for the digests, then every cell served from results/cache. The
    cell CSVs on stdout must match byte for byte.
    """
    binary = os.path.join(build_dir, "tools", "cspsim")
    with tempfile.TemporaryDirectory(prefix="csp_bench_sweep_") as tmp:
        cmd = [
            binary, "--workloads", "ubench", "--prefetcher", "all",
            "--scale", str(SWEEP_SCALE), "--jobs", str(JOBS),
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
        "scale": SWEEP_SCALE,
        "jobs": JOBS,
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
    # Every cache entry stamps the git SHA it was stored under, whose
    # length depends on the host (12 hex digits from a configure, 40
    # from CI's CSP_GIT_SHA); without it the byte count gauges only
    # the entry format.
    sha_bytes = int(end["cells_cached"]) * len(events[0]["git_sha"])
    return {
        "journal_ok": True,
        "events": len(events),
        "cache_read_ns": int(end["cache_read_ns"]),
        "cache_parse_ns": int(end["cache_parse_ns"]),
        "cache_entry_bytes_sans_sha":
            int(end["cache_entry_bytes"]) - sha_bytes,
        "cache_verify_failures": int(end["cache_verify_failures"]),
        "cached_cell_wall_ns": cached_wall_ns,
    }


def run_events_overhead(build_dir):
    """Uncached sweep timed with the journal off, on and off again.

    Each round starts one side later, so every side runs first, second
    and last about equally often. Returns the sweep seconds per side,
    one entry per round, and whether every sweep printed the same CSV.
    """
    binary = os.path.join(build_dir, "tools", "cspsim")
    with tempfile.TemporaryDirectory(prefix="csp_bench_events_") as tmp:
        cmd = [
            binary, "--workloads", "array,list,bst",
            "--prefetcher", "all", "--scale", str(EVENTS_SCALE),
            "--jobs", str(JOBS),
            "--no-result-cache", "--no-trace-cache",
        ]
        sides = {
            "off": [],
            "on": ["--events-out", os.path.join(tmp, "events.jsonl")],
            "off_again": [],
        }
        order = list(sides)
        seconds = {side: [] for side in sides}
        csvs = set()
        for r in range(EVENTS_ROUNDS):
            for side in order[r % 3:] + order[:r % 3]:
                start = time.monotonic()
                csvs.add(subprocess.run(cmd + sides[side], check=True,
                                        stdout=subprocess.PIPE).stdout)
                seconds[side].append(time.monotonic() - start)
    return seconds, len(csvs) == 1


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--build-dir", default="build")
    parser.add_argument("--out", default="bench_scorecard.json")
    args = parser.parse_args()

    sweep = run_sweep_probe(args.build_dir)
    journal = sweep["warm_journal"]
    seconds, events_csv_identical = run_events_overhead(args.build_dir)
    micro = run_micro(args.build_dir)

    same_code = paired(micro["BM_TraceObs_NullSink"],
                       micro["BM_TraceObs_Control"])

    def micro_ratio(numer, denom="BM_TraceObs_Control", bar=None):
        entry = paired(micro[numer], micro[denom])
        entry["same_code"] = same_code
        if bar is not None:
            entry["bar"] = bar
        return entry

    events_rate = paired(seconds["off"], seconds["on"])
    events_rate["same_code"] = paired(seconds["off"],
                                      seconds["off_again"])
    events_rate["bar"] = MIN_EVENTS_ENABLED_RATE
    ratios = {
        "trace_obs_disabled_rate": micro_ratio(
            "BM_TraceObs_NullSink", bar=MIN_DISABLED_RATE),
        "learn_obs_disabled_rate": micro_ratio(
            "BM_LearnObs_NullTap", bar=MIN_DISABLED_RATE),
        "mem_obs_disabled_rate": micro_ratio(
            "BM_MemObs_NullTap", bar=MIN_DISABLED_RATE),
        "mmap_decode_rate": micro_ratio(
            "BM_Decode_Mmap", "BM_Decode_Packed", MIN_MMAP_DECODE_RATE),
        "events_enabled_rate": events_rate,
        "trace_obs_enabled_rate": micro_ratio("BM_TraceObs_Enabled"),
        "learn_obs_recorder_rate": micro_ratio("BM_LearnObs_Recorder"),
        "mem_obs_recorder_rate": micro_ratio("BM_MemObs_Recorder"),
    }
    insts_per_sec = {
        name.removeprefix("BM_").lower(): round(statistics.median(values))
        for name, values in sorted(micro.items()) if name != "BM_Context"
    }
    mcf_context = insts_per_sec["traceobs_control"]
    packed = insts_per_sec["decode_packed"]
    context_ns = round(statistics.median(micro["BM_Context"]), 1)

    report = {
        "schema": "csp-bench-smoke-v9",
        "generated_by": "tools/bench_smoke.py",
        "manifest": run_manifest(args.build_dir),
        "micro_repetitions": MICRO_REPETITIONS,
        "insts_per_sec": insts_per_sec,
        "context_observe_ns": context_ns,
        "ratios": ratios,
        "warm_sweep": sweep,
        "events_overhead": {
            "scale": EVENTS_SCALE,
            "jobs": JOBS,
            "off_seconds": round(statistics.median(seconds["off"]), 3),
            "on_seconds": round(statistics.median(seconds["on"]), 3),
            "csv_identical": events_csv_identical,
        },
        "hot_path_bars": {
            "min_mcf_context_insts_per_sec": MIN_MCF_CONTEXT_INSTS_PER_SEC,
            "max_context_observe_ns": MAX_CONTEXT_OBSERVE_NS,
            "min_decode_packed_insts_per_sec":
                MIN_DECODE_PACKED_INSTS_PER_SEC,
            "min_warm_sweep_speedup_x": MIN_WARM_SWEEP_SPEEDUP_X,
        },
    }
    with open(args.out, "w") as f:
        json.dump(report, f, indent=2)
        f.write("\n")

    print(f"sweep probe (scale {SWEEP_SCALE}, {sweep['cells']} cells): "
          f"cold {sweep['cold_seconds']} s, warm {sweep['warm_seconds']} "
          f"s, {sweep['warm_cells_simulated']} cells re-simulated")
    if journal.get("journal_ok"):
        print(f"warm journal: {journal['events']} events, read "
              f"{journal['cache_read_ns'] / 1e6:.3f} ms, parse "
              f"{journal['cache_parse_ns'] / 1e6:.3f} ms")
    for name, rate in sorted(insts_per_sec.items()):
        print(f"{name}: {rate / 1e6:.2f} M insts/s")
    for name, entry in ratios.items():
        control_entry = entry["same_code"]
        print(f"{name}: {entry['median']:.4f} "
              f"[{entry['q1']:.4f}, {entry['q3']:.4f}] over "
              f"{entry['pairs']} pairs; same code "
              f"{control_entry['median']:.4f} "
              f"[{control_entry['q1']:.4f}, {control_entry['q3']:.4f}]")

    gates = [
        (f"mcf/context replay {mcf_context / 1e6:.2f} M insts/s "
         f"(>= {MIN_MCF_CONTEXT_INSTS_PER_SEC / 1e6:.2f} M)",
         mcf_context >= MIN_MCF_CONTEXT_INSTS_PER_SEC),
        (f"context observe {context_ns} ns/access "
         f"(<= {MAX_CONTEXT_OBSERVE_NS} ns)",
         context_ns <= MAX_CONTEXT_OBSERVE_NS),
        (f"packed decode {packed / 1e6:.2f} M insts/s "
         f"(>= {MIN_DECODE_PACKED_INSTS_PER_SEC / 1e6:.2f} M)",
         packed >= MIN_DECODE_PACKED_INSTS_PER_SEC),
        (f"warm sweep {sweep['speedup_x']}x faster than cold "
         f"(>= {MIN_WARM_SWEEP_SPEEDUP_X}x)",
         sweep["speedup_x"] >= MIN_WARM_SWEEP_SPEEDUP_X),
        (f"warm sweep re-simulated {sweep['warm_cells_simulated']} cells "
         f"(0)", sweep["warm_cells_simulated"] == 0),
        ("warm sweep CSV matches cold", sweep["csv_identical"]),
        ("warm sweep journal well-formed", bool(journal.get("journal_ok"))),
        ("events-on sweep CSV matches events-off", events_csv_identical),
    ]
    for name, entry in ratios.items():
        if "bar" in entry:
            gates.append((f"{name} {entry['median']:.4f} "
                          f"(>= {entry['bar']})",
                          entry["median"] >= entry["bar"]))
    failed = False
    for what, ok in gates:
        if ok:
            print(f"ok: {what}")
        else:
            print(f"FAIL: {what}", file=sys.stderr)
            failed = True
    print(f"wrote {args.out}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
