#!/usr/bin/env python3
"""The repository benchmark: paper-grid, figures and stream-replay.

Run from the root of a checkout:

    python3 perfbench/run.py --workload paper-grid --seed 1 --seconds 15 --trace 0

--workload  paper-grid | figures | stream-replay | all
--seed      workload seed (figures always uses seed 1: its outputs are
            committed under results/)
--seconds   how long to keep repeating the workload; at least one
            iteration always runs
--trace     0: time the workload end to end, tracing off;
            1: the separate traced run that gives the per-layer numbers

The benchmark builds the simulator from the checkout's sources into
$CARGO_TARGET_DIR (default .bench_build), runs the workload as one
closed-loop client with at most nproc worker threads, checks every output
and prints a summary followed, as the last line, by one JSON object:
{"correct", "attempted", "failed", "metrics"}. Metric names and units come
from BENCHMARK.json at the checkout root. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_TYPE = "RelWithDebInfo"
BUILD_ROOT = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench-" + BUILD_TYPE.lower())
WORK_DIR = os.path.join(BUILD_ROOT, "perfbench-work")
EXPECTED_DIGESTS = os.path.join(HERE, "expected", "paper_grid_sha256.json")
FIGURES_INSTS = os.path.join(HERE, "expected", "figures_insts.json")

LOADAVG_AT_START = os.getloadavg()
NPROC = len(os.sched_getaffinity(0))
JOBS = min(4, NPROC)

LINEUP = ["none", "stride", "ghb-gdc", "ghb-pcdc", "sms", "context"]
PAPER_SCALE = 250000
# Streaming footprints (far above the 2 MiB L2) and cache-resident ones
# (near or below the 64 KiB L1), so demand access and decode dominate and
# the prefetch layer does almost no work.
STREAM_WORKLOADS = ["libquantum", "lbm", "milc", "soplex", "array",
                    "povray", "sjeng", "h264ref", "namd", "hmmer"]
STREAM_PREFETCHERS = ["none", "stride"]
STREAM_SCALE = 1000000
# Every figure and table binary, longest first so the pool's tail is short.
FIGURES = ["ablation_context", "fig13_storage_sweep", "fig10_l1_mpki",
           "fig11_l2_mpki", "fig12_speedup", "seed_sensitivity",
           "fig09_accuracy", "phase_stability", "prefetch_distance",
           "fig08_hit_depth_cdf", "ablation_placement", "fig14_layout",
           "fig01_semantic_pattern", "fig05_reward", "table3_workloads",
           "table2_config"]
# The traced loop's layer self times must add up to its replay within
# IDENTITY_TOLERANCE of it.
IDENTITY_TOLERANCE = 0.10
SETUP_REPEATS = 21  # figures: start-up launches whose median is setup_s


def fail(message):
    """Exit without a result: the benchmark cannot run here."""
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


class Checks:
    """Correctness checks: one per cell, output file or invariant."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(what)
        return ok

    @property
    def error_rate(self):
        return self.failed / self.attempted if self.attempted else 0.0


def child_env(caches_off=False):
    """The environment for the program: no inherited CSP_* knob may
    change the work a workload does."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("CSP_")}
    if caches_off:
        env["CSP_RESULT_CACHE"] = "0"
        env["CSP_TRACE_CACHE"] = "0"
    return env


def run_child(cmd, out_path, cwd=ROOT, env=None):
    """Run @p cmd to completion with stdout in @p out_path. Returns
    (exit code, wall s, user+sys CPU s, peak RSS MiB) of its process
    tree, via wait4 on the child."""
    err_path = out_path + ".err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=cwd,
                                env=env if env is not None else child_env())
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.monotonic() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    cpu = usage.ru_utime + usage.ru_stime
    return proc.returncode, wall, cpu, usage.ru_maxrss / 1024.0


def read(path, mode="r"):
    with open(path, mode) as f:
        return f.read()


def fresh_dir(*parts):
    path = os.path.join(WORK_DIR, *parts)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


# ------------------------------------------------------------------ build

def binary(name):
    for sub in ("tools", "bench", ""):
        path = os.path.join(BUILD_DIR, "csp", sub, name) if sub else \
            os.path.join(BUILD_DIR, name)
        if os.path.exists(path):
            return path
    fail(f"binary {name} missing from {BUILD_DIR}")


def build():
    for needed in ("CMakeLists.txt", "src", "bench", "tools", "results"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(f"run from the checkout root: {needed} not found in {ROOT}")
    os.makedirs(BUILD_ROOT, exist_ok=True)
    log_path = os.path.join(BUILD_ROOT, "perfbench-build.log")
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", str(NPROC),
                  "--target", "cspsim", "perfbench_driver", *FIGURES])
    with open(log_path, "wb") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                tail = read(log_path, "rb")[-3000:].decode(errors="replace")
                fail(f"build failed ({' '.join(step)}):\n{tail}")


def host_record(seed):
    model = "unknown"
    try:
        for line in read("/proc/cpuinfo").splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    sha = "unknown (not a git checkout)"
    try:
        got = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True)
        lines = got.stdout.split()
        if got.returncode == 0 and os.path.realpath(lines[0]) == \
                os.path.realpath(ROOT):
            sha = lines[1]
    except OSError:
        pass
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "bench", "tools"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            digest.update(name[len(ROOT):].encode())
            digest.update(read(name, "rb"))
    return {"nproc": NPROC, "jobs": JOBS, "cpu_model": model,
            "loadavg_at_start": [round(x, 2) for x in LOADAVG_AT_START],
            "build_type": BUILD_TYPE, "git_sha": sha,
            "source_sha256": digest.hexdigest()[:16], "seed": seed}


# ------------------------------------------------------------ grid checks

def parse_grid_csv(text):
    """The cell rows of a sweep CSV as dicts; [] when it does not parse."""
    lines = text.strip().splitlines()
    if not lines or not lines[0].startswith("workload,prefetcher,"):
        return []
    header = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        fields = line.split(",")
        if len(fields) != len(header):
            return []
        row = dict(zip(header[:2], fields[:2]))
        try:
            row.update((k, int(v)) for k, v in zip(header[2:], fields[2:]))
        except ValueError:
            return []
        rows.append(row)
    return rows


CLASSES = ["hit-prefetched", "shorter-wait", "non-timely",
           "miss-not-prefetched", "hit-older-demand"]


def check_grid_csv(checks, text, n_workloads, prefetchers, seed,
                   pinned_path=EXPECTED_DIGESTS, label="grid"):
    """One check per expected cell (present, miss classes sum to demand
    accesses, same trace counts under every prefetcher), plus the
    pinned digest of the whole CSV when @p pinned_path records one for
    @p seed."""
    rows = parse_grid_csv(text)
    by_workload = {}
    for row in rows:
        by_workload.setdefault(row["workload"], []).append(row)
    expected = n_workloads * len(prefetchers)
    for row in rows:
        ok = (sum(row[c] for c in CLASSES) == row["demand_accesses"]
              and row["hierarchy.demand_accesses"] == row["demand_accesses"]
              and row["l1_misses"] <= row["demand_accesses"]
              and all(other["instructions"] == row["instructions"]
                      and other["demand_accesses"] == row["demand_accesses"]
                      for other in by_workload[row["workload"]]))
        checks.check(ok, f"{label}: cell {row['workload']}/"
                         f"{row['prefetcher']} breaks an invariant")
    for _ in range(max(0, expected - len(rows))):
        checks.check(False, f"{label}: cell missing from the CSV")
    pinned = json.loads(read(pinned_path))["digests"] if pinned_path else {}
    if str(seed) in pinned:
        digest = hashlib.sha256(text.encode()).hexdigest()
        checks.check(digest == pinned[str(seed)],
                     f"{label}: CSV digest {digest[:16]} differs from the "
                     f"one pinned for seed {seed}")
    return rows


def geomean_speedup(rows, prefetcher="context"):
    ipc = {(r["workload"], r["prefetcher"]): r["instructions"] / r["cycles"]
           for r in rows if r["cycles"]}
    ratios = [ipc[(w, prefetcher)] / ipc[(w, "none")]
              for (w, p) in ipc if p == "none" and (w, prefetcher) in ipc]
    if not ratios:
        return 0.0
    return statistics.geometric_mean(ratios)


def cspsim_sweep(out_dir, workloads, prefetcher, scale, seed, jobs,
                 events=False):
    """One cold cspsim sweep with both caches on, in fresh directories."""
    cmd = [binary("cspsim"), "--workloads", workloads, "--prefetcher",
           prefetcher, "--scale", str(scale), "--seed", str(seed),
           "--jobs", str(jobs),
           "--result-cache-dir", os.path.join(out_dir, "result-cache"),
           "--trace-cache", os.path.join(out_dir, "trace-cache"),
           "--sweep-out", os.path.join(out_dir, "sweep.json")]
    if events:
        cmd += ["--events-out", os.path.join(out_dir, "events.jsonl")]
    csv_path = os.path.join(out_dir, "cells.csv")
    rc, wall, cpu, rss = run_child(cmd, csv_path)
    manifest = {}
    if rc == 0:
        manifest = json.loads(read(os.path.join(out_dir, "sweep.json")))[
            "manifest"]
    return {"rc": rc, "wall": wall, "cpu": cpu, "rss": rss,
            "csv": read(csv_path), "manifest": manifest}


# ------------------------------------------------------- timed workloads

END_TO_END = ["wall_s", "setup_s", "sim_minsts_per_s", "cpu_s", "peak_rss_mib"]


def repeat(seconds, body):
    """Run body(i) until @p seconds have passed, at least once."""
    deadline = time.monotonic() + seconds
    i = 0
    while True:
        body(i)
        i += 1
        if time.monotonic() >= deadline:
            return i


def timed_paper_grid(seed, seconds, checks, report):
    samples = {name: [] for name in END_TO_END}
    first_csv = []

    def iteration(i):
        run = cspsim_sweep(fresh_dir("paper-grid", str(i)), "all", "all",
                           PAPER_SCALE, seed, JOBS)
        if not checks.check(run["rc"] == 0, f"cspsim exited {run['rc']}"):
            return
        rows = check_grid_csv(checks, run["csv"], 33, LINEUP, seed)
        if first_csv:
            checks.check(run["csv"] == first_csv[0],
                         "paper-grid: CSV differs between iterations")
        else:
            first_csv.append(run["csv"])
            report["context_geomean_speedup"] = geomean_speedup(rows)
        setup = run["manifest"]["trace_gen_seconds"]
        insts = sum(r["instructions"] for r in rows)
        samples["wall_s"].append(run["wall"])
        samples["setup_s"].append(setup)
        samples["sim_minsts_per_s"].append(insts / (run["wall"] - setup) / 1e6)
        samples["cpu_s"].append(run["cpu"])
        samples["peak_rss_mib"].append(run["rss"])

    report["iterations"] = repeat(seconds, iteration)
    return samples


def figure_outputs(checks, expected_dir, out_dir, spans=None,
                   names=FIGURES):
    """Run every figure binary, at most NPROC at a time with --jobs 1
    each, so no more than NPROC threads ever run; byte-compare each
    stdout to the committed result. Returns the pool's wall time and
    per-binary (wall, cpu, rss)."""
    per_binary = {}
    queue = list(names)
    running = {}
    pool_start = time.monotonic()
    while queue or running:
        while queue and len(running) < NPROC:
            name = queue.pop(0)
            out_path = os.path.join(out_dir, name + ".txt")
            files = (open(out_path, "wb"), open(out_path + ".err", "wb"))
            start_ns = time.monotonic_ns()
            proc = subprocess.Popen([binary(name), "--jobs", "1"],
                                    stdout=files[0], stderr=files[1],
                                    cwd=out_dir, env=child_env(True))
            running[proc.pid] = (name, proc, files, start_ns)
        pid, status, usage = os.wait4(-1, 0)
        if pid not in running:
            continue
        name, proc, files, start_ns = running.pop(pid)
        end_ns = time.monotonic_ns()
        proc.returncode = os.waitstatus_to_exitcode(status)
        for f in files:
            f.close()
        if spans is not None:
            spans.append({"name": f"figures.{name}", "parent": "figures",
                          "start_ns": start_ns, "end_ns": end_ns})
        out_path = os.path.join(out_dir, name + ".txt")
        expected = os.path.join(expected_dir, name + ".txt")
        same = (proc.returncode == 0 and os.path.exists(expected)
                and read(out_path, "rb") == read(expected, "rb"))
        checks.check(same, f"figures: {name} output differs from "
                           f"results/{name}.txt (exit {proc.returncode})")
        per_binary[name] = {"wall": (end_ns - start_ns) / 1e9,
                            "cpu": usage.ru_utime + usage.ru_stime,
                            "rss": usage.ru_maxrss / 1024.0}
    return time.monotonic() - pool_start, per_binary


def figures_setup_s():
    """Median start-up of a figure binary that simulates nothing: the
    fixed cost every figure pays before its first cell can run."""
    out_dir = fresh_dir("figures-setup")
    walls = []
    for i in range(SETUP_REPEATS):
        rc, wall, _, _ = run_child([binary("table2_config")],
                                   os.path.join(out_dir, f"{i}.txt"),
                                   cwd=out_dir, env=child_env(True))
        if rc != 0:
            fail("table2_config failed during set-up")
        walls.append(wall)
    return statistics.median(walls)


def timed_figures(seed, seconds, checks, report):
    samples = {name: [] for name in END_TO_END}
    report["seed_note"] = "figures always run seed 1 (committed outputs)"
    # The figures' work is fixed, so its simulated instructions are a
    # recorded constant: the metric moves only with wall time.
    insts = json.loads(read(FIGURES_INSTS))["instructions"]
    minsts = sum(insts.values()) / 1e6

    def iteration(i):
        setup = figures_setup_s()
        wall, per = figure_outputs(checks, os.path.join(ROOT, "results"),
                                   fresh_dir("figures", str(i)))
        samples["wall_s"].append(wall)
        samples["setup_s"].append(setup)
        samples["sim_minsts_per_s"].append(minsts / (wall - setup))
        samples["cpu_s"].append(sum(b["cpu"] for b in per.values()))
        samples["peak_rss_mib"].append(max(b["rss"] for b in per.values()))

    report["iterations"] = repeat(seconds, iteration)
    return samples


def stream_driver(out_dir, seed, reference=False):
    cmd = [binary("perfbench_driver"), "stream",
           "--workloads", ",".join(STREAM_WORKLOADS),
           "--prefetchers", ",".join(STREAM_PREFETCHERS),
           "--scale", str(STREAM_SCALE), "--seed", str(seed)]
    cmd += ["--reference"] if reference else ["--dir", out_dir]
    out_path = os.path.join(out_dir, "stream.json")
    rc, wall, cpu, rss = run_child(cmd, out_path)
    doc = json.loads(read(out_path)) if rc == 0 else None
    return rc, wall, cpu, rss, doc


def cell_map(doc):
    return {(c["workload"], c["prefetcher"]): c["stats"] for c in doc["cells"]}


def timed_stream_replay(seed, seconds, checks, report):
    samples = {name: [] for name in END_TO_END}
    # Untimed: the in-memory replay every mmap replay must equal.
    rc, _, _, _, ref = stream_driver(fresh_dir("stream-reference"), seed,
                                     reference=True)
    if rc != 0:
        fail(f"stream reference run exited {rc}")
    reference = cell_map(ref)

    def iteration(i):
        rc, wall, cpu, rss, doc = stream_driver(
            fresh_dir("stream-replay", str(i)), seed)
        if not checks.check(rc == 0, f"stream driver exited {rc}"):
            return
        got = cell_map(doc)
        for key, stats in reference.items():
            checks.check(got.get(key) == stats,
                         f"stream-replay: mmap replay of {key} differs "
                         "from in-memory Simulator::run")
        samples["wall_s"].append(wall)
        samples["setup_s"].append(doc["setup_s"])
        samples["sim_minsts_per_s"].append(
            doc["insts"] / (wall - doc["setup_s"]) / 1e6)
        samples["cpu_s"].append(cpu)
        samples["peak_rss_mib"].append(rss)

    report["iterations"] = repeat(seconds, iteration)
    return samples


# ------------------------------------------------------------ traced run

def sweep_metrics(events_paths, jobs):
    """sim.sweep.* from csp-events-v1 journals: cell time percentiles,
    how busy the workers were, and the tail where some sat idle."""
    durations, busy, span, tail = [], 0.0, 0.0, 0.0
    for path in events_paths:
        starts, ends, last_end = [], [], {}
        for line in read(path).splitlines():
            event = json.loads(line)
            if event["event"] == "cell_start":
                starts.append(event["t_ns"])
            elif event["event"] == "cell_end":
                durations.append(event["duration_ns"] / 1e6)
                busy += event["duration_ns"] / 1e9
                ends.append(event["t_ns"])
                last_end[event["worker"]] = event["t_ns"]
        if starts and ends:
            span += jobs * (max(ends) - min(starts)) / 1e9
            tail += (max(last_end.values()) - min(last_end.values())) / 1e9
    if not durations:
        return {}
    q = statistics.quantiles(durations, n=10, method="inclusive")
    return {"sim.sweep.cell_ms_p50": statistics.median(durations),
            "sim.sweep.cell_ms_p90": q[8],
            "sim.sweep.worker_busy_frac": busy / span if span else 0.0,
            "sim.sweep.tail_s": tail}


def trace_driver(checks, out_dir, workloads, prefetchers, scale, seed,
                 jobs, source, probes=(), inject_mismatch=False):
    """The benchmark-owned replay loop; see driver.cc."""
    cmd = [binary("perfbench_driver"), "trace",
           "--workloads", ",".join(workloads),
           "--prefetchers", ",".join(prefetchers),
           "--scale", str(scale), "--seed", str(seed), "--jobs", str(jobs),
           "--source", source, "--dir", out_dir,
           "--spans-out", os.path.join(out_dir, "spans.csv")]
    if probes:
        cmd += ["--probe-prefetchers", ",".join(probes)]
    if inject_mismatch:
        cmd += ["--inject-mismatch"]
    out_path = os.path.join(out_dir, "ledger.json")
    rc, _, _, _ = run_child(cmd, out_path)
    text = read(out_path)
    if not text.strip():
        checks.check(False, f"traced loop exited {rc} without a ledger")
        return None
    ledger = json.loads(text)
    faithful = ledger["cells"] - ledger["mismatched_cells"]
    for _ in range(faithful):
        checks.check(True, "")
    for _ in range(ledger["mismatched_cells"]):
        checks.check(False, "traced loop: a cell's counts differ from "
                            "Simulator::run")
    checks.check(ledger["cache_mismatches"] == 0,
                 "result cache round trip changed a cell")
    checks.check(rc == 0, f"traced loop exited {rc}")
    unattributed = ledger["unattributed_signed"]
    checks.check(abs(unattributed) <= IDENTITY_TOLERANCE,
                 f"layer self times miss the traced replay by "
                 f"{unattributed:+.3f} (tolerance {IDENTITY_TOLERANCE})")
    return ledger


def traced(workload, seed, checks, report):
    metrics = {}
    spans = []
    if workload == "stream-replay":
        paths = []
        for prefetcher in STREAM_PREFETCHERS:
            out_dir = fresh_dir("traced", "sweep-" + prefetcher)
            run = cspsim_sweep(out_dir, ",".join(STREAM_WORKLOADS),
                               prefetcher, STREAM_SCALE, seed, JOBS,
                               events=True)
            checks.check(run["rc"] == 0, f"cspsim exited {run['rc']}")
            check_grid_csv(checks, run["csv"], len(STREAM_WORKLOADS),
                           [prefetcher], seed, pinned_path=None,
                           label="stream sweep")
            paths.append(os.path.join(out_dir, "events.jsonl"))
        metrics.update(sweep_metrics(paths, JOBS))
        ledger = trace_driver(checks, fresh_dir("traced", "loop"),
                              STREAM_WORKLOADS, STREAM_PREFETCHERS,
                              STREAM_SCALE, seed, 1, "mmap",
                              probes=[p for p in LINEUP
                                      if p not in STREAM_PREFETCHERS])
    else:
        if workload == "figures":
            # One span per binary; the replay layers are then measured
            # on the grid fig10-12 simulate, at the figures' seed.
            seed = 1
            start_ns = time.monotonic_ns()
            wall, per = figure_outputs(checks, os.path.join(ROOT, "results"),
                                       fresh_dir("traced", "figures"), spans)
            spans.append({"name": "figures", "parent": None,
                          "start_ns": start_ns,
                          "end_ns": time.monotonic_ns()})
            report["figures"] = {f"figures.{n}.wall_s": b["wall"]
                                 for n, b in per.items()}
            report["figures"]["figures.cpu_util"] = (
                sum(b["cpu"] for b in per.values()) / wall)
        out_dir = fresh_dir("traced", "sweep")
        run = cspsim_sweep(out_dir, "all", "all", PAPER_SCALE, seed, JOBS,
                           events=True)
        checks.check(run["rc"] == 0, f"cspsim exited {run['rc']}")
        rows = check_grid_csv(checks, run["csv"], 33, LINEUP, seed)
        metrics.update(sweep_metrics(
            [os.path.join(out_dir, "events.jsonl")], JOBS))
        names = list(dict.fromkeys(r["workload"] for r in rows))
        ledger = trace_driver(checks, fresh_dir("traced", "loop"), names,
                              LINEUP, PAPER_SCALE, seed, JOBS, "mem")
    if ledger is not None:
        metrics.update(ledger["metrics"])
        report["layers_self_frac"] = ledger["layers_self_frac"]
        report["traced_loop"] = {k: v for k, v in ledger.items()
                                 if k not in ("metrics", "layers_self_frac")}
    with open(os.path.join(WORK_DIR, "traced", "run_spans.json"), "w") as f:
        json.dump(spans, f)
    return metrics


# ------------------------------------------------------------------ main

def load_contract():
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        fail("BENCHMARK.json not found at the checkout root")
    return json.loads(read(path))


def run_workload(workload, seed, seconds, trace, contract):
    checks = Checks()
    report = {"workload": workload, "host": host_record(seed)}
    if trace:
        values = traced(workload, seed, checks, report)
        wanted = contract["per_layer"]
    else:
        timed = {"paper-grid": timed_paper_grid, "figures": timed_figures,
                 "stream-replay": timed_stream_replay}[workload]
        samples = timed(seed, seconds, checks, report)
        values = {k: statistics.median(v) for k, v in samples.items() if v}
        report["samples"] = samples
        wanted = contract["end_to_end"]
    metrics = {}
    for m in wanted:
        value = values.get(m["name"])
        if value is None:
            checks.check(False, f"metric {m['name']} was not measured")
            continue
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    report["error_rate"] = checks.error_rate
    report["failures"] = checks.notes
    return checks, metrics, report


def print_summary(report, metrics):
    print(f"== {report['workload']} ==")
    for name, m in metrics.items():
        print(f"  {name:<40} {m['value']:.6g} {m['unit']}")
    print(f"  {'error_rate':<40} {report['error_rate']:.6g} "
          f"(failed checks / checks attempted)")
    if "context_geomean_speedup" in report:
        print(f"  context geomean IPC speedup over none: "
              f"{report['context_geomean_speedup']:.4f} (simulated; the "
              "model is unvalidated against hardware)")
    for name, value in report.get("figures", {}).items():
        print(f"  {name:<40} {value:.6g}")
    for note in report["failures"]:
        print(f"  FAILED: {note}")
    print("  record: " + json.dumps(report, sort_keys=True))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["paper-grid", "figures", "stream-replay",
                                 "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")

    contract = load_contract()
    build()
    shutil.rmtree(WORK_DIR, ignore_errors=True)
    os.makedirs(WORK_DIR)
    workloads = ([w["name"] for w in contract["workloads"]]
                 if args.workload == "all" else [args.workload])
    total = Checks()
    metrics = {}
    for workload in workloads:
        checks, got, report = run_workload(workload, args.seed, args.seconds,
                                           args.trace, contract)
        print_summary(report, got)
        total.attempted += checks.attempted
        total.failed += checks.failed
        if args.workload == "all":
            got = {f"{workload}.{k}": v for k, v in got.items()}
        metrics.update(got)
    if not args.trace:  # traced runs keep their spans for inspection
        shutil.rmtree(WORK_DIR, ignore_errors=True)
    correct = total.failed == 0
    print(json.dumps({"correct": correct, "attempted": total.attempted,
                      "failed": total.failed, "metrics": metrics}))
    sys.stdout.flush()
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
