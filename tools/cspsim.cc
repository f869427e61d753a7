/**
 * @file
 * cspsim — command-line driver for the simulator.
 *
 * Runs any registered workload against any prefetcher (or the paper's
 * whole lineup), with the common configuration knobs exposed as flags,
 * optional trace caching on disk, and table or CSV output.
 *
 * Examples:
 *   cspsim --list
 *   cspsim --workload list --prefetcher all
 *   cspsim --workload mcf --prefetcher context --scale 1000000
 *   cspsim --workload graph500-list --save-trace g.trace
 *   cspsim --load-trace g.trace --prefetcher sms --csv
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/config.h"
#include "core/logging.h"
#include "core/profiling.h"
#include "core/run_manifest.h"
#include "core/thread_pool.h"
#include "obs/learning.h"
#include "obs/lifecycle.h"
#include "obs/mem_recorder.h"
#include "obs/run_observer.h"
#include "obs/trace_events.h"
#include "prefetch/context/context_prefetcher.h"
#include "sim/experiment.h"
#include "sim/result_cache.h"
#include "sim/simulator.h"
#include "sim/sweep_events.h"
#include "sim/sweep_io.h"
#include "sim/table.h"
#include "trace/trace_io.h"
#include "workloads/registry.h"

namespace {

using namespace csp;

struct Options
{
    std::string workload;
    std::string prefetcher = "context";
    std::uint64_t scale = 250000;
    std::uint64_t seed = 1;
    runtime::Placement placement = runtime::Placement::Randomized;
    std::string save_trace;
    std::string load_trace;
    bool csv = false;
    bool json = false;
    bool list = false;
    bool describe = false;
    bool verbose = false;
    bool profile = false;
    bool print_manifest = false;
    unsigned jobs = 0; ///< 0 = auto (CSP_JOBS, else all cores)
    std::string stats_out;
    std::string stats_csv;
    std::string stats_filter;
    std::uint64_t stats_interval = 0;
    std::string autopsy_out;
    std::string trace_events;
    std::uint64_t trace_sample = 1;
    std::string learn_out;
    std::uint64_t learn_snapshot_every = 0; ///< 0 = auto (~32/run)
    std::string mem_out;
    std::uint64_t mem_interval = 0; ///< 0 = auto (~64 samples/run)
    // Sweep-service mode (--workloads): cached, shardable grid runs.
    std::string sweep_workloads;
    std::string sweep_out;
    std::string events_out;
    unsigned shard_index = 0;
    unsigned shard_count = 1;
    bool no_result_cache = false;
    bool no_trace_cache = false;
    std::string result_cache_dir;
    std::string trace_cache_dir;
    std::uint64_t cache_max_bytes = 0; ///< 0 = env, then unbounded
    bool cache_max_bytes_set = false;
    SystemConfig config;
};

void
usage()
{
    std::cout <<
        "usage: cspsim [options]\n"
        "  --list                   list registered workloads\n"
        "  --describe               print the system configuration\n"
        "  --workload NAME          workload to run\n"
        "  --prefetcher NAME|all    one of: none stride ghb-gdc ghb-pcdc\n"
        "                           sms markov jump next-line context;\n"
        "                           'all' = the paper lineup (default:\n"
        "                           context)\n"
        "  --scale N                target memory accesses (default "
        "250000)\n"
        "  --seed N                 workload + learner seed\n"
        "  --placement seq|rand     heap placement for workloads\n"
        "  --save-trace FILE        write the generated trace and "
        "exit\n"
        "  --load-trace FILE        simulate a saved trace instead of "
        "generating\n"
        "  --csv                    CSV instead of aligned table\n"
        "  --json                   one JSON object per prefetcher\n"
        "  --jobs N                 worker threads for multi-prefetcher\n"
        "                           runs (default: CSP_JOBS, else all\n"
        "                           cores); results are bit-identical\n"
        "                           for any N\n"
        "  --stats-out FILE         full hierarchical stats as JSON\n"
        "  --stats-interval N       sample interval stats every N\n"
        "                           instructions into a CSV time-series\n"
        "  --stats-csv FILE         interval CSV path (default: derived\n"
        "                           from --stats-out)\n"
        "  --stats-filter PREFIX    keep only stats under the dotted\n"
        "                           prefix (e.g. context.bandit)\n"
        "  --autopsy-out FILE       per-prefetch lifecycle autopsy\n"
        "                           tables (timely/late/early/redundant/\n"
        "                           useless/dropped + per-PC attribution);\n"
        "                           writes the FILE stem as .csv and\n"
        "                           .json, tagged per prefetcher for\n"
        "                           multi-prefetcher runs\n"
        "  --trace-events FILE      Chrome trace-event JSON timeline\n"
        "                           (open in Perfetto / chrome://tracing):\n"
        "                           prefetch lifecycles as async spans,\n"
        "                           demand misses + RL rewards as instant\n"
        "                           events, MSHR occupancy counters\n"
        "  --trace-sample N         emit 1 in N lifecycle spans and\n"
        "                           instant events (default 1 = all)\n"
        "  --learn-out FILE         periodic learning-state snapshots\n"
        "                           (policy epsilon/accuracy/entropy,\n"
        "                           CST health, top contexts with arm\n"
        "                           scores) as learn.json, manifest\n"
        "                           embedded; render with csplearn,\n"
        "                           diff with cspdiff\n"
        "  --learn-snapshot-every N snapshot the learning state every N\n"
        "                           prefetcher lookups (default 0 =\n"
        "                           auto, about 32 per run)\n"
        "  --mem-out FILE           memory-hierarchy observatory export\n"
        "                           (3C+pollution miss taxonomy from\n"
        "                           shadow models, reuse-distance and\n"
        "                           set-pressure telemetry, MSHR/DRAM\n"
        "                           queue timeline) as mem.json,\n"
        "                           manifest embedded; render with\n"
        "                           cspmem, diff with cspdiff\n"
        "  --mem-interval N         sample MSHR/DRAM queue depths every\n"
        "                           N demand accesses (default 0 =\n"
        "                           auto, about 64 samples per run)\n"
        "  --profile                attribute wall-clock to simulator\n"
        "                           phases (trace-gen, replay, train/\n"
        "                           predict, memory, stats flush) under\n"
        "                           prof.* in --stats-out, plus a\n"
        "                           summary on stderr; off = zero-cost\n"
        "  --workloads LIST         sweep mode: run every workload in\n"
        "                           LIST (comma-separated, or one of\n"
        "                           all/ubench/spec/irregular) against\n"
        "                           every --prefetcher; prints the cell\n"
        "                           matrix as CSV on stdout. Cells are\n"
        "                           memoized in the result cache and\n"
        "                           traces in the trace cache, so a\n"
        "                           repeated sweep does zero simulation\n"
        "                           work with byte-identical output\n"
        "  --sweep-out FILE         write the sweep artefact (manifest,\n"
        "                           cache/shard accounting, cells) as\n"
        "                           csp-sweep-v2 JSON; shards feed these\n"
        "                           files to cspmerge\n"
        "  --events-out FILE        append-only csp-events-v1 JSONL\n"
        "                           journal of the sweep (trace gen,\n"
        "                           per-cell start/end with cached-vs-\n"
        "                           simulated attribution, heartbeats,\n"
        "                           roll-ups); watch live or post-hoc\n"
        "                           with csptop, merge shard journals\n"
        "                           with cspmerge --journal. Side-band:\n"
        "                           results are byte-identical with the\n"
        "                           journal on or off\n"
        "  --cache-max-bytes SIZE   bound the result cache: after the\n"
        "                           sweep, evict least-recently-used\n"
        "                           entries until the cache fits SIZE\n"
        "                           (K/M/G/T suffixes, powers of 1024;\n"
        "                           default $CSP_CACHE_MAX_BYTES, else\n"
        "                           unbounded)\n"
        "  --shard I/N              own only every N-th cell (rank I) of\n"
        "                           the sweep's longest-first schedule;\n"
        "                           N independent shard processes cover\n"
        "                           the grid and cspmerge reassembles\n"
        "                           bit-identically\n"
        "  --no-result-cache        always simulate (or set\n"
        "                           CSP_RESULT_CACHE=0)\n"
        "  --no-trace-cache         always regenerate traces (or set\n"
        "                           CSP_TRACE_CACHE=0)\n"
        "  --result-cache-dir DIR   result cache location (default\n"
        "                           $CSP_RESULT_CACHE_DIR, else\n"
        "                           results/cache)\n"
        "  --trace-cache DIR        trace cache location (default\n"
        "                           $CSP_TRACE_CACHE_DIR, else\n"
        "                           traces/cache)\n"
        "  --manifest               print the run-provenance manifest\n"
        "                           (build, config digest, host) as\n"
        "                           JSON and exit\n"
        "  --verbose                rate-limited progress heartbeat\n"
        "  --cst-entries N          context prefetcher CST size\n"
        "  --max-degree N           context prefetcher degree cap\n"
        "  --softmax                softmax exploration (extension)\n"
        "  --dram-latency N         DRAM latency in cycles\n";
}

std::optional<Options>
parse(int argc, char **argv)
{
    Options options;
    const auto need_value = [&](int &i) -> const char * {
        if (i + 1 >= argc)
            fatal("missing value for %s", argv[i]);
        return argv[++i];
    };
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            usage();
            return std::nullopt;
        } else if (arg == "--list") {
            options.list = true;
        } else if (arg == "--describe") {
            options.describe = true;
        } else if (arg == "--workload") {
            options.workload = need_value(i);
        } else if (arg == "--prefetcher") {
            options.prefetcher = need_value(i);
        } else if (arg == "--scale") {
            options.scale = std::strtoull(need_value(i), nullptr, 10);
        } else if (arg == "--seed") {
            options.seed = std::strtoull(need_value(i), nullptr, 10);
        } else if (arg == "--placement") {
            const std::string mode = need_value(i);
            if (mode == "seq")
                options.placement = runtime::Placement::Sequential;
            else if (mode == "rand")
                options.placement = runtime::Placement::Randomized;
            else
                fatal("unknown placement: %s", mode.c_str());
        } else if (arg == "--save-trace") {
            options.save_trace = need_value(i);
        } else if (arg == "--load-trace") {
            options.load_trace = need_value(i);
        } else if (arg == "--csv") {
            options.csv = true;
        } else if (arg == "--json") {
            options.json = true;
        } else if (arg == "--verbose") {
            options.verbose = true;
        } else if (arg == "--jobs") {
            options.jobs = static_cast<unsigned>(
                std::strtoul(need_value(i), nullptr, 10));
        } else if (arg == "--stats-out") {
            options.stats_out = need_value(i);
        } else if (arg == "--stats-csv") {
            options.stats_csv = need_value(i);
        } else if (arg == "--stats-filter") {
            options.stats_filter = need_value(i);
        } else if (arg == "--stats-interval") {
            options.stats_interval =
                std::strtoull(need_value(i), nullptr, 10);
        } else if (arg == "--autopsy-out") {
            options.autopsy_out = need_value(i);
        } else if (arg == "--trace-events") {
            options.trace_events = need_value(i);
        } else if (arg == "--learn-out") {
            options.learn_out = need_value(i);
        } else if (arg == "--learn-snapshot-every") {
            options.learn_snapshot_every =
                std::strtoull(need_value(i), nullptr, 10);
        } else if (arg == "--mem-out") {
            options.mem_out = need_value(i);
        } else if (arg == "--mem-interval") {
            options.mem_interval =
                std::strtoull(need_value(i), nullptr, 10);
        } else if (arg == "--profile") {
            options.profile = true;
        } else if (arg == "--workloads") {
            options.sweep_workloads = need_value(i);
        } else if (arg == "--sweep-out") {
            options.sweep_out = need_value(i);
        } else if (arg == "--events-out") {
            options.events_out = need_value(i);
        } else if (arg == "--cache-max-bytes") {
            const char *spec = need_value(i);
            if (!sim::parseByteSize(spec, options.cache_max_bytes))
                fatal("--cache-max-bytes wants BYTES with an optional "
                      "K/M/G/T suffix, got %s", spec);
            options.cache_max_bytes_set = true;
        } else if (arg == "--shard") {
            const char *spec = need_value(i);
            if (std::sscanf(spec, "%u/%u", &options.shard_index,
                            &options.shard_count) != 2 ||
                options.shard_count == 0 ||
                options.shard_index >= options.shard_count) {
                fatal("--shard wants I/N with I < N, got %s", spec);
            }
        } else if (arg == "--no-result-cache") {
            options.no_result_cache = true;
        } else if (arg == "--no-trace-cache") {
            options.no_trace_cache = true;
        } else if (arg == "--result-cache-dir") {
            options.result_cache_dir = need_value(i);
        } else if (arg == "--trace-cache") {
            options.trace_cache_dir = need_value(i);
        } else if (arg == "--manifest") {
            options.print_manifest = true;
        } else if (arg == "--trace-sample") {
            options.trace_sample =
                std::strtoull(need_value(i), nullptr, 10);
            if (options.trace_sample == 0)
                options.trace_sample = 1;
        } else if (arg == "--cst-entries") {
            options.config.context.cst_entries = static_cast<unsigned>(
                std::strtoul(need_value(i), nullptr, 10));
        } else if (arg == "--max-degree") {
            options.config.context.max_degree = static_cast<unsigned>(
                std::strtoul(need_value(i), nullptr, 10));
        } else if (arg == "--softmax") {
            options.config.context.softmax_exploration = true;
        } else if (arg == "--dram-latency") {
            options.config.memory.dram_latency =
                std::strtoull(need_value(i), nullptr, 10);
        } else {
            fatal("unknown option: %s (try --help)", arg.c_str());
        }
    }
    options.config.seed = options.seed;
    return options;
}

std::vector<std::string>
prefetcherList(const std::string &selection)
{
    if (selection == "all")
        return sim::paperPrefetchers();
    return {selection};
}

std::vector<std::string>
sweepWorkloadList(const std::string &selection)
{
    if (selection == "all")
        return sim::allWorkloads();
    if (selection == "ubench")
        return sim::ubenchWorkloads();
    if (selection == "spec")
        return sim::specWorkloads();
    if (selection == "irregular")
        return sim::irregularWorkloads();
    std::vector<std::string> names;
    std::size_t start = 0;
    while (start < selection.size()) {
        const std::size_t comma = selection.find(',', start);
        const std::size_t end =
            comma == std::string::npos ? selection.size() : comma;
        if (end > start)
            names.push_back(selection.substr(start, end - start));
        start = end + 1;
    }
    if (names.empty())
        fatal("--workloads got an empty list");
    return names;
}

trace::TraceBuffer
obtainTrace(const Options &options)
{
    if (!options.load_trace.empty()) {
        trace::TraceBuffer buffer;
        const trace::TraceIoStatus status =
            trace::loadTraceFile(options.load_trace, buffer);
        if (status != trace::TraceIoStatus::Ok) {
            fatal("cannot load trace %s: %s",
                  options.load_trace.c_str(),
                  trace::traceIoStatusName(status));
        }
        return buffer;
    }
    if (options.workload.empty())
        fatal("--workload or --load-trace is required (see --help)");
    workloads::WorkloadParams params;
    params.scale = options.scale;
    params.seed = options.seed;
    params.placement = options.placement;
    const auto workload =
        workloads::Registry::builtin().create(options.workload);
    return workload->generate(params);
}

/** Create @p path's parent directories (fatal with a clear message on
 *  failure) so --stats-out/--autopsy-out/--trace-events/--save-trace
 *  into a fresh results directory just work. */
void
ensureParentDir(const std::string &path)
{
    const std::filesystem::path parent =
        std::filesystem::path(path).parent_path();
    if (parent.empty())
        return;
    std::error_code ec;
    std::filesystem::create_directories(parent, ec);
    if (ec) {
        fatal("cannot create directory %s for %s: %s",
              parent.string().c_str(), path.c_str(),
              ec.message().c_str());
    }
}

void
writeFile(const std::string &path, const std::string &content)
{
    ensureParentDir(path);
    std::ofstream out(path);
    if (!out)
        fatal("cannot write %s", path.c_str());
    out << content;
}

/** Interval-CSV path for one prefetcher: --stats-csv when given, else
 *  derived from --stats-out (stats.json -> stats.intervals.csv); with
 *  several prefetchers the name is tagged per prefetcher. */
std::string
intervalCsvPath(const Options &options, const std::string &pf_name,
                bool multi)
{
    std::string base = options.stats_csv;
    if (base.empty()) {
        base = options.stats_out;
        if (base.empty()) {
            fatal("--stats-interval needs --stats-out or "
                  "--stats-csv for the CSV path");
        }
        if (base.size() > 5 &&
            base.compare(base.size() - 5, 5, ".json") == 0) {
            base.erase(base.size() - 5);
        }
        base += multi ? "." + pf_name + ".intervals.csv"
                      : ".intervals.csv";
        return base;
    }
    if (!multi)
        return base;
    const std::size_t dot = base.rfind('.');
    if (dot == std::string::npos)
        return base + "." + pf_name;
    return base.substr(0, dot) + "." + pf_name + base.substr(dot);
}

/** FILE stem for --autopsy-out: drop a known extension, tag per
 *  prefetcher on multi-prefetcher runs; ".csv"/".json" are appended by
 *  the caller. */
std::string
autopsyStem(const std::string &path, const std::string &pf_name,
            bool multi)
{
    std::string stem = path;
    for (const char *ext : {".csv", ".json"}) {
        const std::size_t n = std::strlen(ext);
        if (stem.size() > n &&
            stem.compare(stem.size() - n, n, ext) == 0) {
            stem.erase(stem.size() - n);
            break;
        }
    }
    if (multi)
        stem += "." + pf_name;
    return stem;
}

/** Tag @p base per prefetcher on multi-prefetcher runs (the idiom the
 *  interval CSV uses: stem.<pf>.ext). */
std::string
taggedPath(const std::string &base, const std::string &pf_name,
           bool multi)
{
    if (!multi)
        return base;
    const std::size_t dot = base.rfind('.');
    if (dot == std::string::npos)
        return base + "." + pf_name;
    return base.substr(0, dot) + "." + pf_name + base.substr(dot);
}

/** Per-prefetcher path for --trace-events. */
std::string
traceEventsPath(const Options &options, const std::string &pf_name,
                bool multi)
{
    return taggedPath(options.trace_events, pf_name, multi);
}

/** Per-prefetcher path for --learn-out. */
std::string
learnOutPath(const Options &options, const std::string &pf_name,
             bool multi)
{
    return taggedPath(options.learn_out, pf_name, multi);
}

/** Per-prefetcher path for --mem-out. */
std::string
memOutPath(const Options &options, const std::string &pf_name,
           bool multi)
{
    return taggedPath(options.mem_out, pf_name, multi);
}

} // namespace

int
main(int argc, char **argv)
{
    const auto parsed = parse(argc, argv);
    if (!parsed.has_value())
        return 0;
    const Options &options = *parsed;

    if (options.list) {
        const auto &registry = workloads::Registry::builtin();
        for (const std::string suite :
             {"spec2006", "pbbs", "graph500", "hpcs", "ubench"}) {
            std::cout << suite << ":";
            for (const auto &name : registry.namesInSuite(suite))
                std::cout << ' ' << name;
            std::cout << '\n';
        }
        return 0;
    }
    if (options.describe) {
        std::cout << options.config.describe();
        return 0;
    }

    RunManifest manifest = makeRunManifest("cspsim", options.config);
    manifest.workloads = !options.load_trace.empty()
                             ? "trace:" + options.load_trace
                             : options.workload;
    manifest.prefetchers = options.prefetcher;
    manifest.scale = options.scale;
    manifest.placement =
        options.placement == runtime::Placement::Sequential ? "seq"
                                                            : "rand";
    if (options.print_manifest) {
        std::cout << manifest.toJson() << '\n';
        return 0;
    }

    if (options.sweep_workloads.empty() &&
        (!options.events_out.empty() || options.cache_max_bytes_set)) {
        fatal("--events-out / --cache-max-bytes are sweep-mode flags "
              "(use --workloads)");
    }

    // Sweep-service mode: the whole grid (or one shard of it) through
    // runSweep with both caches on by default — the flags/env knobs
    // above opt out. stdout carries the deterministic cell CSV;
    // --sweep-out carries the full artefact for cspmerge/cspdiff.
    if (!options.sweep_workloads.empty()) {
        workloads::WorkloadParams params;
        params.scale = options.scale;
        params.seed = options.seed;
        params.placement = options.placement;
        sim::SweepOptions sweep_opts;
        sweep_opts.verbose = options.verbose;
        sweep_opts.jobs = options.jobs;
        sweep_opts.use_result_cache = !options.no_result_cache &&
                                      sim::resultCacheEnabledByEnv();
        sweep_opts.use_trace_cache = !options.no_trace_cache &&
                                     sim::traceCacheEnabledByEnv();
        sweep_opts.result_cache_dir = options.result_cache_dir;
        sweep_opts.trace_cache_dir = options.trace_cache_dir;
        sweep_opts.shard_index = options.shard_index;
        sweep_opts.shard_count = options.shard_count;
        // The journal is strictly side-band: runSweep records what it
        // already computed, so results are byte-identical with events
        // on or off (enforced by test_sweep_events).
        sim::SweepEventJournal journal;
        if (!options.events_out.empty()) {
            ensureParentDir(options.events_out);
            if (!journal.open(options.events_out))
                fatal("cannot write %s", options.events_out.c_str());
            sweep_opts.journal = &journal;
        }
        const sim::SweepResult result = sim::runSweep(
            sweepWorkloadList(options.sweep_workloads),
            prefetcherList(options.prefetcher), params,
            options.config, sweep_opts);
        if (!options.sweep_out.empty()) {
            std::ostringstream doc;
            sim::writeSweepJson(doc, result);
            writeFile(options.sweep_out, doc.str());
            if (options.verbose) {
                inform("wrote sweep artefact to %s",
                       options.sweep_out.c_str());
            }
        }
        // Bound the result cache only after the sweep is done — a
        // concurrent shard may be about to hit an entry mid-sweep. The
        // trim events are the only ones allowed after sweep_end.
        const std::uint64_t cache_budget =
            options.cache_max_bytes_set ? options.cache_max_bytes
                                        : sim::cacheMaxBytesFromEnv();
        if (cache_budget != 0) {
            const std::string cache_dir =
                !options.result_cache_dir.empty()
                    ? options.result_cache_dir
                    : sim::defaultResultCacheDir();
            const sim::CacheTrimResult trim =
                sim::trimResultCache(cache_dir, cache_budget);
            if (journal.isOpen()) {
                using J = sim::SweepEventJournal;
                for (const auto &[entry, bytes] : trim.evicted) {
                    journal.emit("evict", {J::str("entry", entry),
                                           J::u64("bytes", bytes)});
                }
                journal.emit(
                    "cache_trim",
                    {J::u64("max_bytes", cache_budget),
                     J::u64("scanned_entries", trim.scanned_entries),
                     J::u64("scanned_bytes", trim.scanned_bytes),
                     J::u64("evicted_entries", trim.evicted_entries),
                     J::u64("evicted_bytes", trim.evicted_bytes)});
            }
            if (options.verbose && trim.evicted_entries != 0) {
                inform("cache trim: evicted %llu of %llu entries "
                       "(%llu of %llu bytes) to fit %llu",
                       static_cast<unsigned long long>(
                           trim.evicted_entries),
                       static_cast<unsigned long long>(
                           trim.scanned_entries),
                       static_cast<unsigned long long>(
                           trim.evicted_bytes),
                       static_cast<unsigned long long>(
                           trim.scanned_bytes),
                       static_cast<unsigned long long>(cache_budget));
            }
        }
        journal.close();
        sim::writeSweepCsv(std::cout, result);
        return 0;
    }

    const auto trace_gen_start = std::chrono::steady_clock::now();
    const trace::TraceBuffer trace = obtainTrace(options);
    manifest.trace_gen_seconds =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - trace_gen_start)
            .count();
    manifest.trace_digest = hexDigest(trace.contentDigest());
    manifest.trace_records = trace.size();
    manifest.trace_instructions = trace.instructions();
    manifest.trace_accesses = trace.memAccesses();
    if (options.verbose) {
        inform("trace: %llu instructions, %llu memory accesses",
               static_cast<unsigned long long>(trace.instructions()),
               static_cast<unsigned long long>(trace.memAccesses()));
    }
    if (!options.save_trace.empty()) {
        ensureParentDir(options.save_trace);
        if (!trace::saveTraceFile(trace, options.save_trace))
            fatal("cannot write %s", options.save_trace.c_str());
        inform("saved %zu records to %s", trace.size(),
               options.save_trace.c_str());
        return 0;
    }

    const std::vector<std::string> pf_names =
        prefetcherList(options.prefetcher);
    const bool multi = pf_names.size() > 1;

    // Simulate every requested prefetcher first — independent runs
    // over the shared read-only trace, spread across --jobs worker
    // threads — then emit all output serially in lineup order, so the
    // table, JSON and CSV files are byte-identical for any job count.
    struct PfOutcome
    {
        sim::RunStats stats;
        stats::Report report;
        stats::TimeSeries series;
        /// Lifecycle results, kept past the worker for serial autopsy
        /// output; null when neither --autopsy-out nor --trace-events
        /// was given.
        std::unique_ptr<obs::PrefetchTracker> tracker;
        /// Phase wall-clock attribution; null unless --profile.
        std::unique_ptr<prof::Profiler> profiler;
        /// Learning-dynamics recorder, kept past the worker for the
        /// serial learn.json write; null unless --learn-out or
        /// --trace-events.
        std::unique_ptr<obs::LearningRecorder> learner;
        /// Memory-hierarchy recorder, kept past the worker for the
        /// serial mem.json write; null unless --mem-out.
        std::unique_ptr<obs::MemRecorder> memrec;
    };
    const bool observing = !options.autopsy_out.empty() ||
                           !options.trace_events.empty() ||
                           !options.learn_out.empty() ||
                           !options.mem_out.empty();
    std::vector<PfOutcome> outcomes(pf_names.size());
    if (options.profile) {
        // Trace generation is shared by every prefetcher's run, so
        // each profile carries the full trace-gen cost.
        const auto trace_gen_ns = static_cast<std::uint64_t>(
            manifest.trace_gen_seconds * 1e9);
        for (auto &outcome : outcomes) {
            outcome.profiler = std::make_unique<prof::Profiler>();
            outcome.profiler->add(prof::Phase::TraceGen, trace_gen_ns);
        }
    }
    const auto sim_start = std::chrono::steady_clock::now();
    {
        ThreadPool pool(options.jobs);
        manifest.jobs = pool.threads();
        sim::SweepProgress progress(
            options.workload.empty() ? "cspsim" : options.workload,
            std::vector<std::uint64_t>(pf_names.size(),
                                       trace.instructions()),
            pool.threads());
        for (std::size_t i = 0; i < pf_names.size(); ++i) {
            pool.submit([&, i] {
                auto prefetcher =
                    sim::makePrefetcher(pf_names[i], options.config);
                sim::Simulator simulator(options.config);
                simulator.setReportFilter(options.stats_filter);
                if (options.stats_interval != 0) {
                    simulator.setSampling(options.stats_interval,
                                          options.stats_filter);
                }
                // Single-prefetcher runs get a Heartbeat that also
                // shows the live learning state when the context
                // prefetcher is active; multi-prefetcher runs fold
                // into the aggregate SweepProgress line.
                std::unique_ptr<sim::Heartbeat> heartbeat;
                if (options.verbose && !multi) {
                    heartbeat = std::make_unique<sim::Heartbeat>(
                        (options.workload.empty() ? "cspsim"
                                                  : options.workload) +
                            "/" + pf_names[i],
                        trace.instructions());
                    if (const auto *ctx = dynamic_cast<
                            const prefetch::ctx::ContextPrefetcher *>(
                            prefetcher.get())) {
                        heartbeat->setStatus([ctx] {
                            char buf[64];
                            std::snprintf(
                                buf, sizeof(buf),
                                "acc %.3f, eps %.3f",
                                ctx->policy().accuracy(),
                                ctx->policy().epsilon());
                            return std::string(buf);
                        });
                    }
                    simulator.setProgress(heartbeat->hook());
                } else if (options.verbose) {
                    simulator.setProgress(progress.hook(i));
                }
                // The timeline file is written live during the run (one
                // per prefetcher — workers never share a stream); the
                // autopsy tracker survives for serial output below.
                std::ofstream events_file;
                std::unique_ptr<obs::TraceEventWriter> events;
                obs::RunObserver observer;
                observer.profiler = outcomes[i].profiler.get();
                if (!options.trace_events.empty()) {
                    const std::string path = traceEventsPath(
                        options, pf_names[i], multi);
                    ensureParentDir(path);
                    events_file.open(path);
                    if (!events_file)
                        fatal("cannot write %s", path.c_str());
                    events = std::make_unique<obs::TraceEventWriter>(
                        events_file);
                }
                // One recorder feeds both learn.json and the timeline's
                // rl/bandit/policy tracks.
                if (!options.learn_out.empty() || events != nullptr) {
                    obs::LearningRecorder::Options learn_opts;
                    learn_opts.trace_sample = options.trace_sample;
                    if (!options.learn_out.empty()) {
                        // Auto cadence: ~32 snapshots per run. Lookup
                        // counts, not wall-clock, so the snapshot
                        // series is identical for any --jobs.
                        learn_opts.snapshot_every =
                            options.learn_snapshot_every != 0
                                ? options.learn_snapshot_every
                                : std::max<std::uint64_t>(
                                      1, trace.memAccesses() / 32);
                    }
                    outcomes[i].learner =
                        std::make_unique<obs::LearningRecorder>(
                            learn_opts, events.get());
                    observer.learn = outcomes[i].learner.get();
                }
                if (!options.mem_out.empty()) {
                    obs::MemRecorder::Options mem_opts;
                    // Auto cadence: ~64 queue-depth samples per run.
                    // Demand-access counts, not wall-clock, so the
                    // timeline is identical for any --jobs.
                    mem_opts.queue_sample_every =
                        options.mem_interval != 0
                            ? options.mem_interval
                            : std::max<std::uint64_t>(
                                  1, trace.memAccesses() / 64);
                    outcomes[i].memrec =
                        std::make_unique<obs::MemRecorder>(
                            options.config.memory, mem_opts,
                            events.get());
                    observer.mem = outcomes[i].memrec.get();
                }
                if (observing) {
                    outcomes[i].tracker =
                        std::make_unique<obs::PrefetchTracker>(
                            events.get(), options.trace_sample);
                    observer.tracker = outcomes[i].tracker.get();
                }
                simulator.setObserver(&observer);
                outcomes[i].stats = simulator.run(trace, *prefetcher);
                outcomes[i].report = simulator.lastReport();
                outcomes[i].series = simulator.lastSeries();
                if (events != nullptr)
                    events->close();
                if (options.verbose)
                    progress.cellDone(i);
            });
        }
        pool.wait();
    }
    manifest.sim_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      sim_start)
            .count();
    if (manifest.sim_seconds > 0.0) {
        manifest.insts_per_sec =
            static_cast<double>(trace.instructions()) *
            static_cast<double>(pf_names.size()) / manifest.sim_seconds;
    }

    // Full Figure-9 benefit breakdown plus wrong prefetches, all
    // sourced from the stats registry via RunStats.
    sim::Table table({"prefetcher", "IPC", "speedup", "L1-MPKI",
                      "L2-MPKI", "pf-issued", "pf-never-hit",
                      "hit-pf%", "shorter%", "non-timely%",
                      "miss-unpf%", "hit-dem%"});
    double baseline_ipc = 0.0;
    std::ostringstream stats_json;
    for (std::size_t i = 0; i < pf_names.size(); ++i) {
        const std::string &pf_name = pf_names[i];
        const sim::RunStats &stats = outcomes[i].stats;
        if (options.json) {
            std::cout << "{\"prefetcher\":\"" << pf_name
                      << "\",\"stats\":" << stats.toJson() << "}\n";
        }
        if (!options.stats_out.empty()) {
            if (multi) {
                stats_json << (stats_json.tellp() == 0 ? "{" : ",")
                           << '"' << pf_name << "\":";
            }
            stats_json << outcomes[i].report.toJson();
        }
        if (options.stats_interval != 0) {
            const std::string path =
                intervalCsvPath(options, pf_name, multi);
            ensureParentDir(path);
            std::ofstream csv(path);
            if (!csv)
                fatal("cannot write %s", path.c_str());
            manifest.writeCsvComment(csv);
            outcomes[i].series.writeCsv(csv);
            if (options.verbose)
                inform("wrote interval stats to %s", path.c_str());
        }
        if (!options.autopsy_out.empty()) {
            const std::string stem =
                autopsyStem(options.autopsy_out, pf_name, multi);
            const obs::PrefetchTracker &tracker = *outcomes[i].tracker;
            ensureParentDir(stem + ".csv");
            std::ofstream autopsy_csv(stem + ".csv");
            if (!autopsy_csv)
                fatal("cannot write %s.csv", stem.c_str());
            tracker.writeAutopsyCsv(autopsy_csv, pf_name);
            std::ofstream autopsy_json(stem + ".json");
            if (!autopsy_json)
                fatal("cannot write %s.json", stem.c_str());
            tracker.writeAutopsyJson(autopsy_json, pf_name);
            if (options.verbose) {
                inform("wrote autopsy tables to %s.{csv,json}",
                       stem.c_str());
            }
        }
        if (!options.learn_out.empty()) {
            const std::string path =
                learnOutPath(options, pf_name, multi);
            ensureParentDir(path);
            std::ofstream learn_file(path);
            if (!learn_file)
                fatal("cannot write %s", path.c_str());
            outcomes[i].learner->writeLearnJson(
                learn_file, manifest.toJson(), pf_name);
            if (options.verbose)
                inform("wrote learning snapshots to %s", path.c_str());
        }
        if (!options.mem_out.empty()) {
            const std::string path =
                memOutPath(options, pf_name, multi);
            ensureParentDir(path);
            std::ofstream mem_file(path);
            if (!mem_file)
                fatal("cannot write %s", path.c_str());
            outcomes[i].memrec->writeMemJson(
                mem_file, manifest.toJson(), pf_name);
            if (options.verbose)
                inform("wrote memory observatory to %s", path.c_str());
        }
        if (baseline_ipc == 0.0) {
            // First row is the reference (it is "none" for "all").
            baseline_ipc = stats.ipc();
        }
        const auto pct = [&stats](sim::AccessClass cls) {
            return sim::Table::num(
                100.0 * stats.classFraction(cls), 1);
        };
        table.addRow(
            {pf_name, sim::Table::num(stats.ipc(), 3),
             sim::Table::num(stats.ipc() / baseline_ipc, 3),
             sim::Table::num(stats.l1Mpki(), 1),
             sim::Table::num(stats.l2Mpki(), 2),
             std::to_string(stats.hierarchy.prefetches_issued),
             std::to_string(stats.prefetch_never_hit),
             pct(sim::AccessClass::HitPrefetchedLine),
             pct(sim::AccessClass::ShorterWait),
             pct(sim::AccessClass::NonTimely),
             pct(sim::AccessClass::MissNotPrefetched),
             pct(sim::AccessClass::HitOlderDemand)});
    }
    if (!options.stats_out.empty()) {
        if (multi)
            stats_json << '}';
        // Every stats file leads with its provenance so any two runs
        // can be compared (or rejected as incomparable) by cspdiff.
        std::ostringstream doc;
        doc << "{\"manifest\":" << manifest.toJson()
            << ",\"stats\":" << stats_json.str() << "}\n";
        writeFile(options.stats_out, doc.str());
        if (options.verbose)
            inform("wrote stats to %s", options.stats_out.c_str());
    }
    if (options.profile) {
        for (std::size_t i = 0; i < pf_names.size(); ++i) {
            const prof::Profiler &profile = *outcomes[i].profiler;
            for (std::size_t p = 0;
                 p < static_cast<std::size_t>(prof::Phase::Count);
                 ++p) {
                const auto phase = static_cast<prof::Phase>(p);
                if (profile.calls(phase) == 0)
                    continue;
                inform("profile %-10s %-16s %10.2f ms %12llu calls",
                       pf_names[i].c_str(), prof::phaseStatName(phase),
                       static_cast<double>(profile.ns(phase)) / 1e6,
                       static_cast<unsigned long long>(
                           profile.calls(phase)));
            }
        }
    }
    if (options.csv)
        table.printCsv(std::cout);
    else
        table.print(std::cout);
    return 0;
}
