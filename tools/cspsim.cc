/**
 * @file
 * cspsim — command-line driver for the simulator.
 *
 * Runs registered workloads against one prefetcher or the paper's whole
 * lineup, with the common configuration knobs exposed as flags. Every
 * invocation is one sim::runSweep grid. With --workload the grid is one
 * workload, rendered as a table, CSV or JSON, plus any per-run outputs
 * (stats, autopsy, Perfetto timeline, learn.json, mem.json).
 * With --workloads it is a sweep, cached, printed as the cell CSV.
 *
 * Examples:
 *   cspsim --list
 *   cspsim --workload list --prefetcher all
 *   cspsim --workload mcf --prefetcher context --scale 1000000
 *   cspsim --workload list --stats-out s.json --learn-out learn.json
 *   cspsim --workloads spec --prefetcher all --sweep-out spec.json
 */

#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "cli.h"
#include "core/config.h"
#include "core/logging.h"
#include "core/run_manifest.h"
#include "obs/learning.h"
#include "obs/lifecycle.h"
#include "obs/mem_recorder.h"
#include "sim/experiment.h"
#include "sim/result_cache.h"
#include "sim/sweep_events.h"
#include "sim/sweep_io.h"
#include "sim/table.h"
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
    bool csv = false;
    bool json = false;
    bool list = false;
    bool describe = false;
    bool verbose = false;
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
    std::string mem_out;
    // Sweep mode (--workloads): cached grid runs, cell CSV on stdout.
    std::string sweep_workloads;
    std::string sweep_out;
    std::string events_out;
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
        "                           sms context; 'all' = the paper\n"
        "                           lineup (default: context)\n"
        "  --scale N                target memory accesses (default "
        "250000)\n"
        "  --seed N                 workload + learner seed\n"
        "  --placement seq|rand     heap placement for workloads\n"
        "  --csv                    CSV instead of aligned table\n"
        "  --json                   one JSON object per prefetcher\n"
        "  --jobs N                 worker threads (default: CSP_JOBS,\n"
        "                           else all cores); results are\n"
        "                           bit-identical for any N\n"
        "  --stats-out FILE         full hierarchical stats as JSON\n"
        "  --stats-interval N       sample interval stats every N\n"
        "                           instructions into a CSV time-series;\n"
        "                           N is also the observation grid of\n"
        "                           every observer below (default: 64\n"
        "                           ticks per run)\n"
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
        "                           (one sample per observation tick)\n"
        "  --trace-sample N         emit 1 in N lifecycle spans and\n"
        "                           instant events (default 1 = all)\n"
        "  --learn-out FILE         learning-state snapshots, one per\n"
        "                           observation tick (policy epsilon/\n"
        "                           accuracy/entropy, CST health, top\n"
        "                           contexts with arm scores) as\n"
        "                           learn.json, manifest embedded;\n"
        "                           render with csplearn, diff with\n"
        "                           cspdiff\n"
        "  --mem-out FILE           memory-hierarchy observatory export\n"
        "                           (3C+pollution miss taxonomy from\n"
        "                           shadow models, reuse-distance and\n"
        "                           set-pressure telemetry, MSHR/DRAM\n"
        "                           queue timeline, one row per tick)\n"
        "                           as mem.json, manifest embedded;\n"
        "                           render with cspmem, diff with\n"
        "                           cspdiff\n"
        "  --workloads LIST         sweep mode: run every workload in\n"
        "                           LIST (comma-separated, or one of\n"
        "                           all/ubench/spec/irregular) against\n"
        "                           every --prefetcher; prints the cell\n"
        "                           matrix as CSV on stdout. Cells are\n"
        "                           memoized in the result cache and\n"
        "                           trace digests in the trace memo, so\n"
        "                           a repeated sweep does zero simulation\n"
        "                           work with byte-identical output.\n"
        "                           Per-run outputs (--stats-out,\n"
        "                           --stats-interval, --autopsy-out,\n"
        "                           --trace-events, --learn-out,\n"
        "                           --mem-out) need --workload\n"
        "  --sweep-out FILE         write the sweep artefact (manifest,\n"
        "                           cache accounting, cells) as\n"
        "                           csp-sweep-v2 JSON\n"
        "  --events-out FILE        append-only csp-events-v1 JSONL\n"
        "                           journal of the sweep (trace gen,\n"
        "                           per-cell start/end with cached-vs-\n"
        "                           simulated attribution, heartbeats,\n"
        "                           roll-ups); watch live or post-hoc\n"
        "                           with csptop. Side-band:\n"
        "                           results are byte-identical with the\n"
        "                           journal on or off\n"
        "  --cache-max-bytes SIZE   bound the result cache: after the\n"
        "                           sweep, evict least-recently-used\n"
        "                           entries until the cache fits SIZE\n"
        "                           (K/M/G/T suffixes, powers of 1024;\n"
        "                           default $CSP_CACHE_MAX_BYTES, else\n"
        "                           unbounded)\n"
        "  --no-result-cache        always simulate (or set\n"
        "                           CSP_RESULT_CACHE=0)\n"
        "  --no-trace-cache         generate every trace up front (or\n"
        "                           set CSP_TRACE_CACHE=0)\n"
        "  --result-cache-dir DIR   result cache location (default\n"
        "                           $CSP_RESULT_CACHE_DIR, else\n"
        "                           results/cache)\n"
        "  --trace-cache DIR        trace memo location (default\n"
        "                           $CSP_TRACE_CACHE_DIR, else\n"
        "                           traces/cache)\n"
        "  --manifest               print the run-provenance manifest\n"
        "                           (build, config digest, host) as\n"
        "                           JSON and exit\n"
        "  --verbose                one line per trace (instructions,\n"
        "                           accesses) and a rate-limited progress\n"
        "                           line (percent, insts/s, cells done)\n"
        "                           on stderr\n"
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
    // A numeric flag's whole value must parse as an unsigned number
    // of the field's type: empty input, trailing garbage or overflow
    // is fatal and names the flag.
    const auto need_number = [&]<typename T>(int &i, T &out) {
        const char *flag = argv[i];
        const char *text = need_value(i);
        if (!csp::parseUnsigned(text, out))
            fatal("%s wants an unsigned number, got '%s'", flag, text);
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
            need_number(i, options.scale);
            if (options.scale == 0)
                fatal("--scale must be at least 1");
        } else if (arg == "--seed") {
            need_number(i, options.seed);
        } else if (arg == "--placement") {
            const std::string mode = need_value(i);
            if (mode == "seq")
                options.placement = runtime::Placement::Sequential;
            else if (mode == "rand")
                options.placement = runtime::Placement::Randomized;
            else
                fatal("unknown placement: %s", mode.c_str());
        } else if (arg == "--csv") {
            options.csv = true;
        } else if (arg == "--json") {
            options.json = true;
        } else if (arg == "--verbose") {
            options.verbose = true;
        } else if (arg == "--jobs") {
            need_number(i, options.jobs);
        } else if (arg == "--stats-out") {
            options.stats_out = need_value(i);
        } else if (arg == "--stats-csv") {
            options.stats_csv = need_value(i);
        } else if (arg == "--stats-filter") {
            options.stats_filter = need_value(i);
        } else if (arg == "--stats-interval") {
            need_number(i, options.stats_interval);
        } else if (arg == "--autopsy-out") {
            options.autopsy_out = need_value(i);
        } else if (arg == "--trace-events") {
            options.trace_events = need_value(i);
        } else if (arg == "--learn-out") {
            options.learn_out = need_value(i);
        } else if (arg == "--mem-out") {
            options.mem_out = need_value(i);
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
            need_number(i, options.trace_sample);
            if (options.trace_sample == 0)
                options.trace_sample = 1;
        } else if (arg == "--cst-entries") {
            need_number(i, options.config.context.cst_entries);
        } else if (arg == "--max-degree") {
            need_number(i, options.config.context.max_degree);
        } else if (arg == "--softmax") {
            options.config.context.softmax_exploration = true;
        } else if (arg == "--dram-latency") {
            need_number(i, options.config.memory.dram_latency);
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

/** Create @p path's parent directories (fatal with a clear message on
 *  failure) so every output flag into a fresh results directory just
 *  works. */
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

/** Open @p path for writing, creating its parent directories. */
std::ofstream
openOutput(const std::string &path)
{
    ensureParentDir(path);
    std::ofstream out(path);
    if (!out)
        fatal("cannot write %s", path.c_str());
    return out;
}

/** Tag @p base per prefetcher on multi-prefetcher runs:
 *  stem.<pf>.ext. */
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

/** Interval-CSV path for one prefetcher: --stats-csv (tagged) when
 *  given, else derived from --stats-out (stats.json ->
 *  stats.intervals.csv, or stats.<pf>.intervals.csv with several
 *  prefetchers). */
std::string
intervalCsvPath(const Options &options, const std::string &pf_name,
                bool multi)
{
    if (!options.stats_csv.empty())
        return taggedPath(options.stats_csv, pf_name, multi);
    std::string base = options.stats_out;
    if (base.size() > 5 &&
        base.compare(base.size() - 5, 5, ".json") == 0) {
        base.erase(base.size() - 5);
    }
    return base + (multi ? "." + pf_name : "") + ".intervals.csv";
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

/** A sweep prints only the cell CSV: every flag that writes a per-run
 *  output is an error with --workloads, not silently ignored. */
void
rejectPerRunFlags(const Options &options)
{
    const std::pair<const char *, bool> per_run[] = {
        {"--stats-out", !options.stats_out.empty()},
        {"--stats-csv", !options.stats_csv.empty()},
        {"--stats-interval", options.stats_interval != 0},
        {"--autopsy-out", !options.autopsy_out.empty()},
        {"--trace-events", !options.trace_events.empty()},
        {"--learn-out", !options.learn_out.empty()},
        {"--mem-out", !options.mem_out.empty()},
    };
    for (const auto &[flag, given] : per_run) {
        if (given) {
            fatal("%s writes a per-run output and needs --workload, "
                  "not --workloads",
                  flag);
        }
    }
}

/** The ObserveSink mask the per-run output flags need. */
unsigned
observeMask(const Options &options)
{
    unsigned observe = 0;
    // The tracker rides along with every other observatory, as the
    // autopsy of the same run; the learning recorder also feeds the
    // timeline's rl/bandit/policy tracks.
    if (!options.autopsy_out.empty() || !options.trace_events.empty() ||
        !options.learn_out.empty() || !options.mem_out.empty())
        observe |= sim::kObserveTracker;
    if (!options.learn_out.empty() || !options.trace_events.empty())
        observe |= sim::kObserveLearn;
    if (!options.mem_out.empty())
        observe |= sim::kObserveMem;
    if (!options.stats_out.empty() || options.stats_interval != 0)
        observe |= sim::kObserveStats;
    return observe;
}

/** Write every per-run output file of a --workload run, in lineup
 *  order, each embedding @p manifest. */
void
writeRunOutputs(const Options &options, const RunManifest &manifest,
                const sim::SweepResult &result, bool multi)
{
    std::ostringstream stats_json;
    for (const sim::CellResult &cell : result.cells) {
        const std::string &pf_name = cell.prefetcher;
        const sim::CellOutputs *outputs = cell.outputs.get();
        if (!options.stats_out.empty()) {
            if (multi) {
                stats_json << (stats_json.tellp() == 0 ? "{" : ",")
                           << '"' << pf_name << "\":";
            }
            stats_json << outputs->report.toJson();
        }
        if (options.stats_interval != 0) {
            const std::string path =
                intervalCsvPath(options, pf_name, multi);
            std::ofstream csv = openOutput(path);
            manifest.writeCsvComment(csv);
            outputs->series.writeCsv(csv);
            if (options.verbose)
                inform("wrote interval stats to %s", path.c_str());
        }
        if (!options.autopsy_out.empty()) {
            const std::string stem =
                autopsyStem(options.autopsy_out, pf_name, multi);
            std::ofstream autopsy_csv = openOutput(stem + ".csv");
            outputs->tracker->writeAutopsyCsv(autopsy_csv, pf_name);
            std::ofstream autopsy_json = openOutput(stem + ".json");
            outputs->tracker->writeAutopsyJson(autopsy_json, pf_name);
            if (options.verbose) {
                inform("wrote autopsy tables to %s.{csv,json}",
                       stem.c_str());
            }
        }
        if (!options.learn_out.empty()) {
            const std::string path =
                taggedPath(options.learn_out, pf_name, multi);
            std::ofstream learn_file = openOutput(path);
            outputs->learner->writeLearnJson(learn_file,
                                             manifest.toJson(), pf_name);
            if (options.verbose)
                inform("wrote learning snapshots to %s", path.c_str());
        }
        if (!options.mem_out.empty()) {
            const std::string path =
                taggedPath(options.mem_out, pf_name, multi);
            std::ofstream mem_file = openOutput(path);
            outputs->memrec->writeMemJson(mem_file, manifest.toJson(),
                                          pf_name);
            if (options.verbose)
                inform("wrote memory observatory to %s", path.c_str());
        }
    }
    if (!options.stats_out.empty()) {
        if (multi)
            stats_json << '}';
        // Every stats file leads with its provenance so any two runs
        // can be compared (or rejected as incomparable) by cspdiff.
        openOutput(options.stats_out)
            << "{\"manifest\":" << manifest.toJson()
            << ",\"stats\":" << stats_json.str() << "}\n";
        if (options.verbose)
            inform("wrote stats to %s", options.stats_out.c_str());
    }
}

/** The single-run table, one row per prefetcher: the full Figure-9
 *  benefit breakdown plus wrong prefetches, and --json lines. */
void
printRunTable(const Options &options, const sim::SweepResult &result)
{
    sim::Table table({"prefetcher", "IPC", "speedup", "L1-MPKI",
                      "L2-MPKI", "pf-issued", "pf-never-hit",
                      "hit-pf%", "shorter%", "non-timely%",
                      "miss-unpf%", "hit-dem%"});
    double baseline_ipc = 0.0;
    for (const sim::CellResult &cell : result.cells) {
        const sim::RunStats &stats = cell.stats;
        if (options.json) {
            std::cout << "{\"prefetcher\":\"" << cell.prefetcher
                      << "\",\"stats\":" << stats.toJson() << "}\n";
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
            {cell.prefetcher, sim::Table::num(stats.ipc(), 3),
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
    if (options.csv)
        table.printCsv(std::cout);
    else
        table.print(std::cout);
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

    if (options.print_manifest) {
        RunManifest manifest = makeRunManifest("cspsim", options.config);
        manifest.workloads = options.workload;
        manifest.prefetchers = options.prefetcher;
        manifest.scale = options.scale;
        manifest.placement =
            options.placement == runtime::Placement::Sequential ? "seq"
                                                                : "rand";
        std::cout << manifest.toJson() << '\n';
        return 0;
    }

    const bool sweep_mode = !options.sweep_workloads.empty();
    if (sweep_mode)
        rejectPerRunFlags(options);
    else if (options.workload.empty())
        fatal("--workload or --workloads is required (see --help)");
    if (options.stats_interval != 0 && options.stats_out.empty() &&
        options.stats_csv.empty()) {
        fatal("--stats-interval needs --stats-out or "
              "--stats-csv for the CSV path");
    }

    // One grid for every invocation: the lineup against one workload,
    // or against every --workloads entry. Each cell's timeline file is
    // streamed live by the run itself.
    const std::vector<std::string> pf_names =
        prefetcherList(options.prefetcher);
    const bool multi = pf_names.size() > 1;
    workloads::WorkloadParams params;
    params.scale = options.scale;
    params.seed = options.seed;
    params.placement = options.placement;
    std::vector<sim::SweepCell> grid;
    for (const std::string &workload :
         sweep_mode ? sweepWorkloadList(options.sweep_workloads)
                    : std::vector<std::string>{options.workload}) {
        for (const std::string &pf_name : pf_names) {
            std::string trace_events;
            if (!options.trace_events.empty()) {
                trace_events =
                    taggedPath(options.trace_events, pf_name, multi);
                ensureParentDir(trace_events);
            }
            grid.push_back(
                {workload, params, options.config, pf_name, trace_events});
        }
    }

    // Sweeps consult both caches unless a flag or env knob opts out;
    // single runs always simulate cold.
    sim::SweepOptions sweep_opts;
    sweep_opts.verbose = options.verbose;
    sweep_opts.jobs = options.jobs;
    sweep_opts.observe = observeMask(options);
    sweep_opts.use_result_cache = sweep_mode && !options.no_result_cache &&
                                  sim::resultCacheEnabledByEnv();
    sweep_opts.use_trace_cache = sweep_mode && !options.no_trace_cache &&
                                 sim::traceCacheEnabledByEnv();
    sweep_opts.result_cache_dir = options.result_cache_dir;
    sweep_opts.trace_cache_dir = options.trace_cache_dir;
    sweep_opts.trace_sample = options.trace_sample;
    sweep_opts.stats_interval = options.stats_interval;
    sweep_opts.stats_filter = options.stats_filter;
    // The journal is strictly side-band: runSweep records what it
    // already computed, so results are byte-identical with events on
    // or off (enforced by test_sweep_events).
    sim::SweepEventJournal journal;
    if (!options.events_out.empty()) {
        ensureParentDir(options.events_out);
        if (!journal.open(options.events_out))
            fatal("cannot write %s", options.events_out.c_str());
        sweep_opts.journal = &journal;
    }
    const sim::SweepResult result = sim::runSweep(grid, sweep_opts);
    if (!options.sweep_out.empty()) {
        std::ostringstream doc;
        sim::writeSweepJson(doc, result);
        openOutput(options.sweep_out) << doc.str();
        if (options.verbose) {
            inform("wrote sweep artefact to %s",
                   options.sweep_out.c_str());
        }
    }
    // Bound the result cache only after the sweep is done — its own
    // workers may still read an entry a mid-sweep trim would evict.
    // The trim events are the only ones allowed after sweep_end.
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
                   static_cast<unsigned long long>(trim.evicted_entries),
                   static_cast<unsigned long long>(trim.scanned_entries),
                   static_cast<unsigned long long>(trim.evicted_bytes),
                   static_cast<unsigned long long>(trim.scanned_bytes),
                   static_cast<unsigned long long>(cache_budget));
        }
    }
    journal.close();
    if (sweep_mode) {
        sim::writeSweepCsv(std::cout, result);
        return 0;
    }

    // Every per-run output embeds the sweep's manifest, named for
    // cspsim and for its one trace rather than the combined digest.
    RunManifest manifest = result.manifest;
    manifest.tool = "cspsim";
    manifest.prefetchers = options.prefetcher;
    for (const sim::CellResult &cell : result.cells) {
        if (cell.outputs != nullptr) {
            manifest.trace_digest = hexDigest(cell.outputs->trace_digest);
            break;
        }
    }
    writeRunOutputs(options, manifest, result, multi);
    printRunTable(options, result);
    return 0;
}
