#include "sim/experiment.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <numeric>

#include "core/content_store.h"
#include "core/hashing.h"
#include "core/logging.h"
#include "core/profiling.h"
#include "core/thread_pool.h"
#include "obs/learning.h"
#include "obs/lifecycle.h"
#include "obs/mem_recorder.h"
#include "obs/run_observer.h"
#include "sim/result_cache.h"
#include "sim/sweep_events.h"
#include "trace/trace_io.h"
#include "prefetch/context/context_prefetcher.h"
#include "prefetch/ghb.h"
#include "prefetch/jump_pointer.h"
#include "prefetch/markov.h"
#include "prefetch/next_line.h"
#include "prefetch/sms.h"
#include "prefetch/stride.h"

namespace csp::sim {

namespace {

std::string
joinNames(const std::vector<std::string> &names)
{
    std::string joined;
    for (const std::string &name : names) {
        if (!joined.empty())
            joined += ',';
        joined += name;
    }
    return joined;
}

/**
 * Cache path of a workload's generated trace. The key folds in
 * kResultCacheEpoch — the same "bump on result-affecting changes"
 * epoch the result cache uses — because a stale trace file is exactly
 * as wrong as a stale result entry: the file's self-digest only proves
 * the bytes match what some past generator produced, not that today's
 * generator agrees. The workload name rides along in the filename for
 * debuggability.
 */
std::string
traceCachePath(const std::string &dir, const std::string &workload,
               const workloads::WorkloadParams &params)
{
    WordHasher h;
    h.add(kResultCacheEpoch);
    h.add(fnv1a({reinterpret_cast<const std::uint8_t *>(workload.data()),
                 workload.size()}));
    h.add(params.scale);
    h.add(params.seed);
    h.add(params.placement == runtime::Placement::Sequential ? 0 : 1);
    return dir + "/" + workload + "-" + hexDigest(h.digest()) +
           ".csptrace";
}

/** Publish @p buffer at @p path atomically (temp sibling + rename);
 *  a failed store only warns — the sweep still has the buffer. */
void
storeTraceInCache(const trace::TraceBuffer &buffer,
                  const std::string &dir, const std::string &path)
{
    if (!ensureDirectories(dir)) {
        warn("trace cache: cannot create %s", dir.c_str());
        return;
    }
    const std::string tmp = uniqueTempPath(path);
    if (!trace::saveTraceFile(buffer, tmp) ||
        !atomicRename(tmp, path)) {
        std::remove(tmp.c_str());
        warn("trace cache: cannot store %s", path.c_str());
    }
}

} // namespace

std::unique_ptr<prefetch::Prefetcher>
makePrefetcher(const std::string &name, const SystemConfig &config)
{
    const unsigned line = config.memory.l1d.line_bytes;
    if (name == "none")
        return std::make_unique<prefetch::NullPrefetcher>();
    if (name == "stride") {
        return std::make_unique<prefetch::StridePrefetcher>(
            config.stride, line);
    }
    if (name == "ghb-gdc") {
        return std::make_unique<prefetch::GhbPrefetcher>(
            config.ghb, prefetch::GhbFlavor::GlobalDC, line);
    }
    if (name == "ghb-pcdc") {
        return std::make_unique<prefetch::GhbPrefetcher>(
            config.ghb, prefetch::GhbFlavor::PcDC, line);
    }
    if (name == "sms")
        return std::make_unique<prefetch::SmsPrefetcher>(config.sms);
    if (name == "jump") {
        return std::make_unique<prefetch::JumpPointerPrefetcher>(
            prefetch::JumpPointerConfig{}, line);
    }
    if (name == "next-line") {
        return std::make_unique<prefetch::NextLinePrefetcher>(
            prefetch::NextLineConfig{}, line);
    }
    if (name == "markov") {
        return std::make_unique<prefetch::MarkovPrefetcher>(
            config.markov);
    }
    if (name == "context") {
        return std::make_unique<prefetch::ctx::ContextPrefetcher>(
            config.context, config.seed);
    }
    fatal("unknown prefetcher: %s", name.c_str());
}

std::vector<std::string>
paperPrefetchers()
{
    return {"none", "stride", "ghb-gdc", "ghb-pcdc", "sms", "context"};
}

std::vector<std::string>
ubenchWorkloads()
{
    return {"array", "list",    "listsort", "bst",
            "hashtest", "maptest", "prim",    "ssca_lds"};
}

std::vector<std::string>
specWorkloads()
{
    return {"sjeng", "povray",  "soplex",     "dealII",
            "h264ref", "gobmk", "hmmer",      "bzip2",
            "milc",  "namd",    "omnetpp",    "astar",
            "libquantum", "mcf", "sphinx3",   "lbm"};
}

std::vector<std::string>
irregularWorkloads()
{
    return {"graph500", "graph500-list", "ssca2-csr", "ssca2-list",
            "suffixArray", "BFS", "setCover", "KNN", "convexHull"};
}

std::vector<std::string>
allWorkloads()
{
    std::vector<std::string> names = specWorkloads();
    for (const auto &n : irregularWorkloads())
        names.push_back(n);
    for (const auto &n : ubenchWorkloads())
        names.push_back(n);
    return names;
}

std::uint64_t
effectiveScale(std::uint64_t base)
{
    const char *env = std::getenv("CSP_SCALE");
    if (env == nullptr)
        return base;
    const double factor = std::atof(env);
    if (factor <= 0.0)
        return base;
    return static_cast<std::uint64_t>(
        static_cast<double>(base) * factor);
}

const RunStats &
SweepResult::at(const std::string &workload,
                const std::string &prefetcher) const
{
    for (const CellResult &cell : cells) {
        if (cell.workload == workload && cell.prefetcher == prefetcher)
            return cell.stats;
    }
    fatal("sweep has no cell (%s, %s)", workload.c_str(),
          prefetcher.c_str());
}

double
SweepResult::speedup(const std::string &workload,
                     const std::string &prefetcher) const
{
    const double base = at(workload, "none").ipc();
    const double with = at(workload, prefetcher).ipc();
    return base == 0.0 ? 0.0 : with / base;
}

double
SweepResult::geomeanSpeedup(const std::string &prefetcher) const
{
    std::vector<double> speedups;
    speedups.reserve(workload_names.size());
    for (const std::string &workload : workload_names)
        speedups.push_back(speedup(workload, prefetcher));
    return geomean(speedups);
}

Heartbeat::Heartbeat(std::string label, std::uint64_t total_insts,
                     double min_seconds)
    : label_(std::move(label)),
      total_(total_insts),
      min_seconds_(min_seconds),
      start_(std::chrono::steady_clock::now()),
      last_(start_)
{}

Simulator::ProgressFn
Heartbeat::hook()
{
    return [this](std::uint64_t instructions) { beat(instructions); };
}

void
Heartbeat::setStatus(std::function<std::string()> status)
{
    status_ = std::move(status);
}

void
Heartbeat::beat(std::uint64_t instructions)
{
    const auto now = std::chrono::steady_clock::now();
    const double since_last =
        std::chrono::duration<double>(now - last_).count();
    if (since_last < min_seconds_)
        return;
    last_ = now;
    const double elapsed =
        std::chrono::duration<double>(now - start_).count();
    const double rate =
        elapsed > 0.0 ? static_cast<double>(instructions) / elapsed
                      : 0.0;
    const double pct =
        total_ == 0 ? 0.0
                    : 100.0 * static_cast<double>(instructions) /
                          static_cast<double>(total_);
    // The status suffix is folded into the one inform() call so the
    // line is still a single atomic write (concurrent heartbeats never
    // interleave mid-line).
    std::string status;
    if (status_) {
        status = status_();
        if (!status.empty())
            status.insert(0, ", ");
    }
    inform("%s: %5.1f%% (%.1fM insts, %.2fM insts/s%s)", label_.c_str(),
           pct, static_cast<double>(instructions) / 1e6, rate / 1e6,
           status.c_str());
}

double
geomean(const std::vector<double> &values)
{
    if (values.empty())
        return 1.0;
    double log_sum = 0.0;
    for (double v : values) {
        if (v <= 0.0) {
            warn("geomean: non-positive value %g clamped to 1e-9 "
                 "(zero-IPC cell — broken run?)",
                 v);
            v = 1e-9;
        }
        log_sum += std::log(v);
    }
    return std::exp(log_sum / static_cast<double>(values.size()));
}

SweepProgress::SweepProgress(std::string label,
                             std::vector<std::uint64_t> cell_totals,
                             unsigned jobs, double min_seconds)
    : label_(std::move(label)),
      totals_(std::move(cell_totals)),
      current_(totals_.size(), 0),
      expected_cells_(totals_.size()),
      jobs_(jobs),
      min_seconds_(min_seconds),
      start_(std::chrono::steady_clock::now()),
      last_(start_)
{
    total_sum_ = std::accumulate(totals_.begin(), totals_.end(),
                                 std::uint64_t{0});
}

void
SweepProgress::setExpectedCells(std::size_t expected)
{
    std::lock_guard<std::mutex> lock(mutex_);
    expected_cells_ = expected;
}

void
SweepProgress::setJournal(SweepEventJournal *journal)
{
    std::lock_guard<std::mutex> lock(mutex_);
    journal_ = journal;
}

void
SweepProgress::setPrint(bool print)
{
    std::lock_guard<std::mutex> lock(mutex_);
    print_ = print;
}

Simulator::ProgressFn
SweepProgress::hook(std::size_t cell)
{
    return [this, cell](std::uint64_t instructions) {
        update(cell, instructions);
    };
}

void
SweepProgress::update(std::size_t cell, std::uint64_t instructions)
{
    std::lock_guard<std::mutex> lock(mutex_);
    instructions = std::min(instructions, totals_[cell]);
    if (instructions <= current_[cell])
        return;
    done_sum_ += instructions - current_[cell];
    current_[cell] = instructions;

    const auto now = std::chrono::steady_clock::now();
    if (std::chrono::duration<double>(now - last_).count() <
        min_seconds_) {
        return;
    }
    last_ = now;
    report();
}

void
SweepProgress::cellDone(std::size_t cell)
{
    std::lock_guard<std::mutex> lock(mutex_);
    done_sum_ += totals_[cell] - current_[cell];
    current_[cell] = totals_[cell];
    ++cells_done_;
    if (cells_done_ == expected_cells_) {
        last_ = std::chrono::steady_clock::now();
        report();
    }
}

void
SweepProgress::cellCached(std::size_t cell)
{
    std::lock_guard<std::mutex> lock(mutex_);
    done_sum_ += totals_[cell] - current_[cell];
    current_[cell] = totals_[cell];
    ++cells_done_;
    ++cells_cached_;
    if (cells_done_ == expected_cells_) {
        last_ = std::chrono::steady_clock::now();
        report();
    }
}

void
SweepProgress::report()
{
    const double elapsed =
        std::chrono::duration<double>(last_ - start_).count();
    const double rate =
        elapsed > 0.0 ? static_cast<double>(done_sum_) / elapsed : 0.0;
    const double pct =
        total_sum_ == 0 ? 100.0
                        : 100.0 * static_cast<double>(done_sum_) /
                              static_cast<double>(total_sum_);
    // Every rate-limited report also lands in the journal, so a
    // non-verbose sweep with --events-out still records progress for
    // csptop --follow (ETA, cells/s) without printing anything.
    if (journal_ != nullptr) {
        journal_->emit(
            "heartbeat",
            {SweepEventJournal::u64("cells_done", cells_done_),
             SweepEventJournal::u64("cells_expected",
                                    expected_cells_),
             SweepEventJournal::u64("cells_cached", cells_cached_),
             SweepEventJournal::u64("insts_done", done_sum_),
             SweepEventJournal::u64("insts_total", total_sum_),
             SweepEventJournal::u64(
                 "insts_per_sec",
                 static_cast<std::uint64_t>(rate))});
    }
    if (!print_)
        return;
    // Memoized cells show up as a suffix so a warm sweep's log makes
    // the cache's contribution visible: "12/40 cells (7 cached)".
    char cached[32] = "";
    if (cells_cached_ != 0) {
        std::snprintf(cached, sizeof cached, " (%zu cached)",
                      cells_cached_);
    }
    inform("%s: %5.1f%% (%.1fM/%.1fM insts, %.2fM insts/s, "
           "%zu/%zu cells%s, jobs=%u)",
           label_.c_str(), pct,
           static_cast<double>(done_sum_) / 1e6,
           static_cast<double>(total_sum_) / 1e6, rate / 1e6,
           cells_done_, expected_cells_, cached, jobs_);
}

SweepResult
runSweep(const std::vector<std::string> &workload_names,
         const std::vector<std::string> &prefetcher_names,
         const workloads::WorkloadParams &params,
         const SystemConfig &config, const SweepOptions &options)
{
    if (options.shard_count == 0 ||
        options.shard_index >= options.shard_count) {
        fatal("runSweep: invalid shard %u/%u", options.shard_index,
              options.shard_count);
    }
    SweepResult result;
    result.workload_names = workload_names;
    result.prefetcher_names = prefetcher_names;
    result.shard_index = options.shard_index;
    result.shard_count = options.shard_count;
    const std::size_t n_workloads = workload_names.size();
    const std::size_t n_prefetchers = prefetcher_names.size();
    const std::size_t n_cells = n_workloads * n_prefetchers;
    result.manifest = makeRunManifest("runSweep", config);
    result.manifest.seed = params.seed;
    result.manifest.scale = params.scale;
    result.manifest.placement =
        params.placement == runtime::Placement::Sequential ? "seq"
                                                           : "rand";
    result.manifest.workloads = joinNames(workload_names);
    result.manifest.prefetchers = joinNames(prefetcher_names);
    if (n_cells == 0)
        return result;

    const workloads::Registry &registry =
        workloads::Registry::builtin();
    const unsigned jobs = options.jobs != 0
                              ? options.jobs
                              : ThreadPool::defaultJobs();
    result.manifest.jobs = jobs;
    ThreadPool pool(jobs);

    // The journal is strictly side-band: every emission site below
    // only records values the sweep already computed, so a null (or
    // unopened) journal and a live one produce bit-identical results.
    SweepEventJournal *journal =
        options.journal != nullptr && options.journal->isOpen()
            ? options.journal
            : nullptr;
    using J = SweepEventJournal;
    if (journal != nullptr) {
        journal->setShard(options.shard_index);
        journal->emit(
            "sweep_start",
            {J::str("schema", kSweepEventsSchema),
             J::u64("unix_ns", journal->unixStartNs()),
             J::str("config_digest", result.manifest.config_digest),
             J::u64("seed", params.seed),
             J::u64("scale", params.scale),
             J::str("placement", result.manifest.placement),
             J::str("workloads", result.manifest.workloads),
             J::str("prefetchers", result.manifest.prefetchers),
             J::u64("shard_count", options.shard_count),
             J::u64("jobs", jobs),
             J::str("git_sha", result.manifest.git_sha)});
    }
    SweepTelemetry telemetry;
    std::mutex telemetry_mutex;

    const std::string trace_cache_dir =
        options.trace_cache_dir.empty() ? defaultTraceCacheDir()
                                        : options.trace_cache_dir;
    std::mutex sink_mutex; // guards options.profiler_sink merges
    const auto generateTrace = [&](std::size_t wi) {
        const auto t0 = std::chrono::steady_clock::now();
        trace::TraceBuffer buffer =
            registry.create(workload_names[wi])->generate(params);
        if (options.profiler_sink != nullptr) {
            const auto ns =
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
            std::lock_guard<std::mutex> lock(sink_mutex);
            options.profiler_sink->add(
                prof::Phase::TraceGen,
                static_cast<std::uint64_t>(ns));
        }
        return buffer;
    };

    // Phase 1: establish every workload trace's summary (counts +
    // content digest) once, workloads in parallel. A trace-cache hit
    // contributes only its O(1) header here — the payload is mapped or
    // loaded lazily in phase 2, and only if a cell actually misses the
    // result cache. Misses generate (and store) the trace now. Summary
    // lines print afterwards in workload order, so verbose output is
    // deterministic.
    const auto trace_gen_start = std::chrono::steady_clock::now();
    std::vector<trace::TraceBuffer> traces(n_workloads);
    std::vector<trace::TraceFileSummary> summaries(n_workloads);
    std::vector<std::string> cache_paths(n_workloads);
    // Written only before pool.wait() (phase 1) or under trace_once
    // (phase 2), so no atomics needed.
    std::vector<std::uint8_t> materialized(n_workloads, 0);
    std::atomic<std::uint64_t> trace_cache_hits{0};
    pool.parallelFor(n_workloads, [&](std::size_t wi) {
        if (options.use_trace_cache) {
            cache_paths[wi] = traceCachePath(
                trace_cache_dir, workload_names[wi], params);
            trace::TraceFileSummary summary;
            if (trace::readTraceFileSummary(cache_paths[wi],
                                            summary) ==
                trace::TraceIoStatus::Ok) {
                summaries[wi] = summary;
                trace_cache_hits.fetch_add(
                    1, std::memory_order_relaxed);
                if (journal != nullptr) {
                    journal->emit(
                        "trace_cache",
                        {J::str("workload", workload_names[wi]),
                         J::str("digest",
                                hexDigest(summary.content_digest)),
                         J::u64("records", summary.records),
                         J::u64("insts", summary.instructions),
                         J::u64("worker",
                                static_cast<std::uint64_t>(std::max(
                                    0,
                                    ThreadPool::currentWorkerId())))});
                }
                return;
            }
        }
        const auto gen_start = std::chrono::steady_clock::now();
        traces[wi] = generateTrace(wi);
        summaries[wi] = {traces[wi].size(), traces[wi].instructions(),
                         traces[wi].memAccesses(),
                         traces[wi].contentDigest()};
        materialized[wi] = 1;
        if (options.use_trace_cache) {
            storeTraceInCache(traces[wi], trace_cache_dir,
                              cache_paths[wi]);
        }
        if (journal != nullptr) {
            const auto gen_ns = static_cast<std::uint64_t>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    std::chrono::steady_clock::now() - gen_start)
                    .count());
            journal->emit(
                "trace_gen",
                {J::str("workload", workload_names[wi]),
                 J::str("digest",
                        hexDigest(summaries[wi].content_digest)),
                 J::u64("records", summaries[wi].records),
                 J::u64("insts", summaries[wi].instructions),
                 J::u64("accesses", summaries[wi].mem_accesses),
                 J::u64("duration_ns", gen_ns),
                 J::u64("cached",
                        options.use_trace_cache ? 1 : 0),
                 J::u64("worker",
                        static_cast<std::uint64_t>(std::max(
                            0, ThreadPool::currentWorkerId())))});
        }
        std::lock_guard<std::mutex> lock(telemetry_mutex);
        ++telemetry.traces_generated;
    });
    result.trace_cache_hits =
        trace_cache_hits.load(std::memory_order_relaxed);
    result.manifest.trace_gen_seconds =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - trace_gen_start)
            .count();
    // Trace provenance must be captured now: traces are released as
    // their last cell completes in phase 2.
    {
        WordHasher combined;
        for (const trace::TraceFileSummary &s : summaries) {
            combined.add(s.content_digest);
            result.manifest.trace_records += s.records;
            result.manifest.trace_instructions += s.instructions;
            result.manifest.trace_accesses += s.mem_accesses;
        }
        result.manifest.trace_digest =
            hexDigest(combined.digest());
    }
    if (options.verbose) {
        for (std::size_t wi = 0; wi < n_workloads; ++wi) {
            inform("%-14s %8.2fM insts, %6.2fM accesses%s",
                   workload_names[wi].c_str(),
                   static_cast<double>(summaries[wi].instructions) /
                       1e6,
                   static_cast<double>(summaries[wi].mem_accesses) /
                       1e6,
                   materialized[wi] ? "" : " [trace cache]");
        }
    }

    const auto sim_start = std::chrono::steady_clock::now();

    // Phase 2: simulate the independent cells, scheduled longest
    // trace first so a big workload never straggles at the end.
    // Results land in pre-sized row-major slots, so assembly order is
    // identical to the serial path no matter how cells interleave.
    std::vector<std::uint64_t> cell_totals(n_cells);
    for (std::size_t k = 0; k < n_cells; ++k)
        cell_totals[k] = summaries[k / n_prefetchers].instructions;

    std::vector<std::size_t> order(n_cells);
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [&cell_totals](std::size_t a, std::size_t b) {
                         return cell_totals[a] > cell_totals[b];
                     });

    // Shard ownership: rank in the global longest-first order, mod
    // shard_count. Every shard computes the same order from the same
    // summaries, so the partition is deterministic and disjoint; the
    // round-robin over sorted ranks also balances big workloads across
    // shards instead of handing shard 0 all the long traces.
    std::vector<std::uint8_t> owned(n_cells, 1);
    if (options.shard_count > 1) {
        owned.assign(n_cells, 0);
        for (std::size_t rank = 0; rank < n_cells; ++rank) {
            if (rank % options.shard_count == options.shard_index)
                owned[order[rank]] = 1;
        }
    }
    std::size_t owned_cells = 0;
    std::vector<std::uint64_t> progress_totals(n_cells, 0);
    for (std::size_t k = 0; k < n_cells; ++k) {
        if (owned[k]) {
            ++owned_cells;
            progress_totals[k] = cell_totals[k];
        }
    }

    std::uint64_t owned_insts = 0;
    for (std::size_t k = 0; k < n_cells; ++k) {
        if (owned[k])
            owned_insts += cell_totals[k];
    }
    if (journal != nullptr) {
        journal->emit(
            "schedule",
            {J::u64("cells_total", n_cells),
             J::u64("cells_owned", owned_cells),
             J::u64("insts_owned", owned_insts),
             J::str("trace_digest", result.manifest.trace_digest)});
    }

    result.cells.resize(n_cells);
    // Progress tracking runs for verbose output or a live journal;
    // the hooks only observe instruction counts, so tracking on/off
    // cannot change results.
    const bool track = options.verbose || journal != nullptr;
    SweepProgress progress("sweep", std::move(progress_totals), jobs);
    progress.setExpectedCells(owned_cells);
    progress.setJournal(journal);
    progress.setPrint(options.verbose);

    const bool use_result_cache = options.use_result_cache;
    const ResultCache result_cache(options.result_cache_dir.empty()
                                       ? defaultResultCacheDir()
                                       : options.result_cache_dir);
    if (use_result_cache &&
        !ensureDirectories(result_cache.root())) {
        warn("result cache: cannot create %s",
             result_cache.root().c_str());
    }
    const std::uint64_t config_digest = configDigest(config);
    std::atomic<std::uint64_t> cells_cached{0};
    std::atomic<std::uint64_t> cells_simulated{0};

    // Lazy trace materialization for cache-hit workloads: the first
    // cell of a workload to miss the result cache loads (or, on a
    // corrupt file, regenerates) the trace; call_once publishes it to
    // every other cell.
    std::unique_ptr<std::once_flag[]> trace_once(
        new std::once_flag[n_workloads]);
    const auto ensureTrace = [&](std::size_t wi) {
        std::call_once(trace_once[wi], [&] {
            if (materialized[wi])
                return; // generated in phase 1
            const auto load_start = std::chrono::steady_clock::now();
            trace::TraceBuffer loaded;
            const trace::TraceIoStatus status =
                trace::loadTraceFile(cache_paths[wi], loaded);
            if (journal != nullptr) {
                const auto load_ns = static_cast<std::uint64_t>(
                    std::chrono::duration_cast<
                        std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - load_start)
                        .count());
                journal->emit(
                    "trace_load",
                    {J::str("workload", workload_names[wi]),
                     J::str("status",
                            trace::traceIoStatusName(status)),
                     J::u64("duration_ns", load_ns),
                     J::u64("worker",
                            static_cast<std::uint64_t>(std::max(
                                0,
                                ThreadPool::currentWorkerId())))});
            }
            if (status == trace::TraceIoStatus::Ok) {
                traces[wi] = std::move(loaded);
                std::lock_guard<std::mutex> lock(telemetry_mutex);
                ++telemetry.traces_loaded;
            } else {
                warn("trace cache: %s for %s, regenerating",
                     trace::traceIoStatusName(status),
                     cache_paths[wi].c_str());
                traces[wi] = generateTrace(wi);
                {
                    std::lock_guard<std::mutex> lock(telemetry_mutex);
                    ++telemetry.traces_generated;
                }
                if (traces[wi].contentDigest() !=
                    summaries[wi].content_digest) {
                    // The header lied (corrupt digest field). Results
                    // stay correct — cells simulate the regenerated
                    // trace — but their cache keys carry the stale
                    // digest, so they can only pollute, never alias.
                    warn("trace cache: stale header digest in %s",
                         cache_paths[wi].c_str());
                }
                storeTraceInCache(traces[wi], trace_cache_dir,
                                  cache_paths[wi]);
            }
            materialized[wi] = 1;
        });
    };

    // Per-workload countdown so the last finishing cell releases its
    // trace — peak memory tapers during the sweep instead of holding
    // every trace until the end. Sharded sweeps count owned cells
    // only; a workload with no owned cells frees (or never loads) its
    // trace immediately.
    std::unique_ptr<std::atomic<std::size_t>[]> cells_left(
        new std::atomic<std::size_t>[n_workloads]);
    for (std::size_t wi = 0; wi < n_workloads; ++wi) {
        std::size_t owned_here = 0;
        for (std::size_t pi = 0; pi < n_prefetchers; ++pi)
            owned_here += owned[wi * n_prefetchers + pi];
        cells_left[wi].store(owned_here, std::memory_order_relaxed);
        if (owned_here == 0)
            traces[wi] = trace::TraceBuffer();
    }

    for (const std::size_t k : order) {
        if (!owned[k])
            continue;
        pool.submit([&, k] {
            const std::size_t wi = k / n_prefetchers;
            const std::size_t pi = k % n_prefetchers;
            CellResult cell;
            cell.workload = workload_names[wi];
            cell.prefetcher = prefetcher_names[pi];
            cell.present = true;
            CellKey key;
            key.config_digest = config_digest;
            key.trace_digest = summaries[wi].content_digest;
            key.workload = cell.workload;
            key.prefetcher = cell.prefetcher;
            key.scale = params.scale;
            key.seed = params.seed;
            key.placement = result.manifest.placement;
            const auto worker = static_cast<std::uint64_t>(
                std::max(0, ThreadPool::currentWorkerId()));
            const auto cell_start = std::chrono::steady_clock::now();
            const auto cellNs = [&cell_start] {
                return static_cast<std::uint64_t>(
                    std::chrono::duration_cast<
                        std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - cell_start)
                        .count());
            };
            if (journal != nullptr) {
                journal->emit(
                    "cell_start",
                    {J::u64("cell", k),
                     J::str("workload", cell.workload),
                     J::str("prefetcher", cell.prefetcher),
                     J::u64("worker", worker)});
            }
            ResultCache::LoadStats load_stats;
            if (use_result_cache &&
                result_cache.load(key, cell.stats, &load_stats)) {
                cells_cached.fetch_add(1, std::memory_order_relaxed);
                if (track)
                    progress.cellCached(k);
                const std::uint64_t duration_ns = cellNs();
                {
                    std::lock_guard<std::mutex> lock(telemetry_mutex);
                    telemetry.cache_read_ns += load_stats.read_ns;
                    telemetry.cache_parse_ns += load_stats.parse_ns;
                    telemetry.cache_entry_bytes += load_stats.bytes;
                    telemetry.cell_duration_ns.sample(duration_ns);
                    telemetry.cache_load_ns.sample(
                        load_stats.read_ns + load_stats.parse_ns);
                    telemetry.cache_entry_bytes_dist.sample(
                        load_stats.bytes);
                }
                if (journal != nullptr) {
                    journal->emit(
                        "cell_end",
                        {J::u64("cell", k),
                         J::str("workload", cell.workload),
                         J::str("prefetcher", cell.prefetcher),
                         J::u64("worker", worker),
                         J::str("source", "cached"),
                         J::u64("duration_ns", duration_ns),
                         J::u64("read_ns", load_stats.read_ns),
                         J::u64("parse_ns", load_stats.parse_ns),
                         J::u64("bytes", load_stats.bytes),
                         J::u64("insts", cell.stats.instructions)});
                }
            } else {
                // A rejected entry (verify failure) cost a read+parse
                // before the miss; attribute it like a hit's so the
                // warm-path totals stay honest.
                if (load_stats.verify_failed ||
                    load_stats.bytes != 0) {
                    std::lock_guard<std::mutex> lock(telemetry_mutex);
                    telemetry.cache_read_ns += load_stats.read_ns;
                    telemetry.cache_parse_ns += load_stats.parse_ns;
                    telemetry.cache_entry_bytes += load_stats.bytes;
                    telemetry.cache_load_ns.sample(
                        load_stats.read_ns + load_stats.parse_ns);
                    telemetry.cache_entry_bytes_dist.sample(
                        load_stats.bytes);
                    if (load_stats.verify_failed)
                        ++telemetry.cache_verify_failures;
                }
                ensureTrace(wi);
                auto prefetcher =
                    makePrefetcher(cell.prefetcher, config);
                Simulator simulator(config);
                // The cell's observer bundle, built from the mask; a
                // profiler sink needs the per-cell profile to merge.
                const unsigned observe =
                    options.observe | (options.profiler_sink != nullptr
                                           ? kObserveProfile
                                           : 0u);
                obs::PrefetchTracker tracker;
                obs::LearningRecorder learner;
                std::unique_ptr<obs::MemRecorder> memrec;
                prof::Profiler profiler;
                obs::RunObserver observer;
                if (observe & kObserveTracker)
                    observer.tracker = &tracker;
                if (observe & kObserveLearn)
                    observer.learn = &learner;
                if (observe & kObserveMem) {
                    memrec = std::make_unique<obs::MemRecorder>(
                        config.memory);
                    observer.mem = memrec.get();
                }
                if (observe & kObserveProfile)
                    observer.profiler = &profiler;
                simulator.setObserver(&observer);
                if (track)
                    simulator.setProgress(progress.hook(k));
                cell.stats = simulator.run(traces[wi], *prefetcher);
                cells_simulated.fetch_add(1,
                                          std::memory_order_relaxed);
                if (use_result_cache) {
                    result_cache.store(key, cell.stats,
                                       result.manifest.git_sha);
                }
                if (track)
                    progress.cellDone(k);
                const std::uint64_t duration_ns = cellNs();
                {
                    std::lock_guard<std::mutex> lock(telemetry_mutex);
                    telemetry.cell_duration_ns.sample(duration_ns);
                }
                if (journal != nullptr) {
                    journal->emit(
                        "cell_end",
                        {J::u64("cell", k),
                         J::str("workload", cell.workload),
                         J::str("prefetcher", cell.prefetcher),
                         J::u64("worker", worker),
                         J::str("source", "simulated"),
                         J::u64("duration_ns", duration_ns),
                         J::u64("verify_failed",
                                load_stats.verify_failed ? 1 : 0),
                         J::u64("insts", cell.stats.instructions)});
                }
                if (options.profiler_sink != nullptr) {
                    std::lock_guard<std::mutex> lock(sink_mutex);
                    for (std::size_t p = 0;
                         p <
                         static_cast<std::size_t>(prof::Phase::Count);
                         ++p) {
                        const auto phase =
                            static_cast<prof::Phase>(p);
                        options.profiler_sink->add(
                            phase, profiler.ns(phase),
                            profiler.calls(phase));
                    }
                }
            }
            result.cells[k] = std::move(cell);
            if (cells_left[wi].fetch_sub(
                    1, std::memory_order_acq_rel) == 1) {
                traces[wi] = trace::TraceBuffer();
            }
        });
    }
    pool.wait();
    result.cells_cached =
        cells_cached.load(std::memory_order_relaxed);
    result.cells_simulated =
        cells_simulated.load(std::memory_order_relaxed);
    result.manifest.sim_seconds =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - sim_start)
            .count();
    if (result.manifest.sim_seconds > 0.0) {
        std::uint64_t simulated = 0;
        for (const CellResult &cell : result.cells)
            simulated += cell.stats.instructions;
        result.manifest.insts_per_sec =
            static_cast<double>(simulated) /
            result.manifest.sim_seconds;
    }
    // Fold the roll-up into the artefact's cache block (summed by
    // cspmerge) and the journal's sweep_end event. No lock: the pool
    // is drained.
    result.cache_read_ns = telemetry.cache_read_ns;
    result.cache_parse_ns = telemetry.cache_parse_ns;
    result.cache_entry_bytes = telemetry.cache_entry_bytes;
    result.cache_verify_failures = telemetry.cache_verify_failures;
    if (journal != nullptr) {
        telemetry.cells_owned = owned_cells;
        telemetry.cells_cached = result.cells_cached;
        telemetry.cells_simulated = result.cells_simulated;
        telemetry.trace_cache_hits = result.trace_cache_hits;
        journal->emit(
            "sweep_end",
            {J::u64("cells_owned", owned_cells),
             J::u64("cells_cached", result.cells_cached),
             J::u64("cells_simulated", result.cells_simulated),
             J::u64("trace_cache_hits", result.trace_cache_hits),
             J::u64("cache_read_ns", result.cache_read_ns),
             J::u64("cache_parse_ns", result.cache_parse_ns),
             J::u64("cache_entry_bytes", result.cache_entry_bytes),
             J::u64("cache_verify_failures",
                    result.cache_verify_failures),
             J::u64("trace_gen_ns",
                    static_cast<std::uint64_t>(
                        result.manifest.trace_gen_seconds * 1e9)),
             J::u64("sim_ns",
                    static_cast<std::uint64_t>(
                        result.manifest.sim_seconds * 1e9)),
             J::raw("stats", telemetry.statsJson())});
    }
    return result;
}

SweepResult
runSweep(const std::vector<std::string> &workload_names,
         const std::vector<std::string> &prefetcher_names,
         const workloads::WorkloadParams &params,
         const SystemConfig &config, bool verbose)
{
    SweepOptions options;
    options.verbose = verbose;
    return runSweep(workload_names, prefetcher_names, params, config,
                    options);
}

} // namespace csp::sim
