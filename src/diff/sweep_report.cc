#include "diff/sweep_report.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <ostream>
#include <set>
#include <utility>

#include "core/parse.h"

namespace csp::diff {

namespace {

/** Keys beyond the envelope (event/t_ns/seq) every event of a
 *  type carries. The vocabulary is closed: an unknown type is refused,
 *  so a renamed emitter fails here instead of vanishing from csptop. */
const std::map<std::string, std::vector<std::string>> kRequiredKeys = {
    {"sweep_start",
     {"schema", "unix_ns", "config_digest", "seed", "scale",
      "placement", "workloads", "prefetchers", "jobs", "git_sha"}},
    {"trace_gen",
     {"workload", "digest", "records", "insts", "accesses",
      "duration_ns", "cached", "worker"}},
    {"trace_cache", {"workload", "digest", "records", "insts",
                     "worker"}},
    {"schedule", {"cells_total", "cells_owned", "insts_owned",
                  "trace_digest"}},
    {"heartbeat",
     {"cells_done", "cells_expected", "cells_cached", "insts_done",
      "insts_total", "insts_per_sec"}},
    {"cell_start", {"cell", "workload", "prefetcher", "worker"}},
    {"cell_end",
     {"cell", "workload", "prefetcher", "worker", "source",
      "duration_ns", "insts"}},
    {"sweep_end",
     {"cells_owned", "cells_cached", "cells_simulated",
      "trace_cache_hits", "cache_read_ns", "cache_parse_ns",
      "cache_entry_bytes", "cache_verify_failures", "trace_gen_ns",
      "sim_ns", "stats"}},
    {"evict", {"entry", "bytes"}},
    {"cache_trim",
     {"max_bytes", "scanned_entries", "scanned_bytes",
      "evicted_entries", "evicted_bytes"}},
};

/** Whether @p doc has @p key as a value or as an object's prefix. */
bool
hasKey(const FlatDoc &doc, const std::string &key)
{
    return std::any_of(
        doc.entries.begin(), doc.entries.end(), [&](const auto &entry) {
            const std::string &name = entry.first;
            return name.compare(0, key.size(), key) == 0 &&
                   (name.size() == key.size() || name[key.size()] == '.');
        });
}

/** One event's own rules: known type, its keys, their values. */
std::string
eventError(const SweepEvent &event)
{
    const auto keys = kRequiredKeys.find(event.type);
    if (keys == kRequiredKeys.end())
        return "unknown event type \"" + event.type + '"';
    for (const std::string &key : keys->second) {
        if (!hasKey(event.doc, key))
            return event.type + " missing \"" + key + '"';
    }
    if (event.type == "cell_end" && event.text("source") != "cached" &&
        event.text("source") != "simulated")
        return "cell_end source must be cached or simulated";
    if ((event.type == "trace_gen" || event.type == "trace_cache") &&
        event.text("digest").empty())
        return event.type + " has an empty digest";
    return "";
}

/** What the ordering rules remember between a journal's events. */
struct JournalState
{
    const SweepEvent *last = nullptr;
    const SweepEvent *end = nullptr;  ///< its sweep_end
    const SweepEvent *trim = nullptr; ///< its cache_trim
    std::set<std::string> open_cells;
    std::uint64_t cells = 0, cached = 0, evicts = 0;
};

/** The rules that order @p event after the journal's earlier ones. */
std::string
orderError(JournalState &state, const SweepEvent &event)
{
    const SweepEvent *last = state.last;
    state.last = &event;
    // Checked first: a second sweep's sweep_start (concatenated
    // journals) also restarts seq and t_ns.
    if (event.type == "sweep_start" && last != nullptr)
        return "sweep_start is not the journal's first event (one "
               "journal holds one sweep)";
    if (last != nullptr && event.seq <= last->seq)
        return "seq not strictly increasing";
    if (last != nullptr && event.t_ns < last->t_ns)
        return "t_ns went backwards";
    if (state.end != nullptr && event.type != "evict" &&
        event.type != "cache_trim")
        return event.type + " after sweep_end (only evict and "
                            "cache_trim may follow it)";
    const std::string cell = event.text("cell");
    if (event.type == "sweep_start") {
        if (event.text("schema") != "csp-events-v1")
            return "sweep_start schema is not csp-events-v1";
    } else if (event.type == "sweep_end") {
        state.end = &event;
    } else if (event.type == "cache_trim") {
        if (state.trim != nullptr)
            return "second cache_trim";
        state.trim = &event;
    } else if (event.type == "evict") {
        ++state.evicts;
    } else if (event.type == "cell_start") {
        if (!state.open_cells.insert(cell).second)
            return "cell " + cell + " started twice";
    } else if (event.type == "cell_end") {
        if (state.open_cells.erase(cell) == 0)
            return "cell_end for cell " + cell + " without cell_start";
        ++state.cells;
        state.cached += event.text("source") == "cached" ? 1 : 0;
    }
    return "";
}

/** The roll-up rules: sweep_end and cache_trim against the events
 *  they count. */
std::string
rollupError(const JournalState &state)
{
    if (const SweepEvent *end = state.end) {
        if (!state.open_cells.empty())
            return "cell " + *state.open_cells.begin() +
                   " still open at sweep_end";
        const std::pair<const char *, std::uint64_t> counts[] = {
            {"cells_owned", state.cells},
            {"cells_cached", state.cached},
            {"cells_simulated", state.cells - state.cached}};
        for (const auto &[key, have] : counts) {
            if (end->u64(key, UINT64_MAX) != have)
                return std::string("sweep_end ") + key + " is " +
                       end->text(key) + " but the journal shows " +
                       std::to_string(have);
        }
    }
    if (const SweepEvent *trim = state.trim) {
        if (trim->u64("evicted_entries", UINT64_MAX) != state.evicts)
            return "cache_trim evicted_entries is " +
                   trim->text("evicted_entries") + " but the journal "
                   "shows " + std::to_string(state.evicts) + " evict(s)";
        const std::uint64_t scanned = trim->u64("scanned_bytes");
        const std::uint64_t evicted = trim->u64("evicted_bytes");
        if (scanned > evicted &&
            scanned - evicted > trim->u64("max_bytes"))
            return "cache_trim left scanned_bytes - evicted_bytes "
                   "above max_bytes";
    }
    return "";
}

std::string
fmtMs(std::uint64_t ns)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.3f",
                  static_cast<double>(ns) / 1e6);
    return buf;
}

std::string
fmtSec(double seconds)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.1f", seconds);
    return buf;
}

std::string
fmtPct(double fraction)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.1f%%", 100.0 * fraction);
    return buf;
}

std::string
fmtMInsts(std::uint64_t insts)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.1fM",
                  static_cast<double>(insts) / 1e6);
    return buf;
}

/** Exact percentile over a sorted sample vector: the value of rank
 *  ceil(p * n) (1-based), the same convention Log2Histogram uses but
 *  sample-exact since the summary has every duration. */
std::uint64_t
exactPercentile(const std::vector<std::uint64_t> &sorted, double p)
{
    if (sorted.empty())
        return 0;
    const double rank = p * static_cast<double>(sorted.size());
    std::size_t idx =
        rank <= 1.0 ? 0
                    : static_cast<std::size_t>(rank + 0.9999999) - 1;
    if (idx >= sorted.size())
        idx = sorted.size() - 1;
    return sorted[idx];
}

void
padTo(std::string &line, std::size_t column)
{
    if (line.size() < column)
        line.append(column - line.size(), ' ');
}

/** Right-align @p text into a cell ending at @p line's current target
 *  width. Tables below are built from these so the renderer never
 *  depends on iostream locale state. */
std::string
rightAlign(const std::string &text, std::size_t width)
{
    if (text.size() >= width)
        return text;
    return std::string(width - text.size(), ' ') + text;
}

struct CellEndInfo
{
    const SweepEvent *event = nullptr;
    std::uint64_t duration_ns = 0;
    bool cached = false;
};

} // namespace

std::uint64_t
SweepEvent::u64(const std::string &key, std::uint64_t fallback) const
{
    const FlatValue *value = doc.find(key);
    std::uint64_t out = 0;
    return value != nullptr && value->is_number &&
                   parseUnsigned(value->text, out)
               ? out
               : fallback;
}

std::string
SweepEvent::text(const std::string &key) const
{
    const FlatValue *value = doc.find(key);
    return value == nullptr ? std::string() : value->text;
}

const SweepEvent *
SweepJournal::first(const std::string &type) const
{
    for (const SweepEvent &event : events) {
        if (event.type == type)
            return &event;
    }
    return nullptr;
}

const SweepEvent *
SweepJournal::last(const std::string &type) const
{
    const SweepEvent *found = nullptr;
    for (const SweepEvent &event : events) {
        if (event.type == type)
            found = &event;
    }
    return found;
}

bool
parseJournal(const std::string &text, SweepJournal &out,
             std::string *error)
{
    out.events.clear();
    const auto fail = [&](const std::string &where,
                          const std::string &what) {
        if (error != nullptr)
            *error = where + ": " + what;
        return false;
    };
    std::vector<std::size_t> line_of; // per event, its 1-based line
    std::size_t start = 0;
    std::size_t line_no = 0;
    while (start < text.size()) {
        std::size_t end = text.find('\n', start);
        if (end == std::string::npos)
            end = text.size();
        ++line_no;
        const std::string line = text.substr(start, end - start);
        start = end + 1;
        if (line.empty())
            continue;
        const std::string where = "line " + std::to_string(line_no);
        SweepEvent event;
        std::string parse_error;
        if (!parseJsonFlat(line, event.doc, &parse_error))
            return fail(where, parse_error);
        event.type = event.text("event");
        if (event.type.empty())
            return fail(where, "missing \"event\" field");
        const std::pair<const char *, std::uint64_t *> envelope[] = {
            {"t_ns", &event.t_ns},
            {"seq", &event.seq}};
        for (const auto &[name, field] : envelope) {
            const FlatValue *value = event.doc.find(name);
            if (value == nullptr || !value->is_number ||
                !parseUnsigned(value->text, *field))
                return fail(where, std::string(name) +
                                       " missing or not an unsigned "
                                       "integer");
        }
        const std::string event_error = eventError(event);
        if (!event_error.empty())
            return fail(where, event_error);
        out.events.push_back(std::move(event));
        line_of.push_back(line_no);
    }

    // The ordering rules keep pointers into out.events, so they run
    // once the vector stops growing.
    JournalState state;
    for (std::size_t i = 0; i < out.events.size(); ++i) {
        const std::string order_error = orderError(state, out.events[i]);
        if (!order_error.empty())
            return fail("line " + std::to_string(line_of[i]), order_error);
    }
    const std::string rollup_error = rollupError(state);
    if (!rollup_error.empty()) {
        if (error != nullptr)
            *error = rollup_error;
        return false;
    }
    return true;
}

bool
journalIdentity(const SweepJournal &journal, JournalIdentity &out,
                std::string *error)
{
    const SweepEvent *start = journal.first("sweep_start");
    if (start == nullptr) {
        if (error != nullptr)
            *error = "no sweep_start event (not a sweep journal?)";
        return false;
    }
    out.config_digest = start->text("config_digest");
    out.seed = start->u64("seed");
    out.scale = start->u64("scale");
    out.placement = start->text("placement");
    out.workloads = start->text("workloads");
    out.prefetchers = start->text("prefetchers");
    return true;
}

bool
renderSweepSummary(const SweepJournal &journal, std::ostream &out,
                   std::string *error,
                   const SweepReportOptions &options)
{
    JournalIdentity id;
    if (!journalIdentity(journal, id, error))
        return false;

    std::uint64_t span_ns = 0;
    for (const SweepEvent &event : journal.events)
        span_ns = std::max(span_ns, event.t_ns);

    // Collect the cell matrix actually recorded.
    std::vector<CellEndInfo> cells;
    std::vector<std::uint64_t> all_ns, cached_ns, simulated_ns;
    std::uint64_t read_ns = 0, parse_ns = 0, entry_bytes = 0;
    std::uint64_t cached_wall_ns = 0;
    std::uint64_t verify_failures = 0;
    std::uint64_t trace_cache = 0, trace_gen = 0;
    std::uint64_t trace_gen_ns = 0;
    std::uint64_t evicted = 0, evicted_bytes = 0;
    struct WorkloadAgg
    {
        std::uint64_t cells = 0, cached = 0;
        std::uint64_t total_ns = 0, max_ns = 0;
    };
    std::map<std::string, WorkloadAgg> by_workload;
    struct WorkerAgg
    {
        std::uint64_t cells = 0, busy_ns = 0;
    };
    std::map<std::uint64_t, WorkerAgg> by_worker;
    for (const SweepEvent &event : journal.events) {
        if (event.type == "cell_end") {
            CellEndInfo info;
            info.event = &event;
            info.duration_ns = event.u64("duration_ns");
            info.cached = event.text("source") == "cached";
            cells.push_back(info);
            all_ns.push_back(info.duration_ns);
            (info.cached ? cached_ns : simulated_ns)
                .push_back(info.duration_ns);
            if (info.cached) {
                read_ns += event.u64("read_ns");
                parse_ns += event.u64("parse_ns");
                entry_bytes += event.u64("bytes");
                cached_wall_ns += info.duration_ns;
            }
            verify_failures += event.u64("verify_failed");
            WorkloadAgg &w = by_workload[event.text("workload")];
            ++w.cells;
            w.cached += info.cached ? 1 : 0;
            w.total_ns += info.duration_ns;
            w.max_ns = std::max(w.max_ns, info.duration_ns);
            WorkerAgg &worker = by_worker[event.u64("worker")];
            ++worker.cells;
            worker.busy_ns += info.duration_ns;
        } else if (event.type == "trace_cache") {
            ++trace_cache;
        } else if (event.type == "trace_gen") {
            ++trace_gen;
            trace_gen_ns += event.u64("duration_ns");
        } else if (event.type == "evict") {
            ++evicted;
            evicted_bytes += event.u64("bytes");
        }
    }
    std::sort(all_ns.begin(), all_ns.end());
    std::sort(cached_ns.begin(), cached_ns.end());
    std::sort(simulated_ns.begin(), simulated_ns.end());

    out << "sweep observatory summary\n"
        << "=========================\n";
    out << "journal : " << journal.events.size() << " events, span "
        << fmtMs(span_ns) << " ms\n";
    out << "sweep   : workloads=" << id.workloads
        << " prefetchers=" << id.prefetchers << "\n"
        << "          scale=" << id.scale << " seed=" << id.seed
        << " placement=" << id.placement
        << " config=" << id.config_digest << "\n";
    const std::uint64_t n_cached = cached_ns.size();
    const std::uint64_t n_simulated = simulated_ns.size();
    const std::uint64_t n_cells = all_ns.size();
    out << "cells   : " << n_cells << " completed | " << n_cached
        << " cached ("
        << (n_cells == 0
                ? std::string("n/a")
                : fmtPct(static_cast<double>(n_cached) /
                         static_cast<double>(n_cells)))
        << " hit rate) | " << n_simulated << " simulated | "
        << verify_failures << " verify failure(s)\n";
    out << "traces  : " << trace_cache << " cache hit(s), "
        << trace_gen << " generated (" << fmtMs(trace_gen_ns)
        << " ms)\n";

    const auto durationRow = [&](const char *label,
                                 const std::vector<std::uint64_t>
                                     &sorted) {
        std::string line = "  ";
        line += label;
        padTo(line, 22);
        line += rightAlign(std::to_string(sorted.size()), 7);
        for (const double p : {0.50, 0.90, 0.99}) {
            line +=
                rightAlign(fmtMs(exactPercentile(sorted, p)), 11);
        }
        line += rightAlign(
            fmtMs(sorted.empty() ? 0 : sorted.back()), 11);
        out << line << "\n";
    };
    out << "\ncell duration (ms)     count        p50        p90"
           "        p99        max\n";
    durationRow("all", all_ns);
    durationRow("cached", cached_ns);
    durationRow("simulated", simulated_ns);

    if (n_cached != 0 && read_ns + parse_ns != 0) {
        // The cold-vs-warm attribution the ROADMAP asked for: where a
        // memoized cell's wall-clock actually goes. Skipped outright
        // when nothing was cached — or when the cached cells carry no
        // read/parse timings (a journal that predates the attribution
        // fields) — instead of rendering an all-zero table.
        const std::uint64_t other_ns =
            cached_wall_ns > read_ns + parse_ns
                ? cached_wall_ns - read_ns - parse_ns
                : 0;
        const double wall =
            static_cast<double>(std::max<std::uint64_t>(
                cached_wall_ns, 1));
        out << "\nwarm-path attribution (cached cells, "
            << fmtMs(cached_wall_ns) << " ms wall):\n"
            << "  read  " << fmtMs(read_ns) << " ms ("
            << fmtPct(static_cast<double>(read_ns) / wall)
            << ") | parse " << fmtMs(parse_ns) << " ms ("
            << fmtPct(static_cast<double>(parse_ns) / wall)
            << ") | other " << fmtMs(other_ns) << " ms\n"
            << "  entries " << entry_bytes << " bytes total, mean "
            << (n_cached == 0 ? 0 : entry_bytes / n_cached)
            << " bytes/entry\n";
    }

    if (!by_workload.empty()) {
        out << "\nper-workload:\n"
            << "  workload            cells  cached   total-ms"
               "    mean-ms     max-ms\n";
        // Identity order (the sweep's own workload order) keeps the
        // table deterministic and familiar; stray names (never
        // emitted by runSweep) sort after, alphabetically.
        std::vector<std::string> order;
        std::size_t start = 0;
        const std::string &joined = id.workloads;
        while (start <= joined.size()) {
            const std::size_t comma = joined.find(',', start);
            const std::size_t end =
                comma == std::string::npos ? joined.size() : comma;
            if (end > start)
                order.push_back(joined.substr(start, end - start));
            if (comma == std::string::npos)
                break;
            start = comma + 1;
        }
        for (const auto &[name, agg] : by_workload) {
            if (std::find(order.begin(), order.end(), name) ==
                order.end())
                order.push_back(name);
        }
        std::size_t rows = 0;
        for (const std::string &name : order) {
            const auto it = by_workload.find(name);
            if (it == by_workload.end())
                continue;
            if (rows++ >= options.max_workloads) {
                out << "  ... (" << by_workload.size()
                    << " workloads total)\n";
                break;
            }
            const WorkloadAgg &agg = it->second;
            std::string line = "  " + name;
            padTo(line, 22);
            line += rightAlign(std::to_string(agg.cells), 5);
            line += rightAlign(std::to_string(agg.cached), 8);
            line += rightAlign(fmtMs(agg.total_ns), 11);
            line += rightAlign(
                fmtMs(agg.cells == 0 ? 0 : agg.total_ns / agg.cells),
                11);
            line += rightAlign(fmtMs(agg.max_ns), 11);
            out << line << "\n";
        }
    }

    if (!cells.empty()) {
        // The critical path of a longest-first schedule is its
        // longest cells; these rows are where sweep wall-clock goes.
        std::vector<const CellEndInfo *> longest;
        longest.reserve(cells.size());
        for (const CellEndInfo &info : cells)
            longest.push_back(&info);
        std::sort(longest.begin(), longest.end(),
                  [](const CellEndInfo *a, const CellEndInfo *b) {
                      if (a->duration_ns != b->duration_ns)
                          return a->duration_ns > b->duration_ns;
                      return a->event->seq < b->event->seq;
                  });
        out << "\nstragglers (longest cells):\n"
            << "  #  workload            prefetcher  source     "
               "worker  duration-ms\n";
        for (std::size_t i = 0;
             i < longest.size() && i < options.max_stragglers; ++i) {
            const CellEndInfo &info = *longest[i];
            std::string line =
                "  " + std::to_string(i + 1) + "  " +
                info.event->text("workload");
            padTo(line, 25);
            line += info.event->text("prefetcher");
            padTo(line, 37);
            line += info.cached ? "cached" : "simulated";
            padTo(line, 48);
            line += rightAlign(
                std::to_string(info.event->u64("worker")), 6);
            line += rightAlign(fmtMs(info.duration_ns), 13);
            out << line << "\n";
        }
    }

    if (!by_worker.empty()) {
        std::uint64_t busy_total = 0;
        for (const auto &[key, agg] : by_worker)
            busy_total += agg.busy_ns;
        out << "\nworkers:\n"
            << "  worker  cells    busy-ms   share\n";
        for (const auto &[worker, agg] : by_worker) {
            std::string line = "  ";
            line += rightAlign(std::to_string(worker), 6);
            line += rightAlign(std::to_string(agg.cells), 7);
            line += rightAlign(fmtMs(agg.busy_ns), 11);
            line += rightAlign(
                busy_total == 0
                    ? std::string("n/a")
                    : fmtPct(static_cast<double>(agg.busy_ns) /
                             static_cast<double>(busy_total)),
                8);
            out << line << "\n";
        }
    }

    if (evicted != 0) {
        out << "\ncache trim: " << evicted << " entr"
            << (evicted == 1 ? "y" : "ies") << " evicted, "
            << evicted_bytes << " bytes reclaimed\n";
    }
    if (journal.last("sweep_end") == nullptr) {
        out << "\n(journal has no sweep_end — sweep still running or "
               "interrupted)\n";
    }
    return true;
}

bool
renderSweepStatus(const SweepJournal &journal, std::ostream &out,
                  std::string *error)
{
    JournalIdentity id;
    if (!journalIdentity(journal, id, error))
        return false;

    std::uint64_t now_ns = 0;
    for (const SweepEvent &event : journal.events)
        now_ns = std::max(now_ns, event.t_ns);

    // In-flight cells: cell_start without a matching cell_end.
    std::map<std::uint64_t, const SweepEvent *> running; // by cell id
    std::uint64_t cells_done = 0, cells_cached = 0;
    std::uint64_t insts_done = 0;
    for (const SweepEvent &event : journal.events) {
        if (event.type == "cell_start") {
            running[event.u64("cell")] = &event;
        } else if (event.type == "cell_end") {
            running.erase(event.u64("cell"));
            ++cells_done;
            if (event.text("source") == "cached")
                ++cells_cached;
            insts_done += event.u64("insts");
        }
    }
    const SweepEvent *schedule = journal.first("schedule");
    const std::uint64_t cells_owned =
        schedule == nullptr ? 0 : schedule->u64("cells_owned");
    const std::uint64_t insts_owned =
        schedule == nullptr ? 0 : schedule->u64("insts_owned");

    out << "sweep status\n"
        << "  sweep    : workloads=" << id.workloads
        << " prefetchers=" << id.prefetchers << " scale=" << id.scale
        << " seed=" << id.seed << " placement=" << id.placement
        << "\n";
    out << "  journal  : " << journal.events.size()
        << " events, elapsed " << fmtMs(now_ns) << " ms\n";
    const double elapsed_sec = static_cast<double>(now_ns) / 1e9;
    const double rate = elapsed_sec > 0.0
                            ? static_cast<double>(insts_done) /
                                  elapsed_sec
                            : 0.0;
    out << "  progress : " << cells_done << "/" << cells_owned
        << " cells (" << cells_cached << " cached), "
        << (insts_owned == 0
                ? std::string("n/a")
                : fmtPct(static_cast<double>(insts_done) /
                         static_cast<double>(insts_owned)))
        << " of " << fmtMInsts(insts_owned) << " insts, "
        << fmtMInsts(static_cast<std::uint64_t>(rate))
        << " insts/s\n";
    if (journal.last("sweep_end") != nullptr) {
        out << "  eta      : done (sweep_end seen)\n";
    } else if (rate > 0.0 && insts_owned > insts_done) {
        // ETA against the longest-first schedule's remaining owned
        // instructions at the observed aggregate rate.
        out << "  eta      : ~"
            << fmtSec(static_cast<double>(insts_owned - insts_done) /
                      rate)
            << " s\n";
    } else {
        out << "  eta      : n/a\n";
    }
    out << "  cache    : "
        << (cells_done == 0
                ? std::string("n/a")
                : fmtPct(static_cast<double>(cells_cached) /
                         static_cast<double>(cells_done)))
        << " hit rate so far\n";
    if (running.empty()) {
        out << "  workers  : no cells in flight\n";
    } else {
        out << "  workers  :\n";
        for (const auto &[cell, start] : running) {
            out << "    worker " << start->u64("worker") << ": "
                << start->text("workload") << "/"
                << start->text("prefetcher") << " (running "
                << fmtMs(now_ns - std::min(start->t_ns, now_ns))
                << " ms)\n";
        }
    }
    return true;
}

} // namespace csp::diff
