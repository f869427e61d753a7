/** @file The sweep observatory's contract: the --events-out journal is
 *  well-formed (envelope, ordering, cell pairing, roll-up counts) and
 *  strictly side-band (cell CSV bit-identical with events on or off,
 *  at any job count); csptop's renderers are deterministic against
 *  golden output; the result-cache LRU trim evicts oldest-mtime-first;
 *  warm sweeps attribute their read/parse cost. */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/content_store.h"
#include "diff/sweep_report.h"
#include "doc_goldens.h"
#include "sim/experiment.h"
#include "sim/result_cache.h"
#include "sim/sweep_events.h"
#include "sim/sweep_io.h"
#include "sweep_util.h"

namespace csp {
namespace {

const std::vector<std::string> kWorkloads = {"array", "list", "bst"};
const std::vector<std::string> kPrefetchers = {"none", "stride",
                                               "context"};

struct TempDir
{
    std::string path;

    TempDir()
    {
        char tmpl[] = "/tmp/csp_events_XXXXXX";
        const char *made = mkdtemp(tmpl);
        EXPECT_NE(made, nullptr);
        path = made != nullptr ? made : "";
    }

    ~TempDir()
    {
        if (!path.empty())
            std::filesystem::remove_all(path);
    }
};

sim::SweepResult
sweep(unsigned jobs, sim::SweepEventJournal *journal = nullptr)
{
    SystemConfig config;
    workloads::WorkloadParams params;
    params.scale = 12000;
    sim::SweepOptions options;
    options.verbose = false;
    options.jobs = jobs;
    options.journal = journal;
    return sim::runSweep(
        sim::crossGrid(kWorkloads, kPrefetchers, params, config), options);
}

std::string
cellCsv(const sim::SweepResult &result)
{
    std::ostringstream out;
    sim::writeSweepCsv(out, result);
    return out.str();
}

/** The first 9 lines of kSyntheticJournal — a sweep still in flight
 *  (two cells running, no sweep_end), for the status golden. */
std::string
syntheticPartial()
{
    const std::string full = kSyntheticJournal;
    std::size_t pos = 0;
    for (int line = 0; line < 9; ++line)
        pos = full.find('\n', pos) + 1;
    return full.substr(0, pos);
}

TEST(SweepEventJournal, LiveJournalIsWellFormed)
{
    TempDir dir;
    const std::string path = dir.path + "/events.jsonl";
    sim::SweepEventJournal journal;
    ASSERT_TRUE(journal.open(path));
    sweep(4, &journal);
    journal.close();

    std::string text;
    ASSERT_TRUE(readFileToString(path, text));
    diff::SweepJournal parsed;
    std::string error;
    ASSERT_TRUE(diff::parseJournal(text, parsed, &error)) << error;
    ASSERT_FALSE(parsed.events.empty());

    // Envelope ordering: seq strictly increasing, t_ns non-decreasing
    // (both stamped under the writer's mutex).
    const diff::SweepEvent &first = parsed.events.front();
    EXPECT_EQ(first.type, "sweep_start");
    EXPECT_EQ(first.text("schema"), "csp-events-v1");
    EXPECT_EQ(first.text("workloads"), "array,list,bst");
    std::uint64_t prev_seq = 0, prev_t = 0;
    bool first_event = true;
    for (const diff::SweepEvent &event : parsed.events) {
        if (!first_event) {
            EXPECT_GT(event.seq, prev_seq);
            EXPECT_GE(event.t_ns, prev_t);
        }
        first_event = false;
        prev_seq = event.seq;
        prev_t = event.t_ns;
    }

    // Every cell_start has exactly one cell_end, and the roll-up
    // agrees with the events it summarizes.
    std::map<std::uint64_t, int> open;
    std::uint64_t ends = 0, cached = 0;
    for (const diff::SweepEvent &event : parsed.events) {
        if (event.type == "cell_start") {
            EXPECT_EQ(open.count(event.u64("cell")), 0u);
            open[event.u64("cell")] = 1;
        } else if (event.type == "cell_end") {
            EXPECT_EQ(open.count(event.u64("cell")), 1u);
            open.erase(event.u64("cell"));
            ++ends;
            const std::string source = event.text("source");
            EXPECT_TRUE(source == "cached" || source == "simulated");
            if (source == "cached")
                ++cached;
            EXPECT_GT(event.u64("insts"), 0u);
        }
    }
    EXPECT_TRUE(open.empty());
    EXPECT_EQ(ends, kWorkloads.size() * kPrefetchers.size());
    const diff::SweepEvent *end = parsed.last("sweep_end");
    ASSERT_NE(end, nullptr);
    EXPECT_EQ(end, &parsed.events.back());
    EXPECT_EQ(end->u64("cells_owned"), ends);
    EXPECT_EQ(end->u64("cells_cached"), cached);
    EXPECT_EQ(end->u64("cells_simulated"), ends - cached);
    // The roll-up embeds a stats-registry report.
    EXPECT_NE(end->u64("stats.sweep.cells_owned"), 0u);
}

TEST(SweepEventJournal, StringFieldsRoundTripEscaped)
{
    // A quote, a backslash, a newline and a raw control byte: each is
    // escaped on the way out, so the event stays one line, and each
    // reads back unchanged.
    const std::string hostile = "a\"b\\c\nd\x01" "e";
    TempDir dir;
    const std::string path = dir.path + "/events.jsonl";
    using Journal = sim::SweepEventJournal;
    Journal journal;
    ASSERT_TRUE(journal.open(path));
    journal.emit("sweep_start",
                 {Journal::str("schema", sim::kSweepEventsSchema),
                  Journal::u64("unix_ns", 1),
                  Journal::str("config_digest", "0"),
                  Journal::u64("seed", 1), Journal::u64("scale", 1),
                  Journal::str("placement", "sequential"),
                  Journal::str("workloads", hostile),
                  Journal::str("prefetchers", "none"),
                  Journal::u64("jobs", 1), Journal::str("git_sha", "x")});
    journal.close();

    std::string text;
    ASSERT_TRUE(readFileToString(path, text));
    EXPECT_EQ(text.find('\n'), text.size() - 1);
    diff::SweepJournal parsed;
    std::string error;
    ASSERT_TRUE(diff::parseJournal(text, parsed, &error)) << error;
    ASSERT_EQ(parsed.events.size(), 1u);
    EXPECT_EQ(parsed.events[0].text("workloads"), hostile);
}

TEST(SweepEventJournal, JournalIsSideBand)
{
    // The determinism contract extended to observability: the cell
    // CSV is bit-identical with events on or off, at any job count.
    const std::string plain = cellCsv(sweep(1));
    EXPECT_EQ(plain, cellCsv(sweep(4)));
    for (const unsigned jobs : {1u, 4u}) {
        TempDir dir;
        sim::SweepEventJournal journal;
        ASSERT_TRUE(journal.open(dir.path + "/events.jsonl"));
        EXPECT_EQ(plain, cellCsv(sweep(jobs, &journal)))
            << "jobs=" << jobs;
        journal.close();
    }
}

TEST(SweepReport, GoldenSummary)
{
    diff::SweepJournal journal;
    std::string error;
    ASSERT_TRUE(diff::parseJournal(kSyntheticJournal, journal, &error))
        << error;
    std::ostringstream out;
    ASSERT_TRUE(diff::renderSweepSummary(journal, out, &error))
        << error;
    EXPECT_EQ(out.str(),
              "sweep observatory summary\n"
              "=========================\n"
              "journal : 16 events, span 5.300 ms\n"
              "sweep   : workloads=alpha,beta prefetchers=none,context\n"
              "          scale=1000 seed=7 placement=rand "
              "config=cafe01234567\n"
              "cells   : 4 completed | 2 cached (50.0% hit rate) | 2 "
              "simulated | 0 verify failure(s)\n"
              "traces  : 1 cache hit(s), 1 generated (0.800 ms)\n"
              "\n"
              "cell duration (ms)     count        p50        p90"
              "        p99        max\n"
              "  all                       4      0.500      3.000"
              "      3.000      3.000\n"
              "  cached                    2      0.400      0.500"
              "      0.500      0.500\n"
              "  simulated                 2      2.000      3.000"
              "      3.000      3.000\n"
              "\n"
              "warm-path attribution (cached cells, 0.900 ms wall):\n"
              "  read  0.300 ms (33.3%) | parse 0.500 ms (55.6%) | "
              "other 0.100 ms\n"
              "  entries 1700 bytes total, mean 850 bytes/entry\n"
              "\n"
              "per-workload:\n"
              "  workload            cells  cached   total-ms"
              "    mean-ms     max-ms\n"
              "  alpha                   2       1      2.500"
              "      1.250      2.000\n"
              "  beta                    2       1      3.400"
              "      1.700      3.000\n"
              "\n"
              "stragglers (longest cells):\n"
              "  #  workload            prefetcher  source     "
              "worker  duration-ms\n"
              "  1  beta                context     simulated  "
              "     1        3.000\n"
              "  2  alpha               none        simulated  "
              "     0        2.000\n"
              "  3  alpha               context     cached     "
              "     1        0.500\n"
              "  4  beta                none        cached     "
              "     0        0.400\n"
              "\n"
              "workers:\n"
              "  worker  cells    busy-ms   share\n"
              "       0      2      2.400   40.7%\n"
              "       1      2      3.500   59.3%\n"
              "\n"
              "cache trim: 1 entry evicted, 123 bytes reclaimed\n");
}

/** A journal with no cached cells (or cached cells that carry no
 *  read/parse timings) must skip the warm-path attribution section
 *  entirely rather than render an all-zero table. */
TEST(SweepReport, SummarySkipsEmptyWarmPath)
{
    const auto replaceAll = [](std::string text,
                               const std::string &from,
                               const std::string &to) {
        for (std::size_t pos = 0;
             (pos = text.find(from, pos)) != std::string::npos;
             pos += to.size()) {
            text.replace(pos, from.size(), to);
        }
        return text;
    };
    const auto summaryOf = [](const std::string &text) {
        diff::SweepJournal journal;
        std::string error;
        EXPECT_TRUE(diff::parseJournal(text, journal, &error)) << error;
        std::ostringstream out;
        EXPECT_TRUE(diff::renderSweepSummary(journal, out, &error))
            << error;
        return out.str();
    };

    // Zero cached cells: every cell re-labelled as simulated, and the
    // sweep_end roll-up counting them to match.
    const std::string cold = summaryOf(replaceAll(
        replaceAll(kSyntheticJournal, "\"source\":\"cached\"",
                   "\"source\":\"simulated\""),
        "\"cells_cached\":2,\"cells_simulated\":2",
        "\"cells_cached\":0,\"cells_simulated\":4"));
    EXPECT_EQ(cold.find("warm-path attribution"), std::string::npos);
    EXPECT_NE(cold.find("0 cached (0.0% hit rate)"), std::string::npos);

    // Cached cells without attribution fields (an older journal): the
    // section is equally meaningless, so it is skipped.
    std::string no_attr = kSyntheticJournal;
    no_attr = replaceAll(no_attr, "\"read_ns\":200000", "\"read_ns\":0");
    no_attr = replaceAll(no_attr, "\"read_ns\":100000", "\"read_ns\":0");
    no_attr = replaceAll(no_attr, "\"parse_ns\":250000",
                         "\"parse_ns\":0");
    const std::string stale = summaryOf(no_attr);
    EXPECT_EQ(stale.find("warm-path attribution"), std::string::npos);
    EXPECT_NE(stale.find("2 cached (50.0% hit rate)"),
              std::string::npos);
}

TEST(SweepReport, GoldenStatus)
{
    diff::SweepJournal journal;
    std::string error;
    ASSERT_TRUE(
        diff::parseJournal(syntheticPartial(), journal, &error))
        << error;
    std::ostringstream out;
    ASSERT_TRUE(diff::renderSweepStatus(journal, out, &error))
        << error;
    EXPECT_EQ(out.str(),
              "sweep status\n"
              "  sweep    : workloads=alpha,beta "
              "prefetchers=none,context scale=1000 seed=7 "
              "placement=rand\n"
              "  journal  : 9 events, elapsed 2.500 ms\n"
              "  progress : 1/4 cells (1 cached), 25.0% of 0.4M "
              "insts, 40.0M insts/s\n"
              "  eta      : ~0.0 s\n"
              "  cache    : 100.0% hit rate so far\n"
              "  workers  :\n"
              "    worker 0: alpha/none (running 1.100 ms)\n"
              "    worker 1: beta/context (running 0.500 ms)\n");
}

TEST(SweepReport, RejectsMalformedJournals)
{
    diff::SweepJournal journal;
    std::string error;
    EXPECT_FALSE(diff::parseJournal("{\"event\":\"x\"}\nnot json\n",
                                    journal, &error));
    EXPECT_NE(error.find("line"), std::string::npos);
    // Envelope fields are mandatory.
    EXPECT_FALSE(
        diff::parseJournal("{\"event\":\"x\",\"t_ns\":1,\"seq\":0}\n",
                           journal, &error));
    // No sweep_start: parses, but has no identity.
    ASSERT_TRUE(diff::parseJournal(
        "{\"event\":\"heartbeat\",\"t_ns\":1,\"seq\":0,"
        "\"cells_done\":0,\"cells_expected\":1,\"cells_cached\":0,"
        "\"insts_done\":0,\"insts_total\":1,\"insts_per_sec\":0}\n",
        journal, &error))
        << error;
    diff::JournalIdentity id;
    EXPECT_FALSE(diff::journalIdentity(journal, id, &error));
}

TEST(CacheTrim, EvictsOldestMtimeFirstUntilUnderBudget)
{
    TempDir dir;
    const auto entry = [&](const std::string &name, std::size_t bytes,
                           int age_minutes) {
        const std::string path = dir.path + "/" + name;
        std::ofstream(path) << std::string(bytes, 'x');
        std::filesystem::last_write_time(
            path, std::filesystem::file_time_type::clock::now() -
                      std::chrono::minutes(age_minutes));
        return path;
    };
    const std::string a = entry("aa.json", 100, 30); // oldest
    const std::string b = entry("bb.json", 200, 20);
    const std::string c = entry("cc.json", 300, 10); // newest
    entry("ignored.txt", 999, 40); // not a cache entry

    // Unbounded: no-op.
    const sim::CacheTrimResult untrimmed =
        sim::trimResultCache(dir.path, 0);
    EXPECT_EQ(untrimmed.evicted_entries, 0u);
    EXPECT_TRUE(std::filesystem::exists(a));

    // 350-byte budget over 600 bytes of entries: evict a then b
    // (oldest first); c alone fits.
    const sim::CacheTrimResult trimmed =
        sim::trimResultCache(dir.path, 350);
    EXPECT_EQ(trimmed.scanned_entries, 3u);
    EXPECT_EQ(trimmed.scanned_bytes, 600u);
    EXPECT_EQ(trimmed.evicted_entries, 2u);
    EXPECT_EQ(trimmed.evicted_bytes, 300u);
    ASSERT_EQ(trimmed.evicted.size(), 2u);
    EXPECT_EQ(trimmed.evicted[0].first, "aa.json");
    EXPECT_EQ(trimmed.evicted[1].first, "bb.json");
    EXPECT_FALSE(std::filesystem::exists(a));
    EXPECT_FALSE(std::filesystem::exists(b));
    EXPECT_TRUE(std::filesystem::exists(c));
    EXPECT_TRUE(std::filesystem::exists(dir.path + "/ignored.txt"));
}

TEST(CacheTrim, ParseByteSizeAcceptsSuffixes)
{
    std::uint64_t bytes = 0;
    EXPECT_TRUE(sim::parseByteSize("64", bytes));
    EXPECT_EQ(bytes, 64u);
    EXPECT_TRUE(sim::parseByteSize("64K", bytes));
    EXPECT_EQ(bytes, 64u * 1024);
    EXPECT_TRUE(sim::parseByteSize("2m", bytes));
    EXPECT_EQ(bytes, 2u * 1024 * 1024);
    EXPECT_TRUE(sim::parseByteSize("1G", bytes));
    EXPECT_EQ(bytes, 1024u * 1024 * 1024);
    EXPECT_TRUE(sim::parseByteSize("1T", bytes));
    EXPECT_EQ(bytes, 1099511627776u);
    EXPECT_FALSE(sim::parseByteSize("", bytes));
    EXPECT_FALSE(sim::parseByteSize("K", bytes));
    EXPECT_FALSE(sim::parseByteSize("64X", bytes));
    EXPECT_FALSE(sim::parseByteSize("-5", bytes));
    // Overflow is refused, not wrapped (2^54 + 1 K would be 1024
    // bytes) or saturated at 2^64 - 1.
    EXPECT_FALSE(sim::parseByteSize("18014398509481985K", bytes));
    EXPECT_FALSE(sim::parseByteSize("99999999999999999999999", bytes));
}

TEST(CacheTrim, MaxBytesFromEnvironment)
{
    setenv("CSP_CACHE_MAX_BYTES", "1M", 1);
    EXPECT_EQ(sim::cacheMaxBytesFromEnv(), 1048576u);
    setenv("CSP_CACHE_MAX_BYTES", "garbage", 1);
    EXPECT_EQ(sim::cacheMaxBytesFromEnv(), 0u);
    unsetenv("CSP_CACHE_MAX_BYTES");
    EXPECT_EQ(sim::cacheMaxBytesFromEnv(), 0u);
}

/** Warm sweeps must attribute where their time went (the warm-path
 *  JSON-parse cost the journal exists to quantify), and the artefact
 *  carries the attribution through a write/read round trip. */
TEST(WarmSweep, AttributesReadAndParseCost)
{
    TempDir dir;
    SystemConfig config;
    workloads::WorkloadParams params;
    params.scale = 12000;
    sim::SweepOptions options;
    options.verbose = false;
    options.jobs = 2;
    options.use_result_cache = true;
    options.use_trace_cache = true;
    options.result_cache_dir = dir.path + "/rc";
    options.trace_cache_dir = dir.path + "/tc";
    const sim::SweepResult cold = sim::runSweep(
        sim::crossGrid(kWorkloads, kPrefetchers, params, config), options);
    EXPECT_EQ(cold.cells_cached, 0u);
    EXPECT_EQ(cold.cache_entry_bytes, 0u);
    const sim::SweepResult warm = sim::runSweep(
        sim::crossGrid(kWorkloads, kPrefetchers, params, config), options);
    EXPECT_EQ(warm.cells_simulated, 0u);
    EXPECT_EQ(warm.cells_cached,
              kWorkloads.size() * kPrefetchers.size());
    EXPECT_GT(warm.cache_entry_bytes, 0u);
    EXPECT_GT(warm.cache_read_ns, 0u);
    EXPECT_GT(warm.cache_parse_ns, 0u);
    EXPECT_EQ(warm.cache_verify_failures, 0u);
    EXPECT_EQ(cellCsv(cold), cellCsv(warm));

    std::ostringstream doc;
    sim::writeSweepJson(doc, warm);
    diff::FlatDoc reread;
    std::string error;
    ASSERT_TRUE(diff::parseJsonFlat(doc.str(), reread, &error)) << error;
    const auto field = [&reread](const char *name) {
        const diff::FlatValue *value = reread.find(name);
        return value == nullptr ? std::string() : value->text;
    };
    EXPECT_EQ(field("cache.read_ns"), std::to_string(warm.cache_read_ns));
    EXPECT_EQ(field("cache.parse_ns"),
              std::to_string(warm.cache_parse_ns));
    EXPECT_EQ(field("cache.entry_bytes"),
              std::to_string(warm.cache_entry_bytes));
    EXPECT_EQ(field("cache.verify_failures"),
              std::to_string(warm.cache_verify_failures));
}

} // namespace
} // namespace csp
