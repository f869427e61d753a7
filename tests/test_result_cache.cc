/** @file The cached sweep service's contract: a warm (fully memoized)
 *  sweep does zero simulation work and emits byte-identical artefacts;
 *  corrupt cache entries are detected and recomputed. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/content_store.h"
#include "core/hashing.h"
#include "core/run_manifest.h"
#include "diff/csp_diff.h"
#include "sim/experiment.h"
#include "sim/result_cache.h"
#include "sim/sweep_io.h"
#include "sweep_util.h"
#include "trace_util.h"
#include "workloads/registry.h"

namespace csp::sim {
namespace {

const std::vector<std::string> kWorkloads = {"array", "list", "bst"};
const std::vector<std::string> kPrefetchers = {"none", "stride",
                                               "context"};

struct TempDir
{
    std::string path;

    TempDir()
    {
        char tmpl[] = "/tmp/csp_scaleout_XXXXXX";
        const char *made = mkdtemp(tmpl);
        EXPECT_NE(made, nullptr);
        path = made != nullptr ? made : "";
    }

    ~TempDir()
    {
        if (!path.empty())
            std::filesystem::remove_all(path);
    }

    std::string resultDir() const { return path + "/rc"; }
    std::string traceDir() const { return path + "/tc"; }
};

SweepOptions
cachedOptions(const TempDir &dirs, unsigned jobs = 4)
{
    SweepOptions options;
    options.verbose = false;
    options.jobs = jobs;
    options.use_result_cache = true;
    options.use_trace_cache = true;
    options.result_cache_dir = dirs.resultDir();
    options.trace_cache_dir = dirs.traceDir();
    return options;
}

SweepResult
sweep(const SweepOptions &options, std::uint64_t seed = 1)
{
    SystemConfig config;
    workloads::WorkloadParams params;
    params.scale = 12000;
    params.seed = seed;
    return runSweep(crossGrid(kWorkloads, kPrefetchers, params, config),
                    options);
}

std::string
cellCsv(const SweepResult &result)
{
    std::ostringstream out;
    writeSweepCsv(out, result);
    return out.str();
}

TEST(ResultCache, WarmSweepIsByteIdenticalAndDoesZeroWork)
{
    TempDir dirs;
    SweepOptions uncached;
    uncached.verbose = false;
    uncached.jobs = 4;
    const SweepResult baseline = sweep(uncached);

    const SweepResult cold = sweep(cachedOptions(dirs));
    EXPECT_EQ(cold.cells_simulated, kWorkloads.size() *
                                        kPrefetchers.size());
    EXPECT_EQ(cold.cells_cached, 0u);
    EXPECT_EQ(cold.trace_cache_hits, 0u);
    EXPECT_EQ(cold.traces_generated, kWorkloads.size());
    // Caching must be invisible in the deterministic cell data.
    EXPECT_EQ(cellCsv(baseline), cellCsv(cold));

    const SweepResult warm = sweep(cachedOptions(dirs));
    EXPECT_EQ(warm.cells_cached,
              kWorkloads.size() * kPrefetchers.size());
    EXPECT_EQ(warm.cells_simulated, 0u);
    EXPECT_EQ(warm.trace_cache_hits, kWorkloads.size());
    EXPECT_EQ(cellCsv(cold), cellCsv(warm));
    // Zero simulation work: no trace generated, no cell replayed.
    EXPECT_EQ(warm.traces_generated, 0u);
    // Manifests of cold and warm describe the same experiment.
    EXPECT_EQ(cold.manifest.config_digest,
              warm.manifest.config_digest);
    EXPECT_EQ(cold.manifest.trace_digest, warm.manifest.trace_digest);
    EXPECT_EQ(cold.manifest.trace_instructions,
              warm.manifest.trace_instructions);
}

/** The memo key runSweep uses for @p workload at sweep()'s params. */
TraceKey
memoKey(const std::string &workload, std::uint64_t scale = 12000)
{
    return {workload, scale, 1, "rand"};
}

TEST(ResultCache, WarmMemoWithColdResultsMatchesAColdSweep)
{
    TempDir dirs;
    const SweepResult cold = sweep(cachedOptions(dirs));
    // Only summaries are memoized: no trace is written to disk.
    std::size_t entries = 0;
    for (const auto &file :
         std::filesystem::directory_iterator(dirs.traceDir())) {
        EXPECT_EQ(file.path().extension(), ".json") << file.path();
        ++entries;
    }
    EXPECT_EQ(entries, kWorkloads.size());

    // A fresh result cache: every cell misses, so every memoized
    // trace is generated lazily and checked against its entry.
    SweepOptions options = cachedOptions(dirs);
    options.result_cache_dir = dirs.path + "/rc-fresh";
    testing::internal::CaptureStderr();
    const SweepResult lazy = sweep(options);
    EXPECT_EQ(testing::internal::GetCapturedStderr().find("trace memo"),
              std::string::npos);
    EXPECT_EQ(lazy.trace_cache_hits, kWorkloads.size());
    EXPECT_EQ(lazy.traces_generated, kWorkloads.size());
    EXPECT_EQ(lazy.cells_simulated,
              kWorkloads.size() * kPrefetchers.size());
    EXPECT_EQ(cellCsv(cold), cellCsv(lazy));
    EXPECT_EQ(cold.manifest.trace_digest, lazy.manifest.trace_digest);
}

TEST(ResultCache, StaleMemoDigestWarnsAndIsRewritten)
{
    TempDir dirs;
    const SweepResult cold = sweep(cachedOptions(dirs));
    const TraceMemo memo{dirs.traceDir()};
    TraceSummary truth;
    ASSERT_TRUE(memo.load(memoKey("list"), truth));
    // Self-consistent (its payload digest matches) but wrong.
    TraceSummary stale = truth;
    stale.content_digest ^= 1;
    ASSERT_TRUE(memo.store(memoKey("list"), stale));

    SweepOptions options = cachedOptions(dirs);
    options.result_cache_dir = dirs.path + "/rc-fresh";
    testing::internal::CaptureStderr();
    const SweepResult rerun = sweep(options);
    EXPECT_NE(testing::internal::GetCapturedStderr().find(
                  "trace memo: stale entry " +
                  memo.entryPath(memoKey("list"))),
              std::string::npos);
    EXPECT_EQ(cellCsv(cold), cellCsv(rerun));
    TraceSummary rewritten;
    ASSERT_TRUE(memo.load(memoKey("list"), rewritten));
    EXPECT_EQ(rewritten, truth);

    // The regenerated cells were stored under the true digest, so the
    // next sweep is fully warm.
    const SweepResult warm = sweep(options);
    EXPECT_EQ(warm.cells_simulated, 0u);
    EXPECT_EQ(warm.traces_generated, 0u);
    EXPECT_EQ(cellCsv(cold), cellCsv(warm));
}

/** Where a build of memo @p schema stored @p key's entry under
 *  @p root: csp-trace-memo-v1 did not fold the schema into the name
 *  (pass nullptr), later schemas do. */
std::string
oldMemoPath(const std::string &root, const TraceKey &key,
            const char *schema)
{
    const auto text = [](const std::string &s) {
        return fnv1a({reinterpret_cast<const std::uint8_t *>(s.data()),
                      s.size()});
    };
    WordHasher h;
    if (schema != nullptr)
        h.add(text(schema));
    h.add(kResultCacheEpoch);
    h.add(text(key.workload));
    h.add(key.scale);
    h.add(key.seed);
    h.add(text(key.placement));
    return root + "/" + key.workload + "-" + hexDigest(h.digest()) +
           ".json";
}

/** The list trace at scale 2000, as the memo keys it. */
trace::TraceBuffer
memoListTrace()
{
    workloads::WorkloadParams params;
    params.scale = 2000;
    return workloads::Registry::builtin().create("list")->generate(
        params);
}

/**
 * Store at @p path the memo entry a @p schema build wrote for the
 * list trace at scale 2000: its true counts, and @p content_digest,
 * the content digest as that build computed it. Then expect a sweep
 * to miss it cleanly, without the stale-entry warning, and to store
 * an entry of today beside it.
 */
void
expectOldEntryIsACleanMiss(const TempDir &dirs, const std::string &path,
                           const char *schema,
                           std::uint64_t content_digest)
{
    SweepOptions options = cachedOptions(dirs, 1);
    const SystemConfig config;
    workloads::WorkloadParams params;
    params.scale = 2000;
    const TraceMemo memo{dirs.traceDir()};
    const TraceKey key = memoKey("list", 2000);
    ASSERT_NE(path, memo.entryPath(key));
    const trace::TraceBuffer buffer = memoListTrace();
    ASSERT_NE(content_digest, buffer.contentDigest());
    TraceSummary old;
    old.records = buffer.size();
    old.instructions = buffer.instructions();
    old.mem_accesses = buffer.memAccesses();
    old.content_digest = content_digest;
    WordHasher payload;
    payload.add(old.records);
    payload.add(old.instructions);
    payload.add(old.mem_accesses);
    payload.add(old.content_digest);
    std::filesystem::create_directories(memo.root);
    ASSERT_TRUE(atomicWriteFile(
        path,
        std::string(R"({"schema":")") + schema +
            R"(","epoch":1,"workload":"list",)"
            R"("scale":2000,"seed":1,"placement":"rand","records":)" +
            std::to_string(old.records) +
            ",\"instructions\":" + std::to_string(old.instructions) +
            ",\"mem_accesses\":" + std::to_string(old.mem_accesses) +
            ",\"content_digest\":\"" + hexDigest(old.content_digest) +
            "\",\"payload_digest\":\"" + hexDigest(payload.digest()) +
            "\"}"));

    testing::internal::CaptureStderr();
    TraceSummary loaded;
    EXPECT_FALSE(memo.load(key, loaded));
    const SweepResult result =
        runSweep(crossGrid({"list"}, {"none"}, params, config), options);
    EXPECT_EQ(testing::internal::GetCapturedStderr().find("trace memo"),
              std::string::npos);
    EXPECT_EQ(result.trace_cache_hits, 0u);
    EXPECT_EQ(result.traces_generated, 1u);
    ASSERT_TRUE(memo.load(key, loaded));
    EXPECT_EQ(loaded.content_digest, buffer.contentDigest());
    EXPECT_TRUE(std::filesystem::exists(path));
}

/** A v1 entry (FNV-1a payload hash in its content digest) is never
 *  read. */
TEST(TraceMemo, VersionOneEntryIsACleanMiss)
{
    TempDir dirs;
    const TraceMemo memo{dirs.traceDir()};
    expectOldEntryIsACleanMiss(
        dirs, oldMemoPath(memo.root, memoKey("list", 2000), nullptr),
        "csp-trace-memo-v1",
        trace::formatV3Digest(memoListTrace(), fnv1a));
}

/** A v2 entry (the content digest of a format-v3 payload, whose
 *  vaddrs are raw) is never read. */
TEST(TraceMemo, VersionTwoEntryIsACleanMiss)
{
    TempDir dirs;
    const TraceMemo memo{dirs.traceDir()};
    expectOldEntryIsACleanMiss(
        dirs,
        oldMemoPath(memo.root, memoKey("list", 2000),
                    "csp-trace-memo-v2"),
        "csp-trace-memo-v2",
        trace::formatV3Digest(memoListTrace(), streamDigest));
}

/** Every truncation and every single-bit flip of a memo entry is
 *  refused, and the sweep that meets it regenerates the trace and
 *  stores the entry again, byte for byte. */
TEST(TraceMemo, CorruptionMatrixIsRegeneratedAndRestored)
{
    TempDir dirs;
    SweepOptions options = cachedOptions(dirs, 1);
    const SystemConfig config;
    workloads::WorkloadParams params;
    params.scale = 2000;
    const auto run = [&] {
        return runSweep(crossGrid({"list"}, {"none"}, params, config),
                        options);
    };
    run();
    const TraceMemo memo{dirs.traceDir()};
    const TraceKey key = memoKey("list", 2000);
    const std::string path = memo.entryPath(key);
    std::string golden;
    ASSERT_TRUE(readFileToString(path, golden));
    EXPECT_EQ(golden.rfind(R"({"schema":"csp-trace-memo-v3","epoch":1,)"
                           R"("workload":"list","scale":2000,"seed":1,)"
                           R"("placement":"rand","records":)",
                           0),
              0u)
        << golden;
    TraceSummary summary;
    ASSERT_TRUE(memo.load(key, summary));

    const auto probe = [&](const std::string &bytes,
                           const std::string &row) {
        ASSERT_TRUE(atomicWriteFile(path, bytes));
        testing::internal::CaptureStderr();
        TraceSummary loaded;
        EXPECT_FALSE(memo.load(key, loaded)) << row;
        const SweepResult regenerated = run();
        testing::internal::GetCapturedStderr();
        EXPECT_EQ(regenerated.trace_cache_hits, 0u) << row;
        EXPECT_EQ(regenerated.traces_generated, 1u) << row;
        EXPECT_EQ(regenerated.cells_cached, 1u) << row;
        std::string restored;
        ASSERT_TRUE(readFileToString(path, restored)) << row;
        EXPECT_EQ(restored, golden) << row;
    };
    for (std::size_t size = 0; size < golden.size(); ++size)
        probe(golden.substr(0, size), "cut at " + std::to_string(size));
    for (std::size_t at = 0; at < golden.size(); ++at) {
        for (unsigned bit = 0; bit < 8; ++bit) {
            std::string flipped = golden;
            flipped[at] = static_cast<char>(
                static_cast<unsigned char>(flipped[at]) ^ (1u << bit));
            probe(flipped, "flip bit " + std::to_string(bit) + " at " +
                               std::to_string(at));
        }
    }
}

TEST(ResultCache, TruncatedEntryIsRecomputed)
{
    TempDir dirs;
    const SweepResult cold = sweep(cachedOptions(dirs));

    // Truncate one entry: it must be detected and recomputed, not
    // trusted and not fatal.
    std::vector<std::string> entries;
    for (const auto &file :
         std::filesystem::directory_iterator(dirs.resultDir()))
        entries.push_back(file.path().string());
    ASSERT_EQ(entries.size(),
              kWorkloads.size() * kPrefetchers.size());
    std::sort(entries.begin(), entries.end());
    std::string text;
    ASSERT_TRUE(readFileToString(entries.front(), text));
    std::ofstream truncated(entries.front(), std::ios::trunc);
    truncated << text.substr(0, text.size() / 2);
    truncated.close();

    const SweepResult warm = sweep(cachedOptions(dirs));
    EXPECT_EQ(warm.cells_cached,
              kWorkloads.size() * kPrefetchers.size() - 1);
    EXPECT_EQ(warm.cells_simulated, 1u);
    EXPECT_EQ(cellCsv(cold), cellCsv(warm));
}

TEST(ResultCache, TamperedStatsFailTheDigestRecheck)
{
    TempDir dirs;
    const SweepResult cold = sweep(cachedOptions(dirs));

    // Bump one digit of a stored counter: the JSON stays well-formed
    // and the key block still matches, so only the payload-digest
    // re-check can catch it.
    std::vector<std::string> entries;
    for (const auto &file :
         std::filesystem::directory_iterator(dirs.resultDir()))
        entries.push_back(file.path().string());
    std::sort(entries.begin(), entries.end());
    std::string text;
    ASSERT_TRUE(readFileToString(entries.front(), text));
    const std::size_t pos = text.find("\"cycles\":");
    ASSERT_NE(pos, std::string::npos);
    char &digit = text[pos + std::string("\"cycles\":").size()];
    ASSERT_TRUE(digit >= '0' && digit <= '9');
    digit = static_cast<char>('0' + (digit - '0' + 1) % 10);
    {
        std::ofstream out(entries.front(), std::ios::trunc);
        out << text;
    }

    const SweepResult warm = sweep(cachedOptions(dirs));
    EXPECT_EQ(warm.cells_simulated, 1u);
    EXPECT_EQ(cellCsv(cold), cellCsv(warm));
}

TEST(ResultCache, EntryRefusesServingAForeignKey)
{
    TempDir dirs;
    RunStats stats;
    stats.instructions = 123;
    stats.cycles = 456;
    stats.hierarchy.l1_misses = 7;
    CellKey key;
    key.config_digest = 0x1111;
    key.trace_digest = 0x2222;
    key.workload = "array";
    key.prefetcher = "stride";
    key.scale = 1000;
    key.seed = 1;
    key.placement = "rand";
    const ResultCache cache(dirs.resultDir());
    ASSERT_TRUE(ensureDirectories(cache.root()));
    ASSERT_TRUE(cache.store(key, stats, "testsha"));

    RunStats loaded;
    ASSERT_TRUE(cache.load(key, loaded));
    EXPECT_EQ(runStatsDigest(loaded), runStatsDigest(stats));

    // A mis-keyed write (or an address collision) must be detected by
    // the stored identity, not silently served.
    CellKey other = key;
    other.prefetcher = "context";
    std::string entry;
    ASSERT_TRUE(readFileToString(cache.entryPath(key), entry));
    ASSERT_TRUE(atomicWriteFile(cache.entryPath(other), entry));
    EXPECT_FALSE(cache.load(other, loaded));
}

/** Every RunStats field parses as a whole unsigned integer: a
 *  negative field is not wrapped to 2^64 - 1 and an overflowing one is
 *  not clamped to the maximum. */
TEST(ResultCache, ParseRunStatsFlatRefusesNegativeAndOverflow)
{
    RunStats stats;
    stats.instructions = 123;
    stats.cycles = 456;
    std::ostringstream out;
    writeRunStatsJson(out, stats);
    const std::string text = out.str();
    const std::string field = "\"cycles\":456";
    ASSERT_NE(text.find(field), std::string::npos);

    const auto parses = [&](const std::string &value) {
        std::string edited = text;
        edited.replace(edited.find(field), field.size(),
                       "\"cycles\":" + value);
        diff::FlatDoc doc;
        EXPECT_TRUE(diff::parseJsonFlat(edited, doc, nullptr)) << value;
        RunStats parsed;
        return parseRunStatsFlat(doc, "", parsed);
    };
    EXPECT_TRUE(parses("456"));
    EXPECT_TRUE(parses("18446744073709551615"));
    EXPECT_FALSE(parses("-1"));
    EXPECT_FALSE(parses("18446744073709551616"));
    EXPECT_FALSE(parses("4.5"));
}

/** The payload digest parses as whole hex: a signed spelling that
 *  wraps to the right value is refused, not served. */
TEST(ResultCache, PayloadDigestRefusesASignedSpelling)
{
    TempDir dirs;
    RunStats stats;
    stats.instructions = 123;
    stats.cycles = 456;
    CellKey key;
    key.workload = "array";
    key.prefetcher = "stride";
    key.placement = "rand";
    const ResultCache cache(dirs.resultDir());
    ASSERT_TRUE(ensureDirectories(cache.root()));
    ASSERT_TRUE(cache.store(key, stats, "testsha"));
    std::string entry;
    ASSERT_TRUE(readFileToString(cache.entryPath(key), entry));

    // "-x" wraps to 2^64 - x under strtoull: the same digest, spelled
    // with a sign.
    const std::uint64_t digest = runStatsDigest(stats);
    std::ostringstream negated;
    negated << "-" << std::hex << (~digest + 1);
    const std::string stored = "\"payload_digest\":\"";
    const std::size_t at = entry.find(stored);
    ASSERT_NE(at, std::string::npos);
    const std::size_t begin = at + stored.size();
    const std::size_t end = entry.find('"', begin);
    ASSERT_NE(end, std::string::npos);
    entry.replace(begin, end - begin, negated.str());
    ASSERT_TRUE(atomicWriteFile(cache.entryPath(key), entry));
    RunStats loaded;
    EXPECT_FALSE(cache.load(key, loaded));
}

} // namespace
} // namespace csp::sim
