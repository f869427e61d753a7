#include "sim/result_cache.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <initializer_list>
#include <ostream>
#include <sstream>
#include <string_view>
#include <utility>

#include "core/content_store.h"
#include "core/hashing.h"
#include "core/logging.h"
#include "core/parse.h"
#include "core/run_manifest.h"
#include "diff/csp_diff.h"

namespace csp::sim {

namespace {

constexpr const char *kSchema = "csp-result-cache-v1";
constexpr const char *kTraceMemoSchema = "csp-trace-memo-v3";

std::uint64_t
stringHash(const std::string &text)
{
    return fnv1a({reinterpret_cast<const std::uint8_t *>(text.data()),
                  text.size()});
}

/** Parse a uint64 from the flattened value's whole source text — the
 *  double lane loses precision above 2^53; "-1" and overflow fail. */
bool
parseU64(const diff::FlatDoc &doc, const std::string &name,
         std::uint64_t &out)
{
    const diff::FlatValue *value = doc.find(name);
    return value != nullptr && value->is_number &&
           parseUnsigned(value->text, out);
}

bool
matchText(const diff::FlatDoc &doc, const std::string &name,
          const std::string &expect)
{
    const diff::FlatValue *value = doc.find(name);
    return value != nullptr && value->text == expect;
}

/** One field of an entry's key: its name and its exact text. */
using KeyField = std::pair<const char *, std::string>;

/**
 * Why @p text is not a @p schema entry of the current epoch with the
 * key @p key, or nullptr when it is one; @p doc receives the entry.
 * Fields must read exactly as they were written, so no other spelling
 * of a number or digest ("01", "-x", upper case) passes.
 */
const char *
checkEntry(const std::string &text, const char *schema,
           std::initializer_list<KeyField> key, diff::FlatDoc &doc,
           std::string &error)
{
    if (!diff::parseJsonFlat(text, doc, &error))
        return error.c_str();
    if (!matchText(doc, "schema", schema))
        return "schema mismatch";
    if (!matchText(doc, "epoch", std::to_string(kResultCacheEpoch)))
        return "epoch mismatch";
    // A digest collision mapping two different keys to one entry path
    // would silently serve wrong results; the stored identity makes
    // that (and any mis-keyed write) detectable.
    for (const auto &[name, expect] : key) {
        if (!matchText(doc, name, expect))
            return "key mismatch";
    }
    return nullptr;
}

/** The trace memo entry's self-verification payload digest. */
std::uint64_t
traceSummaryDigest(const TraceSummary &summary)
{
    WordHasher h;
    h.add(summary.records);
    h.add(summary.instructions);
    h.add(summary.mem_accesses);
    h.add(summary.content_digest);
    return h.digest();
}

/** Every integer field of a RunStats, in serialization order, fed to
 *  one visitor — the writer, parser and digest never disagree on the
 *  field list. */
template <typename Fn>
void
forEachRunStatsField(RunStats &stats, Fn &&fn)
{
    fn("instructions", stats.instructions);
    fn("cycles", stats.cycles);
    fn("demand_accesses", stats.demand_accesses);
    fn("l1_misses", stats.l1_misses);
    fn("l2_demand_misses", stats.l2_demand_misses);
    for (std::size_t c = 0;
         c < static_cast<std::size_t>(AccessClass::Count); ++c) {
        fn(accessClassName(static_cast<AccessClass>(c)),
           stats.classes[c]);
    }
    fn("prefetch_never_hit", stats.prefetch_never_hit);
    mem::HierarchyStats &h = stats.hierarchy;
    fn("hierarchy.demand_accesses", h.demand_accesses);
    fn("hierarchy.l1_misses", h.l1_misses);
    fn("hierarchy.l2_demand_misses", h.l2_demand_misses);
    fn("hierarchy.prefetches_issued", h.prefetches_issued);
    fn("hierarchy.prefetches_duplicate", h.prefetches_duplicate);
    fn("hierarchy.prefetches_dropped", h.prefetches_dropped);
    fn("hierarchy.prefetch_evicted_unused", h.prefetch_evicted_unused);
    fn("hierarchy.prefetch_unused_at_end", h.prefetch_unused_at_end);
    fn("hierarchy.l1_writebacks", h.l1_writebacks);
    fn("hierarchy.l2_writebacks", h.l2_writebacks);
}

} // namespace

std::uint64_t
cellKeyDigest(const CellKey &key)
{
    WordHasher h;
    h.add(kResultCacheEpoch);
    h.add(key.config_digest);
    h.add(key.trace_digest);
    h.add(stringHash(key.workload));
    h.add(stringHash(key.prefetcher));
    h.add(key.scale);
    h.add(key.seed);
    h.add(stringHash(key.placement));
    return h.digest();
}

void
writeRunStatsJson(std::ostream &out, const RunStats &stats)
{
    out << '{';
    bool first = true;
    // The visitor takes a mutable RunStats; serialization only reads.
    forEachRunStatsField(
        const_cast<RunStats &>(stats),
        [&](const char *name, std::uint64_t value) {
            // Dotted field names are emitted literally; parseJsonFlat
            // joins nested keys with '.' too, so the flattened names
            // agree either way.
            out << (first ? "" : ",") << '"' << name << "\":" << value;
            first = false;
        });
    out << '}';
}

bool
parseRunStatsFlat(const diff::FlatDoc &doc, const std::string &prefix,
                  RunStats &stats)
{
    bool ok = true;
    forEachRunStatsField(stats,
                         [&](const char *name, std::uint64_t &value) {
                             if (!parseU64(doc, prefix + name, value))
                                 ok = false;
                         });
    return ok;
}

std::uint64_t
runStatsDigest(const RunStats &stats)
{
    WordHasher h;
    forEachRunStatsField(const_cast<RunStats &>(stats),
                         [&](const char *, std::uint64_t value) {
                             h.add(value);
                         });
    return h.digest();
}

std::vector<std::pair<const char *, std::uint64_t>>
runStatsFields(const RunStats &stats)
{
    std::vector<std::pair<const char *, std::uint64_t>> fields;
    forEachRunStatsField(const_cast<RunStats &>(stats),
                         [&](const char *name, std::uint64_t value) {
                             fields.emplace_back(name, value);
                         });
    return fields;
}

bool
parseByteSize(const std::string &text, std::uint64_t &out)
{
    std::string_view digits = text;
    unsigned shift = 0;
    if (!digits.empty()) {
        switch (std::toupper(static_cast<unsigned char>(digits.back()))) {
        case 'K': shift = 10; break;
        case 'M': shift = 20; break;
        case 'G': shift = 30; break;
        case 'T': shift = 40; break;
        default: break;
        }
        if (shift != 0)
            digits.remove_suffix(1);
    }
    std::uint64_t value = 0;
    // Overflow of the digits or of the suffix's scaling is refused,
    // never wrapped into a tiny budget.
    if (!parseUnsigned(digits, value) || value > (UINT64_MAX >> shift))
        return false;
    out = value << shift;
    return true;
}

std::uint64_t
cacheMaxBytesFromEnv()
{
    const char *env = std::getenv("CSP_CACHE_MAX_BYTES");
    if (env == nullptr || *env == '\0')
        return 0;
    std::uint64_t bytes = 0;
    if (!parseByteSize(env, bytes)) {
        warn("CSP_CACHE_MAX_BYTES: malformed size %s ignored "
             "(want N with optional K/M/G/T suffix)",
             env);
        return 0;
    }
    return bytes;
}

bool
resultCacheEnabledByEnv()
{
    const char *env = std::getenv("CSP_RESULT_CACHE");
    return env == nullptr || std::strcmp(env, "0") != 0;
}

std::string
defaultResultCacheDir()
{
    const char *env = std::getenv("CSP_RESULT_CACHE_DIR");
    return env != nullptr && *env != '\0' ? env : "results/cache";
}

bool
traceCacheEnabledByEnv()
{
    const char *env = std::getenv("CSP_TRACE_CACHE");
    return env == nullptr || std::strcmp(env, "0") != 0;
}

std::string
defaultTraceCacheDir()
{
    const char *env = std::getenv("CSP_TRACE_CACHE_DIR");
    return env != nullptr && *env != '\0' ? env : "traces/cache";
}

ResultCache::ResultCache(std::string root) : root_(std::move(root)) {}

std::string
ResultCache::entryPath(const CellKey &key) const
{
    return root_ + "/" + hexDigest(cellKeyDigest(key)) + ".json";
}

bool
ResultCache::load(const CellKey &key, RunStats &stats,
                  LoadStats *load_stats) const
{
    const std::string path = entryPath(key);
    // The read/parse split below is what the sweep journal's
    // warm-path attribution is built from (the ROADMAP-named "warm
    // bottleneck is JSON parse of cached entries"): read_ns covers
    // getting bytes off disk, parse_ns everything after (flatten,
    // key checks, stats fields, payload digest).
    const auto read_start = std::chrono::steady_clock::now();
    std::string text;
    if (!readFileToString(path, text))
        return false; // clean miss
    const auto parse_start = std::chrono::steady_clock::now();
    const auto finish = [&](bool verify_failed) {
        if (load_stats == nullptr)
            return;
        const auto ns = [](auto from, auto to) {
            return static_cast<std::uint64_t>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    to - from)
                    .count());
        };
        load_stats->read_ns = ns(read_start, parse_start);
        load_stats->parse_ns =
            ns(parse_start, std::chrono::steady_clock::now());
        load_stats->bytes = text.size();
        load_stats->verify_failed = verify_failed;
    };
    const auto reject = [&](const char *why) {
        warn("result cache: invalid entry %s (%s), recomputing",
             path.c_str(), why);
        finish(true);
        return false;
    };
    diff::FlatDoc doc;
    std::string error;
    if (const char *why = checkEntry(
            text, kSchema,
            {{"config_digest", hexDigest(key.config_digest)},
             {"trace_digest", hexDigest(key.trace_digest)},
             {"workload", key.workload},
             {"prefetcher", key.prefetcher},
             {"scale", std::to_string(key.scale)},
             {"seed", std::to_string(key.seed)},
             {"placement", key.placement}},
            doc, error))
        return reject(why);
    RunStats parsed;
    if (!parseRunStatsFlat(doc, "stats.", parsed))
        return reject("missing stats fields");
    if (!matchText(doc, "payload_digest",
                   hexDigest(runStatsDigest(parsed))))
        return reject("payload digest mismatch");
    stats = parsed;
    finish(false);
    // Touch the entry so trimResultCache's mtime order is LRU by use.
    // Best-effort: a read-only cache still hits, it just trims by
    // write time.
    std::error_code ec;
    std::filesystem::last_write_time(
        path, std::filesystem::file_time_type::clock::now(), ec);
    return true;
}

CacheTrimResult
trimResultCache(const std::string &dir, std::uint64_t max_bytes)
{
    CacheTrimResult result;
    if (max_bytes == 0)
        return result;
    namespace fs = std::filesystem;
    struct Entry
    {
        fs::file_time_type mtime;
        std::string name;
        std::uint64_t bytes = 0;
    };
    std::vector<Entry> entries;
    std::error_code ec;
    fs::directory_iterator it(dir, ec);
    if (ec)
        return result; // no cache directory -> nothing to trim
    for (const fs::directory_entry &de :
         fs::directory_iterator(dir, ec)) {
        if (!de.is_regular_file(ec))
            continue;
        if (de.path().extension() != ".json")
            continue;
        Entry entry;
        entry.name = de.path().filename().string();
        entry.bytes = de.file_size(ec);
        if (ec)
            continue;
        entry.mtime = de.last_write_time(ec);
        if (ec)
            continue;
        result.scanned_bytes += entry.bytes;
        ++result.scanned_entries;
        entries.push_back(std::move(entry));
    }
    if (result.scanned_bytes <= max_bytes)
        return result;
    std::sort(entries.begin(), entries.end(),
              [](const Entry &a, const Entry &b) {
                  if (a.mtime != b.mtime)
                      return a.mtime < b.mtime;
                  return a.name < b.name;
              });
    std::uint64_t remaining = result.scanned_bytes;
    for (const Entry &entry : entries) {
        if (remaining <= max_bytes)
            break;
        std::error_code rm_ec;
        if (!fs::remove(dir + "/" + entry.name, rm_ec) || rm_ec) {
            warn("cache trim: cannot remove %s/%s", dir.c_str(),
                 entry.name.c_str());
            continue;
        }
        remaining -= entry.bytes;
        result.evicted_bytes += entry.bytes;
        ++result.evicted_entries;
        result.evicted.emplace_back(entry.name, entry.bytes);
    }
    return result;
}

bool
ResultCache::store(const CellKey &key, const RunStats &stats,
                   const std::string &git_sha) const
{
    std::ostringstream out;
    out << "{\"schema\":\"" << kSchema << '"'
        << ",\"epoch\":" << kResultCacheEpoch
        << ",\"config_digest\":\"" << hexDigest(key.config_digest)
        << '"' << ",\"trace_digest\":\"" << hexDigest(key.trace_digest)
        << '"' << ",\"workload\":\"" << key.workload << '"'
        << ",\"prefetcher\":\"" << key.prefetcher << '"'
        << ",\"scale\":" << key.scale << ",\"seed\":" << key.seed
        << ",\"placement\":\"" << key.placement << '"'
        << ",\"git_sha\":\"" << git_sha << '"'
        << ",\"payload_digest\":\"" << hexDigest(runStatsDigest(stats))
        << '"' << ",\"stats\":";
    writeRunStatsJson(out, stats);
    out << "}\n";
    return atomicWriteFile(entryPath(key), out.str());
}

std::string
TraceMemo::entryPath(const TraceKey &key) const
{
    // The schema is part of the name, so an entry of an older schema
    // (one whose content digest used another payload hash) is never
    // read: a clean miss, not a stale entry.
    WordHasher h;
    h.add(stringHash(kTraceMemoSchema));
    h.add(kResultCacheEpoch);
    h.add(stringHash(key.workload));
    h.add(key.scale);
    h.add(key.seed);
    h.add(stringHash(key.placement));
    return root + "/" + key.workload + "-" + hexDigest(h.digest()) +
           ".json";
}

bool
TraceMemo::load(const TraceKey &key, TraceSummary &summary) const
{
    const std::string path = entryPath(key);
    std::string text;
    if (!readFileToString(path, text))
        return false; // clean miss
    const auto reject = [&](const char *why) {
        warn("trace memo: invalid entry %s (%s), regenerating",
             path.c_str(), why);
        return false;
    };
    diff::FlatDoc doc;
    std::string error;
    if (const char *why = checkEntry(
            text, kTraceMemoSchema,
            {{"workload", key.workload},
             {"scale", std::to_string(key.scale)},
             {"seed", std::to_string(key.seed)},
             {"placement", key.placement}},
            doc, error))
        return reject(why);
    TraceSummary parsed;
    const diff::FlatValue *digest = doc.find("content_digest");
    if (!parseU64(doc, "records", parsed.records) ||
        !parseU64(doc, "instructions", parsed.instructions) ||
        !parseU64(doc, "mem_accesses", parsed.mem_accesses) ||
        digest == nullptr ||
        std::from_chars(digest->text.data(),
                        digest->text.data() + digest->text.size(),
                        parsed.content_digest, 16)
                .ec != std::errc() ||
        hexDigest(parsed.content_digest) != digest->text)
        return reject("malformed summary");
    if (!matchText(doc, "payload_digest",
                   hexDigest(traceSummaryDigest(parsed))))
        return reject("payload digest mismatch");
    summary = parsed;
    return true;
}

bool
TraceMemo::store(const TraceKey &key, const TraceSummary &summary) const
{
    std::ostringstream out;
    out << "{\"schema\":\"" << kTraceMemoSchema << '"'
        << ",\"epoch\":" << kResultCacheEpoch
        << ",\"workload\":\"" << key.workload << '"'
        << ",\"scale\":" << key.scale << ",\"seed\":" << key.seed
        << ",\"placement\":\"" << key.placement << '"'
        << ",\"records\":" << summary.records
        << ",\"instructions\":" << summary.instructions
        << ",\"mem_accesses\":" << summary.mem_accesses
        << ",\"content_digest\":\"" << hexDigest(summary.content_digest)
        << '"' << ",\"payload_digest\":\""
        << hexDigest(traceSummaryDigest(summary)) << "\"}";
    // No trailing newline: the parser skips trailing whitespace, so
    // with one a cut-off newline would still load. Without it every
    // prefix of an entry is malformed.
    if (atomicWriteFile(entryPath(key), out.str()))
        return true;
    warn("trace memo: cannot store %s", entryPath(key).c_str());
    return false;
}

} // namespace csp::sim
