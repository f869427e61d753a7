/**
 * @file
 * Content-addressed memoization of sweep cells.
 *
 * A sweep cell's RunStats are a pure function of (simulator code,
 * resolved configuration, workload trace, prefetcher name) — the
 * repo's determinism contract, enforced since PR 2 by the
 * bit-identical serial-vs-parallel tests. That makes the RunManifest
 * digests a sound memoization key: `runSweep` consults
 * `results/cache/<digest>.json` before simulating a cell and stores a
 * manifest-stamped entry after, so repeated sweeps (CI, figure
 * regeneration) do zero simulation work and still produce byte-
 * identical output.
 *
 * Invalidation rule (documented in DESIGN.md §7): the key digest folds
 * in kResultCacheEpoch, the config digest (every knob + seed), the
 * trace content digest, the cell identity (workload, prefetcher,
 * scale, seed, placement). The epoch — not the git SHA — is the code
 * component: bump it in the same commit as any result-affecting
 * simulator change (the same commits that must refresh
 * `results/baseline/`). Keying on the git SHA instead would defeat the
 * cache on every commit; the SHA is recorded in each entry as
 * provenance only.
 *
 * Entries are self-verifying: a stats payload digest is stored and
 * re-checked on load, so truncated or corrupted entries are detected
 * and silently recomputed (with a warning).
 *
 * TraceMemo keeps the same kind of entry for each generated workload
 * trace: its counts and content digest, which is all a sweep needs of
 * a trace to key its cells. Only a cell that misses the result cache
 * needs the trace itself, and it regenerates it.
 */

#ifndef CSP_SIM_RESULT_CACHE_H
#define CSP_SIM_RESULT_CACHE_H

#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "sim/simulator.h"

namespace csp::diff {
struct FlatDoc;
}

namespace csp::sim {

/**
 * Result-format epoch: participates in every cell key, so bumping it
 * orphans all stored entries. Bump in the same commit as any change
 * that alters simulation results (see file comment).
 */
inline constexpr std::uint64_t kResultCacheEpoch = 1;

/** Everything that identifies one sweep cell's inputs. */
struct CellKey
{
    std::uint64_t config_digest = 0; ///< configDigest(config), incl. seed
    std::uint64_t trace_digest = 0;  ///< the cell's workload trace
    std::string workload;
    std::string prefetcher;
    std::uint64_t scale = 0;
    std::uint64_t seed = 0;
    std::string placement; ///< "seq" or "rand"
};

/** The key's content address (folds in kResultCacheEpoch). */
std::uint64_t cellKeyDigest(const CellKey &key);

/** Serialize every RunStats field (all integers) as one JSON object.
 *  The cache entry format and the sweep JSON share this shape. */
void writeRunStatsJson(std::ostream &out, const RunStats &stats);

/** Parse a writeRunStatsJson object back out of a flattened document;
 *  every field must be present under @p prefix (e.g. "stats."). */
bool parseRunStatsFlat(const diff::FlatDoc &doc,
                       const std::string &prefix, RunStats &stats);

/** Order-sensitive digest over every RunStats field — the entry's
 *  self-verification payload digest. */
std::uint64_t runStatsDigest(const RunStats &stats);

/** Name/value pairs of every RunStats field in serialization order —
 *  the sweep CSV's column list (names are static literals). */
std::vector<std::pair<const char *, std::uint64_t>>
runStatsFields(const RunStats &stats);

/**
 * Parse a byte-size string with an optional K/M/G/T suffix (powers of
 * 1024, case-insensitive): "64M" -> 67108864. False on malformed
 * input; plain integers are bytes.
 */
bool parseByteSize(const std::string &text, std::uint64_t &out);

/**
 * $CSP_CACHE_MAX_BYTES as a byte budget for the result cache, or 0
 * (unbounded) when unset/empty. Malformed values warn and count as
 * unbounded. The cspsim --cache-max-bytes flag overrides this.
 */
std::uint64_t cacheMaxBytesFromEnv();

/** True unless CSP_RESULT_CACHE=0 disables the result cache. */
bool resultCacheEnabledByEnv();

/** $CSP_RESULT_CACHE_DIR when set, else "results/cache". */
std::string defaultResultCacheDir();

/** True unless CSP_TRACE_CACHE=0 disables the trace memo. */
bool traceCacheEnabledByEnv();

/** $CSP_TRACE_CACHE_DIR when set, else "traces/cache". */
std::string defaultTraceCacheDir();

/** See file comment. */
class ResultCache
{
  public:
    /** @param root cache directory, created lazily on first store. */
    explicit ResultCache(std::string root);

    const std::string &root() const { return root_; }

    /** Entry path for @p key: <root>/<hex key digest>.json. */
    std::string entryPath(const CellKey &key) const;

    /**
     * Warm-path cost breakdown of one load(), for the sweep journal's
     * cell events and `cache.*` telemetry. All side-band: nothing here
     * feeds back into results.
     */
    struct LoadStats
    {
        std::uint64_t read_ns = 0;  ///< file read (0 on a clean miss)
        std::uint64_t parse_ns = 0; ///< JSON parse + key/digest verify
        std::uint64_t bytes = 0;    ///< entry size read (0 on miss)
        /// Entry existed but failed verification (schema/epoch/key/
        /// digest) — a rejected entry, not a clean miss.
        bool verify_failed = false;
    };

    /**
     * Look up @p key. True with @p stats filled on a verified hit;
     * false on a miss. A present-but-invalid entry (schema/epoch/key
     * mismatch, parse failure, payload digest mismatch) warns and
     * counts as a miss — the caller recomputes and re-stores. A hit
     * refreshes the entry's mtime, so the mtime order trimResultCache
     * evicts by is least-recently-*used*, not least-recently-written.
     * @p load_stats, when non-null, receives the cost breakdown.
     */
    bool load(const CellKey &key, RunStats &stats,
              LoadStats *load_stats = nullptr) const;

    /**
     * Store @p stats under @p key (atomic write; concurrent processes
     * sharing the directory and storing the same digest race
     * benignly). @p git_sha is recorded as provenance. False on
     * filesystem failure — never fatal, a sweep without a writable
     * cache still runs.
     */
    bool store(const CellKey &key, const RunStats &stats,
               const std::string &git_sha) const;

  private:
    std::string root_;
};

/** A generated trace's identity without its records: the trace
 *  memo's value, and all a sweep keys its cells with. */
struct TraceSummary
{
    std::uint64_t records = 0;
    std::uint64_t instructions = 0;
    std::uint64_t mem_accesses = 0;
    std::uint64_t content_digest = 0; ///< TraceBuffer::contentDigest

    bool operator==(const TraceSummary &) const = default;
};

/** Everything a generated workload trace is a function of (with the
 *  generator code, which kResultCacheEpoch stands for). */
struct TraceKey
{
    std::string workload;
    std::uint64_t scale = 0;
    std::uint64_t seed = 0;
    std::string placement; ///< "seq" or "rand"
};

/** See file comment. Entries follow ResultCache's rules: schema,
 *  epoch, full key identity and a payload digest, all re-checked on
 *  load, and atomic stores. */
struct TraceMemo
{
    std::string root; ///< memo directory, created by the first store

    /** Entry path for @p key: <root>/<workload>-<hex key digest>.json
     *  (the key digest folds in the schema and kResultCacheEpoch). */
    std::string entryPath(const TraceKey &key) const;

    /** True with @p summary filled on a verified hit. An entry that
     *  fails any check warns and counts as a miss. */
    bool load(const TraceKey &key, TraceSummary &summary) const;

    /** Store @p summary under @p key; warns and returns false on
     *  filesystem failure, never fatal. */
    bool store(const TraceKey &key, const TraceSummary &summary) const;
};

/**
 * Mtime-LRU bound on a result-cache directory (the ROADMAP "currently
 * unbounded" item): when the *.json entries exceed @p max_bytes,
 * delete oldest-mtime-first until the total fits. Run after sweep
 * completion (cspsim --cache-max-bytes / CSP_CACHE_MAX_BYTES), never
 * during one — the sweep, or another process sharing the directory,
 * may be about to hit an entry.
 * @p max_bytes == 0 means unbounded (no-op). Eviction order ties on
 * mtime break by path, so a given directory state trims
 * deterministically. Filesystem errors warn and skip the entry.
 */
struct CacheTrimResult
{
    std::uint64_t scanned_entries = 0;
    std::uint64_t scanned_bytes = 0;
    std::uint64_t evicted_entries = 0;
    std::uint64_t evicted_bytes = 0;
    /** Evicted (filename, bytes), oldest first — journal `evict`
     *  events are emitted from this by the caller. */
    std::vector<std::pair<std::string, std::uint64_t>> evicted;
};
CacheTrimResult trimResultCache(const std::string &dir,
                                std::uint64_t max_bytes);

} // namespace csp::sim

#endif // CSP_SIM_RESULT_CACHE_H
