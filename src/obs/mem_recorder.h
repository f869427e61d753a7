/**
 * @file
 * The concrete memory-observatory sink: a MemObserver that classifies
 * every demand miss per level as compulsory / capacity / conflict /
 * pollution-induced against three shadow models (an infinite tag set,
 * an exact fully-associative LRU stack of the same capacity, and a
 * same-geometry demand-only shadow cache), maintains reuse-distance
 * log2 histograms per level and per demand PC, per-set fill/eviction
 * pressure heatmaps, a pollution-attribution table (which issuer PCs'
 * prefetches displaced which demand PCs' lines) and MSHR/DRAM
 * queue-depth timelines. The telemetry lands under the
 * "mem.class/reuse/sets/pollution/timeline/shadow" registry subtrees
 * (so interval sampling picks it up) and in the `--mem-out mem.json`
 * export (schema "csp-mem-v1") that `cspmem` renders.
 *
 * The recorder is strictly read-only with respect to the simulation:
 * it owns no RNG, touches no hierarchy state, and its presence never
 * changes a single simulated count (tested bit-for-bit). All cadences
 * are counted in demand accesses, never wall clock, so the export is
 * byte-identical across --jobs.
 */

#ifndef CSP_OBS_MEM_RECORDER_H
#define CSP_OBS_MEM_RECORDER_H

#include <cstdint>
#include <iosfwd>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/config.h"
#include "core/stats.h"
#include "core/types.h"
#include "obs/mem_observer.h"

namespace csp::stats {
class Registry;
}

namespace csp::obs {

class TraceEventWriter;

/** The 3C+pollution miss taxonomy (DESIGN.md §9 has the shadow-model
 *  definitions). Every classified demand miss lands in exactly one
 *  class, so the four counters sum to the level's miss counter. */
enum class MissClass : std::uint8_t
{
    Compulsory, ///< first touch of the line in this level's stream
    Pollution,  ///< demand-only shadow cache would have hit
    Conflict,   ///< fully-assoc LRU of same capacity would have hit
    Capacity,   ///< even the fully-assoc same-capacity shadow misses
    Count,
};

/** Human-readable label for a MissClass. */
const char *missClassName(MissClass cls);

/**
 * Exact LRU stack distance (Olken's algorithm): a Fenwick tree over
 * access positions, marking each line's most recent position, answers
 * "how many distinct lines since the last access to this one" in
 * O(log n). Positions are compacted in place when the index space
 * fills, so memory stays proportional to the number of live lines —
 * and because compaction is triggered by access counts, never wall
 * clock, the structure is bit-deterministic.
 */
class StackDistance
{
  public:
    /** Returned for a line's first access (no previous position). */
    static constexpr std::uint64_t kNoReuse = ~0ull;

    StackDistance();

    /** Record an access to @p line; returns the stack distance (number
     *  of distinct lines accessed since its previous access), or
     *  kNoReuse on first touch. */
    std::uint64_t onAccess(Addr line);

    /** Distinct lines tracked so far. */
    std::uint64_t liveLines() const { return last_pos_.size(); }

    /** Index-space compactions performed (cost telemetry). */
    std::uint64_t compactions() const { return compactions_; }

  private:
    void add(std::uint64_t pos, int delta);
    std::uint64_t prefix(std::uint64_t pos) const; // inclusive sum
    void compact();

    std::vector<std::uint32_t> tree_;          ///< Fenwick over positions
    std::vector<Addr> line_at_;                ///< position -> line
    std::unordered_map<Addr, std::uint64_t> last_pos_;
    std::uint64_t next_ = 0;
    std::uint64_t compactions_ = 0;
};

/**
 * Same-geometry demand-only shadow cache: plain set-associative LRU
 * with the real level's sets/ways, fed only by the demand stream (no
 * prefetch fills, no LIP). A real demand miss that this shadow would
 * have served is pollution-induced — the only difference between the
 * two models is the prefetcher's fills and the displacement they
 * caused.
 */
class ShadowCache
{
  public:
    explicit ShadowCache(const CacheConfig &config);

    /** Probe-then-touch for @p line_addr: returns whether the shadow
     *  held the line before this access, and installs/refreshes it. */
    bool access(Addr line_addr);

  private:
    struct Line
    {
        Addr tag = 0;
        std::uint64_t lru = 0;
        bool valid = false;
    };

    std::uint64_t sets_;
    unsigned ways_;
    unsigned line_shift_;
    unsigned set_shift_;
    std::uint64_t set_mask_;
    std::vector<Line> lines_;
    std::uint64_t clock_ = 0;
};

/**
 * The per-level classifier: composes the three shadow models and
 * assigns each demand miss its MissClass. Public (and self-contained:
 * it consumes only the demand line stream) so the differential test
 * can replay the same stream through a brute-force naive reference
 * and compare classifications bit for bit.
 */
class LevelModel
{
  public:
    explicit LevelModel(const CacheConfig &config);

    struct Result
    {
        bool first_touch = false;
        /** Stack distance; StackDistance::kNoReuse on first touch. */
        std::uint64_t reuse_distance = StackDistance::kNoReuse;
        /** Valid only when the access was classified (a real miss). */
        MissClass cls = MissClass::Count;
    };

    /**
     * Feed one demand access to the models and, when @p real_miss,
     * classify it. @p line_present is true when the real cache still
     * holds the line (an in-flight MSHR-merge miss): such a miss was
     * not caused by a displacement, so the pollution rule is skipped
     * for it (DESIGN.md §9).
     */
    Result onAccess(Addr line_addr, bool real_miss, bool line_present);

    std::uint64_t classCount(MissClass cls) const
    {
        return classes_[static_cast<std::size_t>(cls)];
    }

    std::uint64_t classifiedTotal() const;
    std::uint64_t accesses() const { return accesses_; }
    std::uint64_t shadowHits() const { return shadow_hits_; }
    std::uint64_t compactions() const { return stack_.compactions(); }
    std::uint64_t capacityLines() const { return capacity_lines_; }
    const Log2Histogram &reuseHistogram() const { return reuse_; }

  private:
    friend class MemRecorder; // registry reads class counters directly

    std::uint64_t capacity_lines_;
    StackDistance stack_;
    ShadowCache shadow_;
    std::uint64_t classes_[static_cast<std::size_t>(MissClass::Count)] =
        {};
    std::uint64_t accesses_ = 0;
    std::uint64_t shadow_hits_ = 0;
    Log2Histogram reuse_{26};
};

/** See file comment. */
class MemRecorder final : public MemObserver
{
  public:
    struct Options
    {
        /** Demand accesses between MSHR/DRAM queue-depth samples;
         *  0 disables the timeline. */
        std::uint64_t queue_sample_every = 0;
        /** Hot sets exported per level in mem.json. */
        unsigned top_sets = 8;
        /** Demand PCs exported in mem.json. */
        unsigned top_pcs = 8;
        /** Pollution (issuer PC, demand PC) pairs exported. */
        unsigned top_pairs = 16;
        /** Demand accesses between "mem.l1"/"mem.l2" counter-track
         *  samples when a trace-event writer is attached; 0 disables
         *  the tracks. */
        std::uint64_t counter_every = 4096;
        /** Distinct demand PCs tracked exactly; the tail aggregates. */
        std::size_t max_pcs = 4096;
        /** Distinct pollution pairs tracked exactly. */
        std::size_t max_pairs = 4096;
    };

    /** Default options, no counter track. */
    explicit MemRecorder(const MemoryConfig &config)
        : MemRecorder(config, Options(), nullptr)
    {}

    /** @param events optional Perfetto writer for the miss-class
     *  counter tracks (borrowed, may be null). */
    MemRecorder(const MemoryConfig &config, Options options,
                TraceEventWriter *events = nullptr);

    void onDemandAccess(const MemAccessEvent &event) override;
    void onFill(const MemFillEvent &event) override;
    bool queueSampleDue() const override
    {
        return options_.queue_sample_every != 0 &&
               accesses_ >= next_queue_sample_;
    }
    void onQueueSample(const MemQueueSample &sample) override;

    /** Publish the distilled telemetry under "mem.class" / "mem.reuse"
     *  / "mem.sets" / "mem.pollution" / "mem.timeline" / "mem.shadow". */
    void registerStats(stats::Registry &registry) override;

    /**
     * Write the full memory-observatory document (schema "csp-mem-v1"):
     * the run's provenance manifest, per-level miss taxonomy,
     * reuse-distance histograms, set-pressure heatmap, per-PC table,
     * pollution attribution and the queue-depth timeline, as the JSON
     * file `cspmem` and `cspdiff` consume. @p manifest_json is the
     * RunManifest as a JSON object literal.
     */
    void writeMemJson(std::ostream &out,
                      const std::string &manifest_json,
                      const std::string &prefetcher) const;

    const LevelModel &l1Model() const { return l1_; }
    const LevelModel &l2Model() const { return l2_; }
    std::uint64_t l1Classified() const { return l1_.classifiedTotal(); }
    std::uint64_t l2Classified() const { return l2_.classifiedTotal(); }
    std::uint64_t queueSamples() const
    {
        return static_cast<std::uint64_t>(timeline_.size());
    }

  private:
    struct SetStats
    {
        std::uint64_t fills_demand = 0;
        std::uint64_t fills_prefetch = 0;
        std::uint64_t evictions = 0;
    };

    struct PcStats
    {
        std::uint64_t accesses = 0;
        std::uint64_t l1_misses = 0;
        std::uint64_t l2_misses = 0;
        Log2Histogram reuse{16};
    };

    struct PairKey
    {
        Addr issuer = 0;
        Addr demand = 0;
        std::uint8_t level = 1;

        bool operator==(const PairKey &o) const
        {
            return issuer == o.issuer && demand == o.demand &&
                   level == o.level;
        }
    };

    struct PairKeyHash
    {
        std::size_t operator()(const PairKey &k) const
        {
            std::uint64_t h = k.issuer * 0x9e3779b97f4a7c15ull;
            h ^= k.demand + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
            return static_cast<std::size_t>(h ^ k.level);
        }
    };

    void creditPollution(std::uint8_t level, Addr line_addr,
                         Addr demand_pc);
    void emitCounterTracks(Cycle cycle);
    void writeLevelJson(std::ostream &out, const char *name,
                        const LevelModel &model,
                        const std::vector<SetStats> &sets) const;

    Options options_;
    TraceEventWriter *events_; ///< borrowed, may be null

    LevelModel l1_;
    LevelModel l2_;

    std::uint64_t accesses_ = 0; ///< demand accesses seen
    std::uint64_t next_queue_sample_ = 0;

    std::vector<SetStats> l1_sets_;
    std::vector<SetStats> l2_sets_;

    // Pollution attribution: evicted line -> issuer PC of the prefetch
    // fill that displaced it, consumed when the line next takes a
    // pollution-classified miss at that level (latest eviction wins).
    std::unordered_map<Addr, Addr> l1_victims_;
    std::unordered_map<Addr, Addr> l2_victims_;
    std::unordered_map<PairKey, std::uint64_t, PairKeyHash> pairs_;
    std::uint64_t pollution_attributed_[2] = {};   ///< [level - 1]
    std::uint64_t pollution_unattributed_[2] = {};
    std::uint64_t pairs_overflow_ = 0; ///< pairs folded past max_pairs

    std::unordered_map<Addr, PcStats> pcs_;
    PcStats other_pcs_; ///< aggregate past max_pcs

    std::vector<MemQueueSample> timeline_;
    MemQueueSample last_sample_;
};

} // namespace csp::obs

#endif // CSP_OBS_MEM_RECORDER_H
