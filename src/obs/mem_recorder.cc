#include "obs/mem_recorder.h"

#include <algorithm>
#include <iomanip>
#include <ostream>

#include "core/logging.h"
#include "core/stats_registry.h"
#include "obs/trace_events.h"

namespace csp::obs {

namespace {

/** floor(log2(v)) for power-of-two geometry parameters. */
unsigned
log2Exact(std::uint64_t v)
{
    CSP_ASSERT(v != 0 && (v & (v - 1)) == 0);
    unsigned shift = 0;
    while ((1ull << shift) != v)
        ++shift;
    return shift;
}

/** Log2Histogram summary as a JSON object literal. */
void
writeHistJson(std::ostream &out, const Log2Histogram &hist)
{
    out << "{\"count\":" << hist.count() << ",\"mean\":" << hist.mean()
        << ",\"p50\":" << hist.percentile(0.5)
        << ",\"p90\":" << hist.percentile(0.9)
        << ",\"p99\":" << hist.percentile(0.99) << ",\"buckets\":[";
    // Trailing all-zero buckets are elided so the export stays small;
    // the bucket layout is fixed, so the prefix is unambiguous.
    std::size_t last = hist.buckets().size();
    while (last > 0 && hist.buckets()[last - 1] == 0)
        --last;
    for (std::size_t i = 0; i < last; ++i)
        out << (i == 0 ? "" : ",") << hist.buckets()[i];
    out << "]}";
}

} // namespace

const char *
missClassName(MissClass cls)
{
    switch (cls) {
      case MissClass::Compulsory: return "compulsory";
      case MissClass::Pollution: return "pollution";
      case MissClass::Conflict: return "conflict";
      case MissClass::Capacity: return "capacity";
      case MissClass::Count: break;
    }
    return "?";
}

// ---------------------------------------------------------------------
// StackDistance

StackDistance::StackDistance()
{
    // Start small; compact() grows the index space as live lines do.
    tree_.assign(1 << 12, 0);
    line_at_.assign(1 << 12, kInvalidAddr);
}

void
StackDistance::add(std::uint64_t pos, int delta)
{
    for (std::uint64_t i = pos + 1; i <= tree_.size();
         i += i & (~i + 1)) {
        tree_[i - 1] = static_cast<std::uint32_t>(
            static_cast<std::int64_t>(tree_[i - 1]) + delta);
    }
}

std::uint64_t
StackDistance::prefix(std::uint64_t pos) const
{
    std::uint64_t sum = 0;
    for (std::uint64_t i = pos + 1; i > 0; i -= i & (~i + 1))
        sum += tree_[i - 1];
    return sum;
}

void
StackDistance::compact()
{
    // Reassign the live lines' positions 0..n-1 in recency order and
    // rebuild the tree. Triggered by access counts only, so two runs
    // over the same stream compact at the same points.
    ++compactions_;
    std::vector<Addr> live;
    live.reserve(last_pos_.size());
    for (std::uint64_t pos = 0; pos < next_; ++pos) {
        if (line_at_[pos] != kInvalidAddr)
            live.push_back(line_at_[pos]);
    }
    std::uint64_t capacity = tree_.size();
    while (live.size() * 2 > capacity)
        capacity *= 2;
    tree_.assign(capacity, 0);
    line_at_.assign(capacity, kInvalidAddr);
    next_ = 0;
    for (Addr line : live) {
        line_at_[next_] = line;
        last_pos_[line] = next_;
        add(next_, +1);
        ++next_;
    }
}

std::uint64_t
StackDistance::onAccess(Addr line)
{
    if (next_ == tree_.size())
        compact();
    std::uint64_t distance = kNoReuse;
    auto it = last_pos_.find(line);
    if (it != last_pos_.end()) {
        const std::uint64_t last = it->second;
        // Marked positions in (last, next_) are exactly the lines whose
        // most recent access falls after this line's — its LRU depth.
        distance = prefix(next_ == 0 ? 0 : next_ - 1) - prefix(last);
        add(last, -1);
        line_at_[last] = kInvalidAddr;
    }
    line_at_[next_] = line;
    add(next_, +1);
    last_pos_[line] = next_;
    ++next_;
    return distance;
}

// ---------------------------------------------------------------------
// ShadowCache

ShadowCache::ShadowCache(const CacheConfig &config)
    : sets_(config.sets()),
      ways_(config.ways),
      line_shift_(log2Exact(config.line_bytes)),
      set_shift_(log2Exact(config.sets())),
      set_mask_(config.sets() - 1),
      lines_(config.sets() * config.ways)
{}

bool
ShadowCache::access(Addr line_addr)
{
    const std::uint64_t set = (line_addr >> line_shift_) & set_mask_;
    const Addr tag = line_addr >> (line_shift_ + set_shift_);
    Line *const base = &lines_[set * ways_];
    Line *victim = &base[0];
    for (unsigned way = 0; way < ways_; ++way) {
        Line &line = base[way];
        if (line.valid && line.tag == tag) {
            line.lru = ++clock_;
            return true;
        }
        if (!victim->valid)
            continue;
        if (!line.valid || line.lru < victim->lru)
            victim = &line;
    }
    victim->tag = tag;
    victim->valid = true;
    victim->lru = ++clock_;
    return false;
}

// ---------------------------------------------------------------------
// LevelModel

LevelModel::LevelModel(const CacheConfig &config)
    : capacity_lines_(config.size_bytes / config.line_bytes),
      shadow_(config)
{}

std::uint64_t
LevelModel::classifiedTotal() const
{
    std::uint64_t total = 0;
    for (std::uint64_t c : classes_)
        total += c;
    return total;
}

LevelModel::Result
LevelModel::onAccess(Addr line_addr, bool real_miss, bool line_present)
{
    ++accesses_;
    Result result;
    // StackDistance never forgets a line, so it doubles as the
    // infinite tag set: no previous position means first touch.
    result.reuse_distance = stack_.onAccess(line_addr);
    result.first_touch =
        result.reuse_distance == StackDistance::kNoReuse;
    const bool shadow_hit = shadow_.access(line_addr);
    if (shadow_hit)
        ++shadow_hits_;
    if (!result.first_touch)
        reuse_.sample(result.reuse_distance);
    if (!real_miss)
        return result;
    // Priority order: compulsory (no model could have held the line),
    // then pollution (the demand-only shadow did hold it, so prefetch
    // fills displaced it), then conflict vs capacity by exact stack
    // distance against a fully-associative cache of the same capacity.
    // An in-flight (MSHR-merge) miss still holds the line in the real
    // cache — nothing displaced it — so the pollution rule is skipped.
    if (result.first_touch)
        result.cls = MissClass::Compulsory;
    else if (shadow_hit && !line_present)
        result.cls = MissClass::Pollution;
    else if (result.reuse_distance < capacity_lines_)
        result.cls = MissClass::Conflict;
    else
        result.cls = MissClass::Capacity;
    ++classes_[static_cast<std::size_t>(result.cls)];
    return result;
}

// ---------------------------------------------------------------------
// MemRecorder

MemRecorder::MemRecorder(const MemoryConfig &config, Options options,
                         TraceEventWriter *events)
    : options_(options),
      events_(events),
      l1_(config.l1d),
      l2_(config.l2),
      l1_sets_(config.l1d.sets()),
      l2_sets_(config.l2.sets())
{}

void
MemRecorder::creditPollution(std::uint8_t level, Addr line_addr,
                             Addr demand_pc)
{
    auto &victims = level == 1 ? l1_victims_ : l2_victims_;
    auto it = victims.find(line_addr);
    if (it == victims.end()) {
        ++pollution_unattributed_[level - 1];
        return;
    }
    ++pollution_attributed_[level - 1];
    const PairKey key{it->second, demand_pc, level};
    victims.erase(it);
    auto pair = pairs_.find(key);
    if (pair != pairs_.end()) {
        ++pair->second;
    } else if (pairs_.size() < options_.max_pairs) {
        pairs_.emplace(key, 1);
    } else {
        ++pairs_overflow_;
    }
}

void
MemRecorder::emitCounterTracks(Cycle cycle)
{
    events_->counter(
        "mem.l1", cycle,
        {{"compulsory",
          static_cast<double>(l1_.classCount(MissClass::Compulsory))},
         {"capacity",
          static_cast<double>(l1_.classCount(MissClass::Capacity))},
         {"conflict",
          static_cast<double>(l1_.classCount(MissClass::Conflict))},
         {"pollution",
          static_cast<double>(l1_.classCount(MissClass::Pollution))}});
    events_->counter(
        "mem.l2", cycle,
        {{"compulsory",
          static_cast<double>(l2_.classCount(MissClass::Compulsory))},
         {"capacity",
          static_cast<double>(l2_.classCount(MissClass::Capacity))},
         {"conflict",
          static_cast<double>(l2_.classCount(MissClass::Conflict))},
         {"pollution",
          static_cast<double>(l2_.classCount(MissClass::Pollution))}});
}

void
MemRecorder::onDemandAccess(const MemAccessEvent &event)
{
    ++accesses_;
    const bool l1_miss = event.kind != MemAccessKind::L1Hit;
    const bool l1_present = event.kind == MemAccessKind::L1Hit ||
                            event.kind == MemAccessKind::L1InFlight;
    const LevelModel::Result l1r =
        l1_.onAccess(event.line_addr, l1_miss, l1_present);
    if (l1r.cls == MissClass::Pollution)
        creditPollution(1, event.line_addr, event.pc);

    // Per-PC telemetry: exact for the first max_pcs distinct PCs (the
    // synthetic workloads have tens), aggregated beyond that.
    PcStats *pc = &other_pcs_;
    auto it = pcs_.find(event.pc);
    if (it != pcs_.end())
        pc = &it->second;
    else if (pcs_.size() < options_.max_pcs)
        pc = &pcs_[event.pc];
    ++pc->accesses;
    if (l1_miss)
        ++pc->l1_misses;
    if (!l1r.first_touch)
        pc->reuse.sample(l1r.reuse_distance);

    // The L2 reference stream is the full L1 misses (the requests that
    // actually reached L2); its classified misses are the demand
    // accesses that went all the way to DRAM.
    if (event.kind == MemAccessKind::L2Hit ||
        event.kind == MemAccessKind::Memory) {
        const bool l2_miss = event.kind == MemAccessKind::Memory;
        const LevelModel::Result l2r =
            l2_.onAccess(event.line_addr, l2_miss,
                         /*line_present=*/false);
        if (l2r.cls == MissClass::Pollution)
            creditPollution(2, event.line_addr, event.pc);
        if (l2r.cls != MissClass::Count)
            ++pc->l2_misses;
    }

    if (events_ != nullptr && options_.counter_every != 0 &&
        accesses_ % options_.counter_every == 0) {
        emitCounterTracks(event.cycle);
    }
}

void
MemRecorder::onFill(const MemFillEvent &event)
{
    auto &sets = event.level == 1 ? l1_sets_ : l2_sets_;
    SetStats &set = sets[event.set];
    if (event.is_prefetch)
        ++set.fills_prefetch;
    else
        ++set.fills_demand;
    if (!event.victim_valid)
        return;
    ++set.evictions;
    if (event.is_prefetch) {
        // Remember who displaced this line; if the victim takes a
        // pollution-classified miss later, the blame lands on this
        // prefetch's issuer PC. Latest displacement wins; the map is
        // bounded by the distinct-line count of the run.
        auto &victims = event.level == 1 ? l1_victims_ : l2_victims_;
        victims[event.victim_addr] = event.pc;
    }
}

void
MemRecorder::onQueueSample(const MemQueueSample &sample)
{
    timeline_.push_back(sample);
    last_sample_ = sample;
    next_queue_sample_ = accesses_ + options_.queue_sample_every;
}

void
MemRecorder::registerStats(stats::Registry &registry)
{
    static const char *const kClassDesc[] = {
        "first-touch misses (no finite cache could hold the line)",
        "misses a demand-only shadow of same geometry would have hit",
        "misses a fully-assoc LRU of same capacity would have hit",
        "misses even the fully-assoc same-capacity shadow takes",
    };
    for (unsigned level = 1; level <= 2; ++level) {
        LevelModel &model = level == 1 ? l1_ : l2_;
        const std::string prefix =
            std::string("mem.class.l") + (level == 1 ? "1" : "2") + '.';
        for (std::size_t c = 0;
             c < static_cast<std::size_t>(MissClass::Count); ++c) {
            registry.counter(
                prefix + missClassName(static_cast<MissClass>(c)),
                &model.classes_[c], kClassDesc[c]);
        }
        const std::string ln = level == 1 ? "l1" : "l2";
        registry.distribution(
            "mem.reuse." + ln, &model.reuse_,
            "LRU stack distance per re-access (lines)");
        registry.counter("mem.shadow." + ln + ".hits",
                         &model.shadow_hits_,
                         "demand-only shadow-cache hits");
    }
    registry.counter(
        "mem.shadow.compactions",
        [this] { return l1_.compactions() + l2_.compactions(); },
        "stack-distance index compactions (cost telemetry)");

    for (unsigned level = 1; level <= 2; ++level) {
        const std::string ln = level == 1 ? "l1" : "l2";
        const std::vector<SetStats> *const sets =
            level == 1 ? &l1_sets_ : &l2_sets_;
        registry.counter(
            "mem.sets." + ln + ".evictions",
            [sets] {
                std::uint64_t total = 0;
                for (const SetStats &s : *sets)
                    total += s.evictions;
                return total;
            },
            "valid lines displaced across all sets");
        registry.gauge(
            "mem.sets." + ln + ".hot_evictions",
            [sets] {
                std::uint64_t hot = 0;
                for (const SetStats &s : *sets)
                    hot = std::max(hot, s.evictions);
                return static_cast<double>(hot);
            },
            "evictions in the single hottest set");
        registry.counter("mem.pollution." + ln + ".attributed",
                         &pollution_attributed_[level - 1],
                         "pollution misses traced to a prefetch issuer");
        registry.counter("mem.pollution." + ln + ".unattributed",
                         &pollution_unattributed_[level - 1],
                         "pollution misses with no recorded displacer");
    }

    registry.counter(
        "mem.timeline.samples",
        [this] { return queueSamples(); },
        "MSHR/DRAM queue-depth samples taken");
    registry.gauge(
        "mem.timeline.l1_mshr",
        [this] { return static_cast<double>(last_sample_.l1_mshr_busy); },
        "L1 MSHR slots busy at the last queue sample");
    registry.gauge(
        "mem.timeline.l2_mshr",
        [this] { return static_cast<double>(last_sample_.l2_mshr_busy); },
        "L2 MSHR slots busy at the last queue sample");
    registry.gauge(
        "mem.timeline.dram_backlog",
        [this] {
            return static_cast<double>(last_sample_.dram_backlog);
        },
        "cycles until DRAM frees up, at the last queue sample");
}

void
MemRecorder::writeLevelJson(std::ostream &out, const char *name,
                            const LevelModel &model,
                            const std::vector<SetStats> &sets) const
{
    out << '"' << name << "\":{\"accesses\":" << model.accesses()
        << ",\"classified\":" << model.classifiedTotal()
        << ",\"classes\":{";
    for (std::size_t c = 0;
         c < static_cast<std::size_t>(MissClass::Count); ++c) {
        out << (c == 0 ? "" : ",") << '"'
            << missClassName(static_cast<MissClass>(c)) << "\":"
            << model.classCount(static_cast<MissClass>(c));
    }
    out << "},\"shadow_hits\":" << model.shadowHits()
        << ",\"capacity_lines\":" << model.capacityLines()
        << ",\"reuse\":";
    writeHistJson(out, model.reuseHistogram());

    // Set-pressure heatmap: totals plus the top-K hottest sets by
    // eviction pressure (ties broken by set index — deterministic).
    std::uint64_t fills_demand = 0, fills_prefetch = 0, evictions = 0;
    for (const SetStats &s : sets) {
        fills_demand += s.fills_demand;
        fills_prefetch += s.fills_prefetch;
        evictions += s.evictions;
    }
    std::vector<std::uint64_t> order(sets.size());
    for (std::uint64_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::stable_sort(order.begin(), order.end(),
                     [&sets](std::uint64_t a, std::uint64_t b) {
                         if (sets[a].evictions != sets[b].evictions)
                             return sets[a].evictions > sets[b].evictions;
                         return a < b;
                     });
    out << ",\"sets\":{\"count\":" << sets.size()
        << ",\"fills_demand\":" << fills_demand
        << ",\"fills_prefetch\":" << fills_prefetch
        << ",\"evictions\":" << evictions << ",\"top\":[";
    const std::size_t top =
        std::min<std::size_t>(options_.top_sets, order.size());
    for (std::size_t i = 0; i < top; ++i) {
        const SetStats &s = sets[order[i]];
        const std::uint64_t fills = s.fills_demand + s.fills_prefetch;
        out << (i == 0 ? "" : ",") << "{\"set\":" << order[i]
            << ",\"fills_demand\":" << s.fills_demand
            << ",\"fills_prefetch\":" << s.fills_prefetch
            << ",\"evictions\":" << s.evictions << ",\"demand_share\":"
            << (fills == 0 ? 1.0
                           : static_cast<double>(s.fills_demand) /
                                 static_cast<double>(fills))
            << '}';
    }
    out << "]}}";
}

void
MemRecorder::writeMemJson(std::ostream &out,
                          const std::string &manifest_json,
                          const std::string &prefetcher) const
{
    out << std::setprecision(12);
    out << "{\"schema\":\"csp-mem-v1\"";
    if (!manifest_json.empty())
        out << ",\"manifest\":" << manifest_json;
    out << ",\"prefetcher\":\"" << prefetcher << '"';
    out << ",\"mem\":{\"interval\":" << options_.queue_sample_every
        << ",\"accesses\":" << accesses_ << ',';
    writeLevelJson(out, "l1", l1_, l1_sets_);
    out << ',';
    writeLevelJson(out, "l2", l2_, l2_sets_);

    // Top demand PCs by L1 misses (ties by accesses, then PC).
    std::vector<std::pair<Addr, const PcStats *>> pcs;
    pcs.reserve(pcs_.size());
    for (const auto &entry : pcs_)
        pcs.emplace_back(entry.first, &entry.second);
    std::sort(pcs.begin(), pcs.end(),
              [](const auto &a, const auto &b) {
                  if (a.second->l1_misses != b.second->l1_misses)
                      return a.second->l1_misses > b.second->l1_misses;
                  if (a.second->accesses != b.second->accesses)
                      return a.second->accesses > b.second->accesses;
                  return a.first < b.first;
              });
    out << ",\"pc\":[";
    const std::size_t top_pcs =
        std::min<std::size_t>(options_.top_pcs, pcs.size());
    for (std::size_t i = 0; i < top_pcs; ++i) {
        const PcStats &s = *pcs[i].second;
        out << (i == 0 ? "" : ",") << "{\"pc\":\""
            << hexAddr(pcs[i].first)
            << "\",\"accesses\":" << s.accesses
            << ",\"l1_misses\":" << s.l1_misses
            << ",\"l2_misses\":" << s.l2_misses << ",\"reuse\":";
        writeHistJson(out, s.reuse);
        out << '}';
    }
    out << "],\"pc_tracked\":" << pcs_.size()
        << ",\"pc_other_accesses\":" << other_pcs_.accesses;

    // Pollution attribution pairs, hottest first.
    std::vector<std::pair<PairKey, std::uint64_t>> pairs(pairs_.begin(),
                                                         pairs_.end());
    std::sort(pairs.begin(), pairs.end(),
              [](const auto &a, const auto &b) {
                  if (a.second != b.second)
                      return a.second > b.second;
                  if (a.first.level != b.first.level)
                      return a.first.level < b.first.level;
                  if (a.first.issuer != b.first.issuer)
                      return a.first.issuer < b.first.issuer;
                  return a.first.demand < b.first.demand;
              });
    out << ",\"pollution\":{\"l1\":{\"attributed\":"
        << pollution_attributed_[0]
        << ",\"unattributed\":" << pollution_unattributed_[0]
        << "},\"l2\":{\"attributed\":" << pollution_attributed_[1]
        << ",\"unattributed\":" << pollution_unattributed_[1]
        << "},\"pairs_overflow\":" << pairs_overflow_
        << ",\"pairs\":[";
    const std::size_t top_pairs =
        std::min<std::size_t>(options_.top_pairs, pairs.size());
    for (std::size_t i = 0; i < top_pairs; ++i) {
        out << (i == 0 ? "" : ",")
            << "{\"level\":" << static_cast<unsigned>(pairs[i].first.level)
            << ",\"issuer_pc\":\"" << hexAddr(pairs[i].first.issuer)
            << "\",\"demand_pc\":\"" << hexAddr(pairs[i].first.demand)
            << "\",\"count\":" << pairs[i].second << '}';
    }
    out << "]}";

    out << ",\"shadow\":{\"compactions\":"
        << l1_.compactions() + l2_.compactions()
        << ",\"l1_live_lines\":" << l1_.stack_.liveLines()
        << ",\"l2_live_lines\":" << l2_.stack_.liveLines() << '}';

    out << ",\"timeline\":[";
    for (std::size_t i = 0; i < timeline_.size(); ++i) {
        const MemQueueSample &s = timeline_[i];
        out << (i == 0 ? "" : ",") << "{\"access\":" << s.accesses
            << ",\"cycle\":" << s.cycle
            << ",\"l1_mshr\":" << s.l1_mshr_busy
            << ",\"l2_mshr\":" << s.l2_mshr_busy
            << ",\"dram_backlog\":" << s.dram_backlog << '}';
    }
    out << "]}}\n";
}

} // namespace csp::obs
