#include "mem/hierarchy.h"

#include <algorithm>

#include "core/stats_registry.h"
#include "obs/lifecycle.h"
#include "obs/mem_observer.h"

namespace csp::mem {

namespace {

/** Build the fill notification for one cache insert. */
obs::MemFillEvent
fillEvent(std::uint8_t level, std::uint64_t set, Addr line_addr,
          Addr pc, bool is_prefetch, const EvictInfo &evicted)
{
    obs::MemFillEvent event;
    event.level = level;
    event.set = set;
    event.line_addr = line_addr;
    event.pc = pc;
    event.is_prefetch = is_prefetch;
    event.victim_valid = evicted.valid;
    event.victim_addr = evicted.line_addr;
    return event;
}

} // namespace

Hierarchy::Hierarchy(const MemoryConfig &config)
    : config_(config),
      l1_(config.l1d, "L1D"),
      l2_(config.l2, "L2"),
      l1_mshrs_(config.l1d.mshrs),
      l2_mshrs_(config.l2.mshrs)
{}

Cycle
Hierarchy::fillFromBelow(Addr addr, Cycle start, bool is_prefetch,
                         Addr pc, bool *went_to_memory,
                         bool *served_by_l2_prefetch, bool l2_probed,
                         LineState *l2_probe, LineState **l2_line_out)
{
    *went_to_memory = false;
    if (served_by_l2_prefetch != nullptr)
        *served_by_l2_prefetch = false;
    const Cycle l2_lat = config_.l2.access_latency;
    LineState *line =
        l2_probed ? l2_probe : l2_.lookup(addr, /*touch=*/false);
    if (line != nullptr) {
        // A hit refreshes LRU exactly as the touching lookup used to.
        l2_.touch(*line);
        if (l2_line_out != nullptr)
            *l2_line_out = line;
        if (served_by_l2_prefetch != nullptr) {
            *served_by_l2_prefetch =
                !is_prefetch && line->prefetched && !line->used;
        }
        // A demand touching an unused prefetched L2 line is that
        // lifecycle's terminal event: Timely when the fill completed,
        // Late when the demand merged with it in flight.
        if (tracker_ != nullptr && !is_prefetch && line->prefetched &&
            !line->used) {
            tracker_->onDemandUse(addr, pc, start,
                                  /*ready=*/line->ready <= start);
        }
        line->used = line->used || !is_prefetch;
        if (line->ready <= start)
            return start + l2_lat;
        // In-flight at L2: data arrives when the older fill completes
        // (plus the L2 read it still needs).
        return std::max(line->ready, start) + l2_lat;
    }
    // L2 miss: take an L2 MSHR, then a DRAM issue slot (bandwidth).
    const Cycle slot = l2_mshrs_.availableAt(start);
    const Cycle dram_start =
        std::max(slot + l2_lat, dram_next_free_);
    dram_next_free_ = dram_start + config_.dram_issue_interval;
    const Cycle fill = dram_start + config_.dram_latency;
    l2_mshrs_.allocate(slot, fill);
    fill_latency_.sample(fill - start);
    LineState &inserted = fillLine(2, addr, fill, is_prefetch, pc, start);
    if (l2_line_out != nullptr)
        *l2_line_out = &inserted;
    *went_to_memory = true;
    return fill;
}

AccessResult
Hierarchy::access(Addr addr, Cycle now, bool is_store, Addr pc)
{
    AccessResult result;
    const Addr line_addr = l1_.lineAddr(addr);
    const Cycle l1_lat = config_.l1d.access_latency;
    ++stats_.demand_accesses;
    now_ = now;
    obs::MemAccessEvent demand_event;
    if (mem_obs_ != nullptr) {
        demand_event.line_addr = line_addr;
        demand_event.pc = pc;
        demand_event.cycle = now;
        demand_event.is_store = is_store;
    }

    if (LineState *line = l1_.lookup(line_addr)) {
        if (line->ready <= now) {
            // Ready L1 hit.
            result.complete = now + l1_lat;
            result.level = ServiceLevel::L1;
            result.hit_prefetched_line = line->prefetched && !line->used;
            if (tracker_ != nullptr && result.hit_prefetched_line)
                tracker_->onDemandUse(line_addr, pc, now, /*ready=*/true);
            line->used = true;
            line->dirty = line->dirty || is_store;
            if (mem_obs_ != nullptr) {
                demand_event.kind = obs::MemAccessKind::L1Hit;
                mem_obs_->onDemandAccess(demand_event);
            }
            return result;
        }
        // Line still filling: the access waits only for the remainder.
        result.complete = std::max(line->ready, now + l1_lat);
        result.level = ServiceLevel::L1InFlight;
        result.l1_miss = true;
        ++stats_.l1_misses;
        result.shorter_wait = line->prefetched && !line->used;
        if (tracker_ != nullptr) {
            tracker_->onDemandMiss(line_addr, pc, now,
                                   /*to_memory=*/false);
            if (result.shorter_wait)
                tracker_->onDemandUse(line_addr, pc, now,
                                      /*ready=*/false);
        }
        line->used = true;
        line->dirty = line->dirty || is_store;
        if (mem_obs_ != nullptr) {
            demand_event.kind = obs::MemAccessKind::L1InFlight;
            mem_obs_->onDemandAccess(demand_event);
        }
        return result;
    }

    // Full L1 miss: wait for an MSHR, then look below.
    result.l1_miss = true;
    ++stats_.l1_misses;
    const Cycle slot = l1_mshrs_.availableAt(now);
    const Cycle start = slot + l1_lat;
    bool went_to_memory = false;
    bool served_by_l2_prefetch = false;
    const Cycle fill = fillFromBelow(line_addr, start, false, pc,
                                     &went_to_memory,
                                     &served_by_l2_prefetch);
    if (went_to_memory) {
        result.l2_miss = true;
        ++stats_.l2_demand_misses;
        result.level = ServiceLevel::Memory;
    } else {
        result.level = ServiceLevel::L2;
        result.shorter_wait = served_by_l2_prefetch;
    }
    if (tracker_ != nullptr)
        tracker_->onDemandMiss(line_addr, pc, now, went_to_memory);
    l1_mshrs_.allocate(slot, fill);
    LineState &line =
        fillLine(1, line_addr, fill, /*is_prefetch=*/false, pc, now);
    line.used = true;
    line.dirty = is_store;
    result.complete = fill;
    if (mem_obs_ != nullptr) {
        demand_event.kind = went_to_memory ? obs::MemAccessKind::Memory
                                           : obs::MemAccessKind::L2Hit;
        mem_obs_->onDemandAccess(demand_event);
    }
    return result;
}

LineState &
Hierarchy::fillLine(std::uint8_t level, Addr line_addr, Cycle ready,
                    bool is_prefetch, Addr pc, Cycle now)
{
    Cache &cache = level == 1 ? l1_ : l2_;
    EvictInfo evicted;
    // Prefetch fills enter at LRU priority (LIP) at both levels: a wrong
    // prefetch must not displace a hot line in an at-capacity working
    // set.
    LineState &line = cache.insert(line_addr, ready, is_prefetch,
                                   &evicted, /*lru_insert=*/is_prefetch);
    if (mem_obs_ != nullptr) {
        mem_obs_->onFill(fillEvent(level, cache.setIndexOf(line_addr),
                                   line_addr, pc, is_prefetch, evicted));
    }
    if (evicted.prefetched_unused) {
        ++stats_.prefetch_evicted_unused;
        if (tracker_ != nullptr)
            tracker_->onEvictedUnused(evicted.line_addr, now);
    }
    if (!evicted.valid || !evicted.dirty)
        return line;
    if (level == 1) {
        // Write-back to L2: mark the L2 copy dirty.
        ++stats_.l1_writebacks;
        if (LineState *l2line = l2_.lookup(evicted.line_addr, false)) {
            l2line->dirty = true;
            return line;
        }
        // Non-inclusive L2 already lost the line: the dirty data goes
        // straight to DRAM, costing write bandwidth like an L2
        // writeback.
    }
    // Dirty data leaves the chip: one DRAM write's worth of bandwidth.
    ++stats_.l2_writebacks;
    dram_next_free_ += config_.dram_issue_interval;
    return line;
}

PrefetchOutcome
Hierarchy::prefetch(Addr addr, Cycle now, unsigned min_free_mshrs,
                   Addr pc)
{
    const Addr line_addr = l1_.lineAddr(addr);
    now_ = now;
    if (l1_.lookup(line_addr, false) != nullptr) {
        ++stats_.prefetches_duplicate;
        if (tracker_ != nullptr)
            tracker_->onRedundant(line_addr, pc, now);
        return PrefetchOutcome::AlreadyHere;
    }

    // The prefetch always targets L2 (like gem5's queued prefetcher it
    // is not starved out by demand traffic at L1), and additionally
    // fills L1 when MSHR headroom exists; otherwise the demand that
    // comes later still sees a cheap L2 hit.
    LineState *const l2_probe = l2_.lookup(line_addr, false);
    const bool l2_has = l2_probe != nullptr;
    if (!l2_has &&
        l2_mshrs_.freeWithin(now, config_.prefetch_mshr_wait_limit) <=
            config_.l2_mshr_reserve) {
        ++stats_.prefetches_dropped;
        if (tracker_ != nullptr)
            tracker_->onDropped(line_addr, pc, now);
        return PrefetchOutcome::NoMshr;
    }
    const Cycle start = now + config_.l1d.access_latency;
    bool went_to_memory = false;
    LineState *l2_line = nullptr;
    const Cycle fill =
        fillFromBelow(line_addr, start, true, pc, &went_to_memory,
                      nullptr, /*l2_probed=*/true, l2_probe, &l2_line);
    ++stats_.prefetches_issued;

    const unsigned free =
        l1_mshrs_.freeWithin(now, config_.dram_latency);
    const bool fill_l1 = free > min_free_mshrs;
    if (fill_l1) {
        l1_mshrs_.allocate(now, fill);
        fillLine(1, line_addr, fill, /*is_prefetch=*/true, pc, now);
        // The L1 copy carries the usefulness tracking from here on.
        if (l2_line != nullptr)
            l2_line->used = true;
    }
    if (tracker_ != nullptr) {
        // An L2-resident target that could not take an L1 fill moved no
        // data at all — the lifecycle is redundant even though the
        // aggregate counter still reports an issue.
        if (fill_l1 || !l2_has) {
            tracker_->onIssued(line_addr, pc, now, fill, fill_l1,
                               went_to_memory);
        } else {
            tracker_->onRedundant(line_addr, pc, now);
        }
    }
    return PrefetchOutcome::Issued;
}

obs::QueueSample
Hierarchy::queueSample(Cycle now) const
{
    obs::QueueSample sample;
    sample.l1_mshr_busy = l1_mshrs_.slots() - l1_mshrs_.freeAt(now);
    sample.l2_mshr_busy = l2_mshrs_.slots() - l2_mshrs_.freeAt(now);
    sample.dram_backlog =
        dram_next_free_ > now ? dram_next_free_ - now : 0;
    return sample;
}

unsigned
Hierarchy::freeL1Mshrs(Cycle now) const
{
    return l1_mshrs_.freeWithin(now, config_.dram_latency);
}

void
Hierarchy::finish()
{
    stats_.prefetch_unused_at_end =
        l1_.countUnusedPrefetches() + l2_.countUnusedPrefetches();
}

void
Hierarchy::registerStats(stats::Registry &registry) const
{
    registry.counter("mem.l1.demand_accesses", &stats_.demand_accesses,
                     "demand loads and stores seen by L1D");
    registry.counter("mem.l1.misses", &stats_.l1_misses,
                     "L1D misses, including in-flight (MSHR) hits");
    registry.counter("mem.l1.writebacks", &stats_.l1_writebacks,
                     "dirty L1 lines pushed to L2");
    registry.formula("mem.l1.miss_rate", "mem.l1.misses",
                     "mem.l1.demand_accesses", 1.0,
                     "L1D miss rate over demand accesses");
    registry.counter("mem.l2.demand_misses", &stats_.l2_demand_misses,
                     "demand requests that reached DRAM");
    registry.counter("mem.l2.writebacks", &stats_.l2_writebacks,
                     "dirty L2 lines written to DRAM");
    registry.formula("mem.l2.miss_rate", "mem.l2.demand_misses",
                     "mem.l1.misses", 1.0,
                     "demand L2 miss rate relative to L1 misses");
    registry.counter("mem.prefetch.issued", &stats_.prefetches_issued,
                     "prefetch requests dispatched to the hierarchy");
    registry.counter("mem.prefetch.duplicate",
                     &stats_.prefetches_duplicate,
                     "prefetches elided: line already present");
    registry.counter("mem.prefetch.dropped", &stats_.prefetches_dropped,
                     "prefetches dropped under MSHR pressure");
    registry.counter("mem.prefetch.evicted_unused",
                     &stats_.prefetch_evicted_unused,
                     "prefetched lines evicted before any demand use");
    registry.counter("mem.prefetch.unused_at_end",
                     &stats_.prefetch_unused_at_end,
                     "prefetched lines never used by end of run");
    registry.counter(
        "mem.prefetch.never_hit",
        [this] { return stats_.prefetchesNeverHit(); },
        "issued prefetches that never served a demand access");
    registry.counter("mem.mshr.l1_allocations",
                     &l1_mshrs_.allocations(),
                     "fills booked into L1 MSHRs");
    registry.counter("mem.mshr.l1_busy_cycles", &l1_mshrs_.busyCycles(),
                     "summed L1 MSHR slot-busy cycles");
    registry.counter("mem.mshr.l2_allocations",
                     &l2_mshrs_.allocations(),
                     "fills booked into L2 MSHRs");
    registry.counter("mem.mshr.l2_busy_cycles", &l2_mshrs_.busyCycles(),
                     "summed L2 MSHR slot-busy cycles");
    registry.gauge(
        "mem.l1.mshr_occupancy",
        [this] {
            return static_cast<double>(l1_mshrs_.slots() -
                                       l1_mshrs_.freeAt(now_));
        },
        "L1 MSHR slots busy at the last access cycle");
    registry.gauge(
        "mem.l2.mshr_occupancy",
        [this] {
            return static_cast<double>(l2_mshrs_.slots() -
                                       l2_mshrs_.freeAt(now_));
        },
        "L2 MSHR slots busy at the last access cycle");
    registry.gauge(
        "prefetch.inflight",
        [this] {
            return static_cast<double>(
                l1_.countInflightPrefetches(now_) +
                l2_.countInflightPrefetches(now_));
        },
        "prefetched lines whose fill has not yet completed");
    registry.distribution("mem.fill_latency", &fill_latency_,
                          "request-to-data cycles per DRAM fill");
}

} // namespace csp::mem
