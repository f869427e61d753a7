/**
 * @file
 * Configuration structures. Default values reproduce Table 2 of the
 * paper (simulator parameters, context prefetcher sizing, competing
 * prefetcher sizing).
 */

#ifndef CSP_CORE_CONFIG_H
#define CSP_CORE_CONFIG_H

#include <cstdint>
#include <string>

#include "core/types.h"

namespace csp {

/** Out-of-order core model parameters (paper Table 2, top block). */
struct CoreConfig
{
    unsigned fetch_width = 4;     ///< instructions fetched/decoded per cycle
    unsigned retire_width = 4;    ///< instructions retired per cycle
    unsigned rob_entries = 192;   ///< reorder-buffer capacity
    unsigned iq_entries = 64;     ///< issue-queue capacity
    unsigned prf_entries = 256;   ///< physical register file (informational)
    unsigned lq_entries = 32;     ///< load-queue capacity
    unsigned sq_entries = 32;     ///< store-queue capacity
};

/** One cache level. */
struct CacheConfig
{
    std::uint64_t size_bytes = 0;
    unsigned ways = 1;
    unsigned line_bytes = 64;
    Cycle access_latency = 1; ///< hit latency in cycles
    unsigned mshrs = 4;       ///< outstanding-miss registers

    /** Number of sets implied by size/ways/line. */
    std::uint64_t sets() const { return size_bytes / (ways * line_bytes); }
};

/** Two-level hierarchy plus memory (paper Table 2). */
struct MemoryConfig
{
    CacheConfig l1d{64 * 1024, 8, 64, 2, 4};
    CacheConfig l2{2 * 1024 * 1024, 16, 64, 20, 20};
    Cycle dram_latency = 300;
    /**
     * Minimum spacing between DRAM access starts (bandwidth model):
     * one 64-byte line per interval. Wasteful prefetchers pay for
     * their floods in everyone's fill latency.
     */
    Cycle dram_issue_interval = 16;
    /**
     * A prefetch is dropped (converted to a shadow operation) when no
     * L2 MSHR frees up within this many cycles — the "memory system is
     * stressed" back-off of paper section 4.2. Sized to the target
     * prefetch distance (~30 accesses) at miss-bound pacing.
     */
    Cycle prefetch_mshr_wait_limit = 2400;
    /**
     * L2 MSHRs kept in reserve for demand traffic: a prefetch is
     * dropped unless more than this many slots free up within the wait
     * limit, so inaccurate prefetchers cannot starve demand fills.
     */
    unsigned l2_mshr_reserve = 4;

    /**
     * Average L1 miss penalty (cycles) for a given observed L2 miss rate,
     * as defined in paper section 4.3:
     *   L1 miss penalty = L2 latency + L2 miss rate * DRAM latency.
     */
    double
    l1MissPenalty(double l2_miss_rate) const
    {
        return static_cast<double>(l2.access_latency) +
               l2_miss_rate * static_cast<double>(dram_latency);
    }
};

/** Reward-function shape (paper section 4.3 / Figure 5). */
struct RewardConfig
{
    unsigned window_lo = 18;    ///< first depth with positive reward
    unsigned window_hi = 50;    ///< last depth with positive reward
    unsigned window_center = 30;///< bell peak (average target distance)
    int peak_reward = 8;        ///< reward at the bell's peak
    int late_penalty = -4;      ///< reward for depth < window_lo (too late)
    int early_penalty = -2;     ///< reward for depth > window_hi (too early)
    int expiry_penalty = -2;    ///< reward for entries that expire unhit
};

/** Context-based prefetcher structures (paper Table 2, middle block). */
struct ContextPrefetcherConfig
{
    unsigned cst_entries = 2048;     ///< direct-mapped CST entries
    unsigned cst_links = 4;          ///< (delta, score) pairs per entry
    unsigned reducer_entries = 16384;///< direct-mapped reducer entries
    unsigned history_entries = 50;   ///< history-queue depth
    unsigned prefetch_queue_entries = 128;
    unsigned block_bytes = 64;       ///< prediction granularity
    unsigned full_hash_bits = 16;    ///< full-context hash width
    unsigned reduced_hash_bits = 19; ///< reduced-context hash width
    unsigned cst_tag_bits = 8;
    unsigned max_degree = 4;         ///< max prefetches per lookup
    /**
     * Minimum link score before a prediction is dispatched as a real
     * prefetch; colder links are tracked as shadow operations. The
     * paper dispatches the top-scoring candidate outright (threshold
     * 0); raising this trades coverage for fewer wasted prefetches on
     * adversarial streams (see bench/ablation_context).
     */
    int real_score_threshold = 0;
    double epsilon_max = 0.10;       ///< exploration rate ceiling
    double epsilon_min = 0.01;       ///< exploration rate floor
    /**
     * Exploration draw policy. The paper uses uniform epsilon-greedy
     * draws; softmax selection (weighted by link score) implements the
     * policy-search direction its conclusion proposes (section 8).
     */
    bool softmax_exploration = false;
    double softmax_temperature = 8.0;
    unsigned overload_threshold = 48;  ///< reducer entries per CST entry
    unsigned underload_threshold = 1;  ///< merge point for reduction
    unsigned min_free_mshrs = 1;     ///< below this, prefetches go shadow
    RewardConfig reward;
    // Ablation toggles (DESIGN.md section 4); the paper has all on.
    bool adaptive_reducer = true; ///< Reducer overload/underload on
    bool exploration = true;      ///< epsilon-greedy shadow prefetches
    bool software_hints = true;   ///< use compiler-hint attributes
    bool negative_rewards = true; ///< penalties outside the window

    /** Storage estimate in bytes (paper: ~31kB total). */
    std::uint64_t storageBytes() const;
};

/** GHB configuration (paper Table 2, bottom block). */
struct GhbConfig
{
    unsigned ghb_entries = 2048;  ///< global history buffer size
    unsigned index_entries = 512; ///< index table size
    unsigned history_length = 3;  ///< delta-correlation key length
    unsigned degree = 3;          ///< prefetch degree
};

/** SMS configuration (paper Table 2, bottom block). */
struct SmsConfig
{
    unsigned pht_entries = 2048; ///< pattern history table
    unsigned agt_entries = 32;   ///< active generation table
    unsigned filter_entries = 32;///< filter table
    std::uint64_t region_bytes = 2048;
    unsigned line_bytes = 64;
};

/** Stride prefetcher configuration. */
struct StrideConfig
{
    unsigned table_entries = 512;
    unsigned degree = 2;
    unsigned confidence_threshold = 2;
};

/** Whole-system configuration. */
struct SystemConfig
{
    CoreConfig core;
    MemoryConfig memory;
    ContextPrefetcherConfig context;
    GhbConfig ghb;
    SmsConfig sms;
    StrideConfig stride;
    std::uint64_t seed = 1;

    /** Render the configuration as a human-readable table (Table 2). */
    std::string describe() const;

  private:
    std::string dramLatencyLabel() const;
};

} // namespace csp

#endif // CSP_CORE_CONFIG_H
