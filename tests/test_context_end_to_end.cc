/** @file End-to-end learning tests for the context-based prefetcher. */

#include <gtest/gtest.h>

#include <vector>

#include "prefetch/context/context_prefetcher.h"
#include "trace/hw_state.h"

namespace csp::prefetch::ctx {
namespace {

/**
 * Drives the prefetcher with a synthetic access stream and counts how
 * many of its real predictions were later demanded in the positive
 * reward window — a self-contained proxy for coverage.
 */
class StreamDriver
{
  public:
    explicit StreamDriver(ContextPrefetcher &pf) : pf_(pf) {}

    void
    access(Addr pc, Addr vaddr, const hints::Hint &hint = {},
           std::uint64_t loaded = 0, bool dep = false)
    {
        trace::TraceRecord rec;
        rec.kind = trace::InstKind::Load;
        rec.pc = pc;
        rec.vaddr = vaddr;
        rec.hint = hint;
        rec.loaded_value = loaded;
        rec.dep_on_prev_load = dep;
        const trace::ContextSnapshot ctx = hw_.capture(rec);
        AccessInfo info;
        info.seq = seq_;
        info.pc = pc;
        info.vaddr = vaddr;
        info.line_addr = alignDown(vaddr, 64);
        info.free_l1_mshrs = 4;
        info.context = &ctx;
        out_.clear();
        pf_.observe(info, out_);
        for (const PrefetchRequest &req : out_) {
            if (!req.shadow)
                real_.push_back({req.addr, seq_});
        }
        // Score outstanding real predictions against this access.
        for (auto &pending : real_) {
            if (!pending.done &&
                pending.addr == alignDown(vaddr, 64)) {
                pending.done = true;
                const auto depth =
                    static_cast<unsigned>(seq_ - pending.seq);
                if (depth >= 18 && depth <= 50)
                    ++useful_;
            }
        }
        hw_.update(rec);
        ++seq_;
    }

    std::uint64_t usefulReals() const { return useful_; }
    std::uint64_t totalReals() const { return real_.size(); }

  private:
    struct Pending
    {
        Addr addr;
        AccessSeq seq;
        bool done = false;
    };

    ContextPrefetcher &pf_;
    trace::HwContextTracker hw_;
    AccessSeq seq_ = 0;
    std::vector<PrefetchRequest> out_;
    std::vector<Pending> real_;
    std::uint64_t useful_ = 0;
};

TEST(ContextEndToEnd, LearnsStridedStream)
{
    ContextPrefetcherConfig config;
    ContextPrefetcher pf(config, 1);
    StreamDriver driver(pf);
    for (int i = 0; i < 20000; ++i)
        driver.access(0x400, 0x100000 + i * 64);
    EXPECT_GT(pf.stats().real_predictions, 1000u);
    EXPECT_GT(driver.usefulReals(), driver.totalReals() / 2);
    EXPECT_GT(pf.policy().accuracy(), 0.5);
}

TEST(ContextEndToEnd, LearnsRecurringScatteredTraversal)
{
    // A fixed pseudo-random traversal over 256 blocks, repeated: no
    // spatial regularity, pure semantic recurrence.
    ContextPrefetcherConfig config;
    ContextPrefetcher pf(config, 1);
    StreamDriver driver(pf);
    std::vector<Addr> path;
    Rng rng(9);
    for (int i = 0; i < 256; ++i)
        path.push_back(0x100000 + rng.below(120) * 64);
    const hints::Hint hint{1, 0, hints::RefForm::Arrow};
    for (int rep = 0; rep < 80; ++rep) {
        for (std::size_t i = 0; i < path.size(); ++i) {
            const Addr next = path[(i + 1) % path.size()];
            driver.access(0x400, path[i], hint, next, true);
        }
    }
    EXPECT_GT(pf.policy().accuracy(), 0.3);
    EXPECT_GT(driver.usefulReals(), 1000u);
}

TEST(ContextEndToEnd, RandomStreamStaysThrottled)
{
    // Unlearnable noise: accuracy stays on the floor, so the degree
    // throttle pins the prefetcher at one candidate per access (the
    // paper's dispatch policy relies on the memory system to refuse
    // the rest under pressure).
    ContextPrefetcherConfig config;
    ContextPrefetcher pf(config, 1);
    StreamDriver driver(pf);
    Rng rng(5);
    for (int i = 0; i < 30000; ++i)
        driver.access(0x400, 0x100000 + rng.below(1 << 22));
    EXPECT_LT(pf.policy().accuracy(), 0.1);
    EXPECT_LE(pf.stats().real_predictions, pf.stats().lookups);
}

TEST(ContextEndToEnd, ConservativeThresholdSilencesRandomStream)
{
    // With the conservative dispatch threshold, unvetted links never
    // dispatch at all on pure noise.
    ContextPrefetcherConfig config;
    config.real_score_threshold = 6;
    ContextPrefetcher pf(config, 1);
    StreamDriver driver(pf);
    Rng rng(5);
    for (int i = 0; i < 30000; ++i)
        driver.access(0x400, 0x100000 + rng.below(1 << 22));
    EXPECT_LT(pf.stats().real_predictions,
              pf.stats().lookups / 5);
}

TEST(ContextEndToEnd, ShadowPrefetchesPrecedeRealOnes)
{
    // With a conservative dispatch threshold, cold links explore as
    // shadows first; promotions need rewards.
    ContextPrefetcherConfig config;
    config.real_score_threshold = 6;
    ContextPrefetcher pf(config, 1);
    StreamDriver driver(pf);
    for (int i = 0; i < 40; ++i)
        driver.access(0x400, 0x100000 + i * 64);
    EXPECT_GT(pf.stats().shadow_predictions, 0u);
    EXPECT_EQ(pf.stats().real_predictions, 0u);
}

TEST(ContextEndToEnd, HitDepthsConcentrateInWindow)
{
    ContextPrefetcherConfig config;
    ContextPrefetcher pf(config, 1);
    StreamDriver driver(pf);
    for (int i = 0; i < 20000; ++i)
        driver.access(0x400, 0x100000 + i * 64);
    const Histogram *depths = pf.hitDepths();
    ASSERT_NE(depths, nullptr);
    ASSERT_GT(depths->count(), 100u);
    // The mass below the window start must be a minority.
    EXPECT_LT(depths->cdfAt(17), 0.5);
}

TEST(ContextEndToEnd, DeltaOverflowsAreCounted)
{
    ContextPrefetcherConfig config;
    ContextPrefetcher pf(config, 1);
    StreamDriver driver(pf);
    Rng rng(5);
    // Jumps of many MB: none fit the 1-byte delta encoding.
    for (int i = 0; i < 2000; ++i)
        driver.access(0x400, 0x100000 + rng.below(1024) * (1 << 20));
    EXPECT_GT(pf.stats().delta_overflows, 0u);
    EXPECT_EQ(pf.stats().associations, 0u);
}

TEST(ContextEndToEnd, FinishFlushesPrefetchQueue)
{
    ContextPrefetcherConfig config;
    ContextPrefetcher pf(config, 1);
    StreamDriver driver(pf);
    for (int i = 0; i < 500; ++i)
        driver.access(0x400, 0x100000 + i * 64);
    const std::uint64_t before = pf.stats().pq_expiries;
    pf.finish();
    EXPECT_GT(pf.stats().pq_expiries, before);
}

TEST(ContextEndToEnd, DisablingExplorationStopsShadowExploration)
{
    ContextPrefetcherConfig config;
    config.exploration = false;
    ContextPrefetcher pf(config, 1);
    StreamDriver driver(pf);
    for (int i = 0; i < 5000; ++i)
        driver.access(0x400, 0x100000 + i * 64);
    EXPECT_EQ(pf.stats().explorations, 0u);
}

TEST(ContextEndToEnd, OverloadEventsFireOnDiversePatterns)
{
    ContextPrefetcherConfig config;
    ContextPrefetcher pf(config, 1);
    StreamDriver driver(pf);
    Rng rng(3);
    // One IP, many interleaved strided walks: a single reduced context
    // accumulates far more candidate deltas than it can hold.
    for (int i = 0; i < 20000; ++i) {
        const Addr base = 0x100000 + rng.below(16) * 0x40000;
        driver.access(0x400, base + (i % 64) * 64);
    }
    EXPECT_GT(pf.stats().overload_events, 0u);
}

} // namespace
} // namespace csp::prefetch::ctx
