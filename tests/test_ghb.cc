/** @file Unit tests for the GHB delta-correlation prefetcher. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/hashing.h"
#include "core/rng.h"
#include "prefetch/ghb.h"
#include "trace/context.h"
#include "trace_util.h"
#include "workloads/registry.h"

namespace csp::prefetch {
namespace {

/**
 * Reference GHB: the straightforward formulation the single-pass walk
 * must reproduce. It rebuilds the key's whole chain (up to 64 lines,
 * cut at stale links), reverses it to oldest first, materialises the
 * delta vector, then searches backwards from the newest candidate for
 * the most recent earlier occurrence of the last history_length - 1
 * deltas.
 */
class ReferenceGhb
{
  public:
    ReferenceGhb(const GhbConfig &config, GhbFlavor flavor)
        : config_(config), flavor_(flavor), buffer_(config.ghb_entries),
          index_(config.index_entries)
    {}

    void
    observe(const AccessInfo &info, std::vector<PrefetchRequest> &out)
    {
        if (!info.l1_miss && !info.hit_prefetched_line)
            return;
        const Addr key = flavor_ == GhbFlavor::GlobalDC ? 0 : info.pc;
        Index &idx = index_[mix64(key) % index_.size()];
        std::uint64_t prev_head = kNoLink;
        if (idx.valid && idx.key_tag == key)
            prev_head = idx.head;
        const std::uint64_t pos = next_pos_++;
        buffer_[pos % buffer_.size()] = Entry{info.line_addr, prev_head};
        idx = Index{key, true, pos};

        std::vector<Addr> stream;
        for (std::uint64_t p = pos; p != kNoLink && stream.size() < 64;) {
            if (next_pos_ - p > buffer_.size())
                break;
            const Entry &entry = buffer_[p % buffer_.size()];
            stream.push_back(entry.line);
            if (entry.prev != kNoLink && entry.prev >= p)
                break;
            p = entry.prev;
        }
        std::reverse(stream.begin(), stream.end());
        const std::size_t hist = config_.history_length;
        if (stream.size() < hist + 1)
            return;
        std::vector<std::int64_t> deltas;
        for (std::size_t i = 1; i < stream.size(); ++i)
            deltas.push_back(blockDelta(stream[i - 1], stream[i], 64));
        const std::size_t d = deltas.size();
        const std::size_t plen = hist - 1;
        for (std::size_t j = d - 2;; --j) {
            bool match = true;
            for (std::size_t k = 0; k < plen; ++k)
                match = match && deltas[j - k] == deltas[d - 1 - k];
            if (match) {
                Addr target = info.line_addr;
                unsigned replayed = 0;
                for (std::size_t k = j + 1;
                     k < d && replayed < config_.degree;
                     ++k, ++replayed) {
                    target += static_cast<Addr>(deltas[k]) * 64;
                    if (target != info.line_addr)
                        out.push_back({target, false, info.pc});
                }
                return;
            }
            if (j == plen - 1)
                break;
        }
    }

  private:
    struct Entry
    {
        Addr line = 0;
        std::uint64_t prev = kNoLink;
    };
    struct Index
    {
        Addr key_tag = 0;
        bool valid = false;
        std::uint64_t head = kNoLink;
    };
    static constexpr std::uint64_t kNoLink = ~0ull;

    GhbConfig config_;
    GhbFlavor flavor_;
    std::vector<Entry> buffer_;
    std::vector<Index> index_;
    std::uint64_t next_pos_ = 0;
};

/** Feeds one access to both implementations and compares their request
 *  vectors; counts mismatching events and events that predicted
 *  anything. */
class Differential
{
  public:
    Differential(const GhbConfig &config, GhbFlavor flavor)
        : fast_(config, flavor), reference_(config, flavor)
    {}

    void
    feed(const AccessInfo &info)
    {
        fast_out_.clear();
        reference_out_.clear();
        fast_.observe(info, fast_out_);
        reference_.observe(info, reference_out_);
        ++events;
        predicted += !reference_out_.empty();
        const bool same = std::equal(
            fast_out_.begin(), fast_out_.end(), reference_out_.begin(),
            reference_out_.end(),
            [](const PrefetchRequest &a, const PrefetchRequest &b) {
                return a.addr == b.addr && a.shadow == b.shadow &&
                       a.pc == b.pc;
            });
        if (!same && mismatches++ == 0)
            ADD_FAILURE() << "request vectors differ at event " << events;
    }

    std::uint64_t events = 0;
    std::uint64_t predicted = 0;
    std::uint64_t mismatches = 0;

  private:
    GhbPrefetcher fast_;
    ReferenceGhb reference_;
    std::vector<PrefetchRequest> fast_out_;
    std::vector<PrefetchRequest> reference_out_;
};

/**
 * Randomized miss stream: each PC walks its own short repeating delta
 * pattern, with occasional noise deltas and far jumps, so patterns both
 * recur and break. A tenth of the accesses hit a prefetched line and a
 * tenth are plain hits (which neither implementation trains on).
 */
void
runRandomized(GhbFlavor flavor, unsigned history, unsigned degree,
              unsigned pcs, std::uint64_t seed)
{
    GhbConfig config;
    config.history_length = history;
    config.degree = degree;
    Differential diff(config, flavor);
    Rng rng(seed);
    struct PcStream
    {
        Addr line;
        std::vector<std::int64_t> pattern;
        std::size_t at = 0;
    };
    std::vector<PcStream> streams(pcs);
    for (PcStream &s : streams) {
        s.line = rng.below(1u << 20) * 64;
        s.pattern.resize(1 + rng.below(4));
        for (std::int64_t &delta : s.pattern)
            delta = rng.range(-3, 5);
    }
    trace::ContextSnapshot ctx;
    unsigned pc = 0;
    for (int i = 0; i < 24000; ++i) {
        // Bursts of one PC keep some global (G/DC) patterns intact.
        if (rng.chance(0.2))
            pc = static_cast<unsigned>(rng.below(pcs));
        PcStream &s = streams[pc];
        if (rng.chance(0.02))
            s.line = rng.below(1u << 20) * 64;
        else if (rng.chance(0.05))
            s.line += rng.range(-8, 8) * 64;
        else
            s.line += s.pattern[s.at++ % s.pattern.size()] * 64;
        AccessInfo info;
        info.pc = 0x400000 + pc * 4;
        info.vaddr = s.line + rng.below(64);
        info.line_addr = s.line;
        info.context = &ctx;
        const double kind = rng.uniform();
        info.l1_miss = kind < 0.8;
        info.hit_prefetched_line = kind >= 0.8 && kind < 0.9;
        diff.feed(info);
    }
    EXPECT_EQ(diff.mismatches, 0u);
    EXPECT_GT(diff.predicted, diff.events / 20);
}

TEST(GhbDifferential, RandomizedStreamsMatchReference)
{
    std::uint64_t seed = 1;
    for (GhbFlavor flavor : {GhbFlavor::GlobalDC, GhbFlavor::PcDC}) {
        for (unsigned history = 1; history <= 4; ++history) {
            for (unsigned degree = 1; degree <= 3; ++degree) {
                // 700 PCs overflow the 512-entry index, so slots
                // collide and chains restart on a tag mismatch.
                for (unsigned pcs : {4u, 40u, 700u}) {
                    SCOPED_TRACE(::testing::Message()
                                 << "flavor " << static_cast<int>(flavor)
                                 << " history " << history << " degree "
                                 << degree << " pcs " << pcs);
                    runRandomized(flavor, history, degree, pcs, seed++);
                }
            }
        }
    }
}

TEST(GhbDifferential, McfDemandStreamMatchesReference)
{
    const auto workload = workloads::Registry::builtin().create("mcf");
    const trace::TraceBuffer trace =
        workload->generate(workloads::WorkloadParams{});
    const GhbConfig config;
    Differential gdc(config, GhbFlavor::GlobalDC);
    Differential pcdc(config, GhbFlavor::PcDC);
    trace::ContextSnapshot ctx;
    for (const trace::TraceRecord &rec : decodeAll(trace)) {
        if (!rec.isMem())
            continue;
        AccessInfo info;
        info.pc = rec.pc;
        info.vaddr = rec.vaddr;
        info.line_addr = alignDown(rec.vaddr, 64);
        info.is_store = rec.kind == trace::InstKind::Store;
        info.l1_miss = true;
        info.context = &ctx;
        gdc.feed(info);
        pcdc.feed(info);
    }
    EXPECT_GT(gdc.events, 100000u);
    EXPECT_GT(pcdc.predicted, 0u);
    EXPECT_EQ(gdc.mismatches, 0u);
    EXPECT_EQ(pcdc.mismatches, 0u);
}

TEST(GhbConfigCheck, RejectsUnusableGeometry)
{
    GhbConfig config;
    config.history_length = 0;
    EXPECT_DEATH(GhbPrefetcher(config, GhbFlavor::GlobalDC), "history");
    config = GhbConfig{};
    config.ghb_entries = 2000;
    EXPECT_DEATH(GhbPrefetcher(config, GhbFlavor::GlobalDC), "buffer");
    config = GhbConfig{};
    config.index_entries = 500;
    EXPECT_DEATH(GhbPrefetcher(config, GhbFlavor::PcDC), "index");
}

class GhbTest : public ::testing::Test
{
  protected:
    AccessInfo
    missAt(Addr pc, Addr vaddr)
    {
        AccessInfo info;
        info.pc = pc;
        info.vaddr = vaddr;
        info.line_addr = alignDown(vaddr, 64);
        info.l1_miss = true;
        info.context = &ctx;
        return info;
    }

    GhbConfig config;
    trace::ContextSnapshot ctx;
    std::vector<PrefetchRequest> out;
};

TEST_F(GhbTest, GlobalDcReplaysRepeatingDeltaPattern)
{
    GhbPrefetcher pf(config, GhbFlavor::GlobalDC);
    // Delta pattern +1, +2, +3 lines repeating.
    Addr addr = 0x100000;
    const std::int64_t deltas[] = {64, 128, 192};
    for (int rep = 0; rep < 4; ++rep) {
        for (std::int64_t d : deltas) {
            out.clear();
            pf.observe(missAt(0x400, addr), out);
            addr += d;
        }
    }
    // After several repetitions the last-2-delta pattern matches an
    // earlier occurrence and replays the following deltas.
    EXPECT_FALSE(out.empty());
}

TEST_F(GhbTest, PredictionsFollowTheHistoricalDeltas)
{
    GhbPrefetcher pf(config, GhbFlavor::GlobalDC);
    Addr addr = 0x100000;
    const std::int64_t deltas[] = {64, 128, 192};
    Addr last = 0;
    for (int rep = 0; rep < 5; ++rep) {
        for (std::int64_t d : deltas) {
            out.clear();
            pf.observe(missAt(0x400, addr), out);
            last = addr;
            addr += d;
        }
    }
    ASSERT_FALSE(out.empty());
    // The first predicted address continues the recurring pattern from
    // the current address.
    bool plausible = false;
    for (const PrefetchRequest &req : out) {
        if (req.addr == last + 64 || req.addr == last + 128 ||
            req.addr == last + 192)
            plausible = true;
    }
    EXPECT_TRUE(plausible);
}

TEST_F(GhbTest, IgnoresCacheHits)
{
    GhbPrefetcher pf(config, GhbFlavor::GlobalDC);
    for (int i = 0; i < 20; ++i) {
        AccessInfo info = missAt(0x400, 0x10000 + i * 64);
        info.l1_miss = false; // hit: not part of the miss stream
        out.clear();
        pf.observe(info, out);
    }
    EXPECT_TRUE(out.empty());
}

TEST_F(GhbTest, TrainsOnPrefetchedHits)
{
    GhbPrefetcher pf(config, GhbFlavor::GlobalDC);
    for (int i = 0; i < 20; ++i) {
        AccessInfo info = missAt(0x400, 0x10000 + i * 64);
        info.l1_miss = false;
        info.hit_prefetched_line = true; // stays in the trained stream
        out.clear();
        pf.observe(info, out);
    }
    EXPECT_FALSE(out.empty());
}

TEST_F(GhbTest, PcDcSeparatesStreamsByPc)
{
    GhbPrefetcher pf(config, GhbFlavor::PcDC);
    // Two interleaved streams with different strides; interleaving
    // breaks the global deltas but PC-localisation recovers each.
    Addr a = 0x100000;
    Addr b = 0x900000;
    for (int i = 0; i < 12; ++i) {
        out.clear();
        pf.observe(missAt(0x400, a), out);
        a += 64;
        out.clear();
        pf.observe(missAt(0x800, b), out);
        b += 192;
    }
    ASSERT_FALSE(out.empty());
    // Last observation was the PC 0x800 stream: predictions should be
    // in its neighbourhood, not the other stream's.
    EXPECT_GT(out[0].addr, 0x900000u);
}

TEST_F(GhbTest, GlobalDcConfusedByInterleavingThatPcDcHandles)
{
    GhbPrefetcher gdc(config, GhbFlavor::GlobalDC);
    GhbPrefetcher pcdc(config, GhbFlavor::PcDC);
    Addr a = 0x100000;
    Addr b = 0x900000;
    std::size_t gdc_predictions = 0;
    std::size_t pcdc_predictions = 0;
    Rng rng(4);
    for (int i = 0; i < 200; ++i) {
        // Aperiodic interleave of two strided streams: the global
        // delta sequence never settles, the per-PC sequences do.
        const bool pick_a = rng.chance(0.5);
        const Addr addr = pick_a ? (a += 64) : (b += 128);
        const Addr pc = pick_a ? 0x400 : 0x800;
        out.clear();
        gdc.observe(missAt(pc, addr), out);
        gdc_predictions += out.size();
        out.clear();
        pcdc.observe(missAt(pc, addr), out);
        pcdc_predictions += out.size();
    }
    EXPECT_GT(pcdc_predictions, 0u);
    EXPECT_GE(pcdc_predictions, gdc_predictions);
}

TEST_F(GhbTest, NamesReflectFlavor)
{
    EXPECT_EQ(GhbPrefetcher(config, GhbFlavor::GlobalDC).name(),
              "ghb-gdc");
    EXPECT_EQ(GhbPrefetcher(config, GhbFlavor::PcDC).name(),
              "ghb-pcdc");
}

TEST_F(GhbTest, DegreeBoundsPredictions)
{
    config.degree = 2;
    GhbPrefetcher pf(config, GhbFlavor::GlobalDC);
    Addr addr = 0x100000;
    for (int i = 0; i < 40; ++i) {
        out.clear();
        pf.observe(missAt(0x400, addr), out);
        addr += 64;
    }
    EXPECT_LE(out.size(), 2u);
}

} // namespace
} // namespace csp::prefetch
