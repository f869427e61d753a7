/**
 * @file
 * Differential test: the packed flat-arena CST against an independent
 * reference implementation of the original chained-slot semantics.
 *
 * The flat CST (single-probe arena, packed header word, int8 delta and
 * score lanes, link-mask slot bookkeeping) was built as a
 * result-preserving replacement for the original struct-per-entry
 * table. This test replays long randomized op sequences against both
 * implementations and demands bit-for-bit identical observable
 * behaviour: insertion outcomes, replacement and victim choices,
 * bestLinks ordering, exploration draws from a shared-seed Rng, churn
 * reporting, and eviction counters.
 *
 * The reference model is deliberately naive — vectors of slot structs,
 * no bit tricks — so any divergence points at the packed
 * implementation, not at a shared abstraction.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "core/rng.h"
#include "core/types.h"
#include "prefetch/context/cst.h"

namespace csp::prefetch::ctx {
namespace {

/** The original chained-slot CST semantics, restated plainly. */
class ReferenceCst
{
  public:
    struct Slot
    {
        bool occupied = false;
        std::int32_t delta = 0;
        int score = 0;
    };

    struct Entry
    {
        bool valid = false;
        std::uint32_t tag = 0;
        unsigned churn = 0;
        std::vector<Slot> slots;
    };

    ReferenceCst(unsigned entries, unsigned links)
        : index_bits_(static_cast<unsigned>(
              std::countr_zero(static_cast<std::uint32_t>(entries)))),
          index_mask_(entries - 1),
          links_(links),
          table_(entries)
    {
        for (Entry &entry : table_)
            entry.slots.resize(links);
    }

    CstAddResult
    addLink(std::uint32_t key, std::int32_t delta)
    {
        CstAddResult result;
        Entry &entry = table_[indexOf(key)];
        const std::uint32_t tag = tagOf(key);
        if (!entry.valid || entry.tag != tag) {
            if (entry.valid) {
                // Age the conflicting entry; keep it while any link
                // still holds a positive score.
                int best = -128;
                for (Slot &slot : entry.slots) {
                    if (!slot.occupied)
                        continue;
                    best = std::max(best, slot.score);
                    slot.score = std::max(slot.score - 1, -128);
                }
                if (best > 0) {
                    result.entry_conflict = true;
                    return result;
                }
                ++entry_evictions;
            }
            entry.valid = true;
            entry.tag = tag;
            entry.churn = 0;
            for (Slot &slot : entry.slots)
                slot = Slot{};
        }

        // One ascending pass: duplicate check plus the first
        // strictly-minimal-score occupied slot (the eviction victim).
        int victim = -1;
        for (unsigned i = 0; i < links_; ++i) {
            Slot &slot = entry.slots[i];
            if (!slot.occupied)
                continue;
            if (slot.delta == delta) {
                result.already_present = true;
                result.entry_matches = true;
                result.churn = static_cast<std::uint8_t>(entry.churn);
                return result;
            }
            if (victim < 0 || slot.score <
                                  entry.slots[static_cast<unsigned>(
                                                  victim)]
                                      .score) {
                victim = static_cast<int>(i);
            }
        }

        int target = -1;
        for (unsigned i = 0; i < links_; ++i) {
            if (!entry.slots[i].occupied) {
                target = static_cast<int>(i);
                break;
            }
        }
        if (target < 0) {
            // Full: replace the weakest link only if it is not
            // positively scored; otherwise drop the candidate and
            // count churn (the overload signal).
            if (entry.slots[static_cast<unsigned>(victim)].score > 0) {
                if (entry.churn < 255)
                    ++entry.churn;
                result.entry_matches = true;
                result.churn = static_cast<std::uint8_t>(entry.churn);
                return result;
            }
            target = victim;
            result.evicted_link = true;
            ++link_evictions;
            if (entry.churn < 255)
                ++entry.churn;
        }
        entry.slots[static_cast<unsigned>(target)] = {true, delta, 0};
        result.inserted = true;
        result.entry_matches = true;
        result.churn = static_cast<std::uint8_t>(entry.churn);
        return result;
    }

    void
    reward(std::uint32_t key, std::int32_t delta, int amount)
    {
        Entry *entry = find(key);
        if (entry == nullptr)
            return;
        for (Slot &slot : entry->slots) {
            if (slot.occupied && slot.delta == delta) {
                slot.score =
                    std::clamp(slot.score + amount, -128, 127);
                if (amount > 0 && entry->churn > 0)
                    --entry->churn;
                return;
            }
        }
    }

    unsigned
    bestLinks(std::uint32_t key, std::int32_t *out, unsigned max_links,
              int min_score, int *scores_out) const
    {
        const Entry *entry = find(key);
        if (entry == nullptr)
            return 0;
        struct Candidate
        {
            std::int32_t delta;
            int score;
        };
        // Same collection order as the real table, then std::sort: at
        // up to 16 elements libstdc++ sorts by insertion, so ties in
        // score keep slot order, the order the table's own insertion
        // sort must reproduce.
        Candidate candidates[16];
        unsigned count = 0;
        for (unsigned i = 0; i < links_; ++i) {
            const Slot &slot = entry->slots[i];
            if (slot.occupied && slot.score > min_score && count < 16)
                candidates[count++] = {slot.delta, slot.score};
        }
        std::sort(candidates, candidates + count,
                  [](const Candidate &a, const Candidate &b) {
                      return a.score > b.score;
                  });
        const unsigned emit = std::min(count, max_links);
        for (unsigned i = 0; i < emit; ++i) {
            out[i] = candidates[i].delta;
            if (scores_out != nullptr)
                scores_out[i] = candidates[i].score;
        }
        return emit;
    }

    int
    bestScore(std::uint32_t key) const
    {
        const Entry &entry = table_[indexOf(key)];
        int best = -128;
        for (const Slot &slot : entry.slots) {
            if (slot.occupied)
                best = std::max(best, slot.score);
        }
        return best;
    }

    bool
    randomLink(std::uint32_t key, Rng &rng,
               std::int32_t *delta_out) const
    {
        const Entry *entry = find(key);
        if (entry == nullptr)
            return false;
        std::int32_t deltas[16];
        unsigned count = 0;
        for (unsigned i = 0; i < links_ && count < 16; ++i) {
            if (entry->slots[i].occupied)
                deltas[count++] = entry->slots[i].delta;
        }
        if (count == 0)
            return false;
        *delta_out = deltas[rng.below(count)];
        return true;
    }

    bool
    softmaxLink(std::uint32_t key, Rng &rng, double temperature,
                std::int32_t *delta_out) const
    {
        const Entry *entry = find(key);
        if (entry == nullptr)
            return false;
        double weights[16];
        std::int32_t deltas[16];
        unsigned count = 0;
        double total = 0.0;
        for (unsigned i = 0; i < links_ && count < 16; ++i) {
            const Slot &slot = entry->slots[i];
            if (!slot.occupied)
                continue;
            const double w = std::exp(
                static_cast<double>(slot.score) / temperature);
            weights[count] = w;
            deltas[count] = slot.delta;
            total += w;
            ++count;
        }
        if (count == 0)
            return false;
        double pick = rng.uniform() * total;
        for (unsigned i = 0; i < count; ++i) {
            pick -= weights[i];
            if (pick <= 0.0) {
                *delta_out = deltas[i];
                return true;
            }
        }
        *delta_out = deltas[count - 1];
        return true;
    }

    void
    clearChurn(std::uint32_t key)
    {
        if (Entry *entry = find(key))
            entry->churn = 0;
    }

    bool
    present(std::uint32_t key) const
    {
        return find(key) != nullptr;
    }

    unsigned
    liveEntries() const
    {
        unsigned live = 0;
        for (const Entry &entry : table_) {
            if (entry.valid)
                ++live;
        }
        return live;
    }

    std::uint64_t link_evictions = 0;
    std::uint64_t entry_evictions = 0;

  private:
    std::uint32_t indexOf(std::uint32_t key) const
    {
        return key & index_mask_;
    }

    std::uint32_t tagOf(std::uint32_t key) const
    {
        return key >> index_bits_;
    }

    Entry *
    find(std::uint32_t key)
    {
        Entry &entry = table_[indexOf(key)];
        return entry.valid && entry.tag == tagOf(key) ? &entry
                                                      : nullptr;
    }

    const Entry *
    find(std::uint32_t key) const
    {
        const Entry &entry = table_[indexOf(key)];
        return entry.valid && entry.tag == tagOf(key) ? &entry
                                                      : nullptr;
    }

    unsigned index_bits_;
    std::uint32_t index_mask_;
    unsigned links_;
    std::vector<Entry> table_;
};

void
expectSameAddResult(const CstAddResult &a, const CstAddResult &b,
                    std::uint64_t op)
{
    EXPECT_EQ(a.inserted, b.inserted) << "op " << op;
    EXPECT_EQ(a.already_present, b.already_present) << "op " << op;
    EXPECT_EQ(a.evicted_link, b.evicted_link) << "op " << op;
    EXPECT_EQ(a.entry_conflict, b.entry_conflict) << "op " << op;
    EXPECT_EQ(a.entry_matches, b.entry_matches) << "op " << op;
    EXPECT_EQ(a.churn, b.churn) << "op " << op;
}

/** Where runDifferential draws its deltas from. */
enum class Deltas
{
    /// The whole int8 range, -128 included.
    Full,
    /// A handful of values: duplicates hit often, entries fill, and
    /// the delta lane holds the bytes 0x00, 0x7f, 0x80 and 0xff.
    Narrow,
};

/** Counts the learning-tap notifications a table sends. */
class CountingObserver final : public obs::LearningObserver
{
  public:
    std::uint64_t probes = 0;
    std::uint64_t inserts = 0;

    void onCstProbe(const obs::CstProbeEvent &) override { ++probes; }
    void onCstInsert(const obs::CstInsertEvent &) override { ++inserts; }
    void onArmSelection(const obs::ArmSelectionEvent &) override {}
    void onEpsilonAdapt(const obs::EpsilonEvent &) override {}
    void onRewardApplied(Cycle, const obs::RewardEvent &) override {}
    void onSnapshot(const obs::Tick &,
                    const obs::LearningSnapshot &) override
    {}
};

/** Whether runDifferential attaches a learning observer to the table. */
enum class Observer
{
    None,
    Counting ///< attached at run time; every notification counted
};

/** Replay a randomized op mix against both tables and compare every
 *  observable output. Small table + narrow key space force aliasing,
 *  conflicts, full entries, and score-based replacement. With a
 *  counting observer attached, each addLink and bestLinks must also
 *  send exactly one notification. */
void
runDifferential(unsigned cst_entries, std::uint64_t seed,
                std::uint64_t ops, Deltas delta_mode = Deltas::Full,
                Observer observer = Observer::None)
{
    ContextPrefetcherConfig config;
    config.cst_entries = cst_entries;
    Cst cst(config);
    ReferenceCst ref(cst_entries, Cst::kLinks);
    CountingObserver counter;
    if (observer == Observer::Counting)
        cst.setLearningObserver(&counter);
    std::uint64_t add_calls = 0;
    std::uint64_t best_calls = 0;

    Rng op_rng(seed);
    // Exploration draws must consume identical streams on both sides;
    // each side gets its own identically seeded generator.
    Rng draw_a(seed ^ 0x9e3779b97f4a7c15ull);
    Rng draw_b(seed ^ 0x9e3779b97f4a7c15ull);

    // Keys span 4x the table so tags collide per index; deltas span
    // the full 1-byte range a link can hold.
    const std::uint32_t key_space = cst_entries * 4;
    static constexpr std::int32_t kNarrow[] = {-128, -127, -2, -1, 0,
                                               1,    2,    126, 127};
    const auto drawDelta = [&] {
        if (delta_mode == Deltas::Narrow)
            return kNarrow[op_rng.below(std::size(kNarrow))];
        return static_cast<std::int32_t>(op_rng.range(-128, 127));
    };
    for (std::uint64_t op = 0; op < ops; ++op) {
        const auto key =
            static_cast<std::uint32_t>(op_rng.below(key_space));
        const auto pick = op_rng.below(100);
        if (pick < 50) {
            const std::int32_t delta = drawDelta();
            ++add_calls;
            expectSameAddResult(cst.addLink(key, delta),
                                ref.addLink(key, delta), op);
        } else if (pick < 70) {
            const std::int32_t delta = drawDelta();
            const auto amount =
                static_cast<int>(op_rng.range(-16, 16));
            cst.reward(key, delta, amount);
            ref.reward(key, delta, amount);
        } else if (pick < 80) {
            const auto max_links = static_cast<unsigned>(
                op_rng.below(Cst::kLinks + 1));
            const auto min_score =
                static_cast<int>(op_rng.range(-2, 4));
            std::int32_t deltas_a[16], deltas_b[16];
            int scores_a[16], scores_b[16];
            ++best_calls;
            const unsigned na = cst.bestLinks(key, deltas_a, max_links,
                                              min_score, scores_a);
            const unsigned nb = ref.bestLinks(key, deltas_b, max_links,
                                              min_score, scores_b);
            ASSERT_EQ(na, nb) << "op " << op;
            for (unsigned i = 0; i < na; ++i) {
                EXPECT_EQ(deltas_a[i], deltas_b[i]) << "op " << op;
                EXPECT_EQ(scores_a[i], scores_b[i]) << "op " << op;
            }
        } else if (pick < 85) {
            // Every live entry holds a link and no score is below
            // -128, so the entry is present iff bestLinks finds one.
            std::int32_t deltas[Cst::kLinks];
            ++best_calls;
            const bool hit_a =
                cst.bestLinks(key, deltas, Cst::kLinks, -129) != 0;
            const bool hit_b = ref.present(key);
            ASSERT_EQ(hit_a, hit_b) << "op " << op;
            if (hit_a) {
                EXPECT_EQ(cst.bestScore(key), ref.bestScore(key))
                    << "op " << op;
            }
        } else if (pick < 90) {
            std::int32_t delta_a = 0, delta_b = 0;
            const bool drew_a = cst.randomLink(key, draw_a, &delta_a);
            const bool drew_b = ref.randomLink(key, draw_b, &delta_b);
            ASSERT_EQ(drew_a, drew_b) << "op " << op;
            EXPECT_EQ(delta_a, delta_b) << "op " << op;
        } else if (pick < 95) {
            std::int32_t delta_a = 0, delta_b = 0;
            const bool drew_a =
                cst.softmaxLink(key, draw_a, 4.0, &delta_a);
            const bool drew_b =
                ref.softmaxLink(key, draw_b, 4.0, &delta_b);
            ASSERT_EQ(drew_a, drew_b) << "op " << op;
            EXPECT_EQ(delta_a, delta_b) << "op " << op;
        } else if (pick < 98) {
            cst.clearChurn(key);
            ref.clearChurn(key);
        } else {
            EXPECT_EQ(cst.liveEntries(), ref.liveEntries())
                << "op " << op;
            EXPECT_EQ(cst.linkEvictions(), ref.link_evictions)
                << "op " << op;
            EXPECT_EQ(cst.entryEvictions(), ref.entry_evictions)
                << "op " << op;
        }
        if (observer == Observer::Counting) {
            ASSERT_EQ(counter.inserts, add_calls) << "op " << op;
            ASSERT_EQ(counter.probes, best_calls) << "op " << op;
        }
        if (::testing::Test::HasFatalFailure())
            return;
    }
    EXPECT_EQ(cst.liveEntries(), ref.liveEntries());
    EXPECT_EQ(cst.linkEvictions(), ref.link_evictions);
    EXPECT_EQ(cst.entryEvictions(), ref.entry_evictions);
}

TEST(CstDifferential, StockFourLinkGeometry)
{
    runDifferential(/*cst_entries=*/64, /*seed=*/1, /*ops=*/40000);
}

TEST(CstDifferential, StockGeometrySecondSeed)
{
    runDifferential(/*cst_entries=*/64, /*seed=*/77, /*ops=*/40000);
}

// The table finds duplicates with one compare over the four delta
// bytes and picks victims with selects; the narrow runs aim that
// compare at the bytes 0x00, 0x7f, 0x80 and 0xff, at frequent
// duplicates and at full entries.

TEST(CstDifferential, StockGeometryNarrowDeltas)
{
    runDifferential(/*cst_entries=*/64, /*seed=*/21, /*ops=*/40000,
                    Deltas::Narrow);
}

// An observer attached at run time sees every insertion and probe,
// once each, and changes nothing the table does.

TEST(CstDifferential, StockGeometryLearningBody)
{
    runDifferential(/*cst_entries=*/64, /*seed=*/31, /*ops=*/40000,
                    Deltas::Full, Observer::Counting);
    runDifferential(/*cst_entries=*/64, /*seed=*/33, /*ops=*/40000,
                    Deltas::Narrow, Observer::Counting);
}

} // namespace
} // namespace csp::prefetch::ctx
