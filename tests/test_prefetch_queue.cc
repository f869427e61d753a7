/** @file Unit tests for the feedback unit's prefetch queue. */

#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "core/rng.h"
#include "prefetch/context/prefetch_queue.h"

namespace csp::prefetch::ctx {
namespace {

TEST(PrefetchQueue, HitReportsDepthInAccesses)
{
    PrefetchQueue q(8);
    q.push(0x1000, 7, 3, /*seq=*/10, false, nullptr);
    unsigned reported_depth = 0;
    unsigned hits = q.onAccess(
        0x1000, /*seq=*/35,
        [&](const PendingPrefetch &entry, unsigned depth) {
            reported_depth = depth;
            EXPECT_EQ(entry.reduced_key, 7u);
            EXPECT_EQ(entry.delta, 3);
        });
    EXPECT_EQ(hits, 1u);
    EXPECT_EQ(reported_depth, 25u);
}

TEST(PrefetchQueue, EntryHitOnlyOnce)
{
    PrefetchQueue q(8);
    q.push(0x1000, 7, 3, 0, false, nullptr);
    EXPECT_EQ(q.onAccess(0x1000, 5, nullptr), 1u);
    EXPECT_EQ(q.onAccess(0x1000, 6, nullptr), 0u);
}

TEST(PrefetchQueue, MultipleEntriesSameLineAllHit)
{
    PrefetchQueue q(8);
    q.push(0x1000, 1, 3, 0, false, nullptr);
    q.push(0x1000, 2, 5, 1, true, nullptr);
    EXPECT_EQ(q.onAccess(0x1000, 10, nullptr), 2u);
}

TEST(PrefetchQueue, NonMatchingLineNoHit)
{
    PrefetchQueue q(8);
    q.push(0x1000, 7, 3, 0, false, nullptr);
    EXPECT_EQ(q.onAccess(0x2000, 5, nullptr), 0u);
}

TEST(PrefetchQueue, PendingChecksUnhitEntries)
{
    PrefetchQueue q(8);
    EXPECT_FALSE(q.pending(0x1000));
    q.push(0x1000, 7, 3, 0, false, nullptr);
    EXPECT_TRUE(q.pending(0x1000));
    q.onAccess(0x1000, 5, nullptr);
    EXPECT_FALSE(q.pending(0x1000)); // hit entries no longer pending
}

TEST(PrefetchQueue, EvictionExpiresUnhitOldest)
{
    PrefetchQueue q(2);
    int expired = 0;
    const auto on_expiry = [&](const PendingPrefetch &entry) {
        ++expired;
        EXPECT_EQ(entry.line, 0x1000u);
    };
    q.push(0x1000, 1, 1, 0, false, on_expiry);
    q.push(0x2000, 2, 2, 1, false, on_expiry);
    q.push(0x3000, 3, 3, 2, false, on_expiry); // evicts 0x1000
    EXPECT_EQ(expired, 1);
}

TEST(PrefetchQueue, HitEntriesExpireSilently)
{
    PrefetchQueue q(2);
    int expired = 0;
    const auto on_expiry = [&](const PendingPrefetch &) { ++expired; };
    q.push(0x1000, 1, 1, 0, false, on_expiry);
    q.onAccess(0x1000, 1, nullptr);
    q.push(0x2000, 2, 2, 2, false, on_expiry);
    q.push(0x3000, 3, 3, 3, false, on_expiry); // evicts the hit entry
    EXPECT_EQ(expired, 0);
}

TEST(PrefetchQueue, DemoteToShadowPicksNewestReal)
{
    PrefetchQueue q(8);
    q.push(0x1000, 1, 1, 0, false, nullptr);
    q.push(0x1000, 2, 2, 5, false, nullptr);
    q.demoteToShadow(0x1000);
    // The newest (seq 5) entry became shadow; verify via hit callback.
    bool newest_shadow = false;
    q.onAccess(0x1000, 10,
               [&](const PendingPrefetch &entry, unsigned) {
                   if (entry.seq == 5)
                       newest_shadow = entry.shadow;
               });
    EXPECT_TRUE(newest_shadow);
}

TEST(PrefetchQueue, FlushExpiresEverythingUnhit)
{
    PrefetchQueue q(8);
    int expired = 0;
    q.push(0x1000, 1, 1, 0, false, nullptr);
    q.push(0x2000, 2, 2, 1, false, nullptr);
    q.onAccess(0x1000, 3, nullptr);
    q.flush([&](const PendingPrefetch &) { ++expired; });
    EXPECT_EQ(expired, 1);
    EXPECT_EQ(q.size(), 0u);
}

TEST(PrefetchQueue, SizeTracksLiveEntries)
{
    PrefetchQueue q(4);
    EXPECT_EQ(q.size(), 0u);
    q.push(0x1000, 1, 1, 0, false, nullptr);
    q.push(0x2000, 2, 2, 1, false, nullptr);
    EXPECT_EQ(q.size(), 2u);
}

TEST(PrefetchQueue, ShadowFlagPreserved)
{
    PrefetchQueue q(4);
    q.push(0x1000, 1, 1, 0, true, nullptr);
    bool shadow = false;
    q.onAccess(0x1000, 1,
               [&](const PendingPrefetch &entry, unsigned) {
                   shadow = entry.shadow;
               });
    EXPECT_TRUE(shadow);
}

TEST(PrefetchQueue, PushUnlessPendingRealSeesTheEvictedSlot)
{
    // The only real prediction of 0x1000 sits in the slot this push
    // evicts: the dedup check must still count it.
    PrefetchQueue q(2);
    std::vector<Addr> expired;
    const auto on_expiry = [&](const PendingPrefetch &entry) {
        expired.push_back(entry.line);
    };
    q.push(0x1000, 1, 1, 0, false, on_expiry);
    q.push(0x2000, 2, 2, 1, false, on_expiry);
    EXPECT_TRUE(q.pushUnlessPendingReal(0x1000, 3, 3, 2, false, on_expiry));
    EXPECT_EQ(expired, std::vector<Addr>{0x1000});
    EXPECT_TRUE(q.pending(0x1000));
    // Only a shadow of 0x1000 is pending now, and a shadow does not
    // block: the flag passes through, both ways.
    EXPECT_FALSE(q.pushUnlessPendingReal(0x1000, 4, 4, 3, false, on_expiry));
    EXPECT_TRUE(q.pushUnlessPendingReal(0x3000, 5, 5, 4, true, on_expiry));
}

/** The queue's semantics restated naively: a ring scanned in slot
 *  order, no index, no bitmaps. */
class ReferenceQueue
{
  public:
    explicit ReferenceQueue(unsigned capacity) : ring_(capacity) {}

    template <typename ExpiryFn>
    void
    push(Addr line, std::uint32_t key, AccessSeq seq, bool shadow,
         const ExpiryFn &on_expiry)
    {
        PendingPrefetch &slot = ring_[head_];
        head_ = (head_ + 1) % ring_.size();
        if (slot.valid && !slot.hit)
            on_expiry(slot);
        slot = PendingPrefetch{line, key, 1, seq, shadow, false, true};
    }

    template <typename HitFn>
    unsigned
    onAccess(Addr line, AccessSeq seq, const HitFn &on_hit)
    {
        unsigned hits = 0;
        for (PendingPrefetch &entry : ring_) {
            if (entry.valid && !entry.hit && entry.line == line) {
                entry.hit = true;
                ++hits;
                on_hit(entry, static_cast<unsigned>(seq - entry.seq));
            }
        }
        return hits;
    }

    bool
    pending(Addr line, bool real_only) const
    {
        for (const PendingPrefetch &entry : ring_) {
            if (entry.valid && !entry.hit && entry.line == line &&
                !(real_only && entry.shadow))
                return true;
        }
        return false;
    }

    void
    demoteToShadow(Addr line)
    {
        PendingPrefetch *newest = nullptr;
        for (PendingPrefetch &entry : ring_) {
            if (entry.valid && !entry.hit && !entry.shadow &&
                entry.line == line &&
                (newest == nullptr || entry.seq > newest->seq))
                newest = &entry;
        }
        if (newest != nullptr)
            newest->shadow = true;
    }

    template <typename ExpiryFn>
    void
    flush(const ExpiryFn &on_expiry)
    {
        for (PendingPrefetch &entry : ring_) {
            if (entry.valid && !entry.hit)
                on_expiry(entry);
            entry.valid = false;
        }
    }

  private:
    std::vector<PendingPrefetch> ring_;
    std::size_t head_ = 0;
};

/** pushUnlessPendingReal against the reference's check-then-push over
 *  random pushes, hits, demotions and flushes on a few lines: same
 *  flags, same expiries and hits in the same order. */
void
runPushDifferential(unsigned capacity, std::uint64_t seed)
{
    PrefetchQueue queue(capacity);
    ReferenceQueue ref(capacity);
    using Event = std::tuple<Addr, std::uint32_t, AccessSeq, bool, unsigned>;
    std::vector<Event> got_events;
    std::vector<Event> want_events;
    const auto recorder = [](std::vector<Event> &events) {
        return [&events](const PendingPrefetch &entry) {
            events.emplace_back(entry.line, entry.reduced_key, entry.seq,
                                entry.shadow, ~0u);
        };
    };
    const auto hit_recorder = [](std::vector<Event> &events) {
        return [&events](const PendingPrefetch &entry, unsigned depth) {
            events.emplace_back(entry.line, entry.reduced_key, entry.seq,
                                entry.shadow, depth);
        };
    };
    Rng rng(seed);
    std::size_t events = 0;
    for (AccessSeq seq = 0; seq < 40000; ++seq) {
        const Addr line = 0x1000 * (1 + rng.below(12));
        const auto pick = rng.below(100);
        if (pick < 60) {
            const bool shadow = rng.chance(0.3);
            const auto key = static_cast<std::uint32_t>(seq);
            const bool got = queue.pushUnlessPendingReal(
                line, key, 1, seq, shadow, recorder(got_events));
            const bool want = shadow || ref.pending(line, true);
            ref.push(line, key, seq, want, recorder(want_events));
            ASSERT_EQ(got, want) << "seq " << seq;
        } else if (pick < 85) {
            EXPECT_EQ(queue.onAccess(line, seq, hit_recorder(got_events)),
                      ref.onAccess(line, seq, hit_recorder(want_events)))
                << "seq " << seq;
        } else if (pick < 97) {
            queue.demoteToShadow(line);
            ref.demoteToShadow(line);
        } else if (pick < 99) {
            EXPECT_EQ(queue.pending(line), ref.pending(line, false))
                << "seq " << seq;
        } else {
            queue.flush(recorder(got_events));
            ref.flush(recorder(want_events));
        }
        ASSERT_EQ(got_events, want_events) << "seq " << seq;
        events += got_events.size();
        got_events.clear();
        want_events.clear();
    }
    EXPECT_GT(events, 0u);
}

TEST(PrefetchQueue, PushUnlessPendingRealMatchesCheckThenPush)
{
    runPushDifferential(/*capacity=*/8, /*seed=*/3);
    runPushDifferential(/*capacity=*/130, /*seed=*/4); // 3 bitmap words
}

} // namespace
} // namespace csp::prefetch::ctx
