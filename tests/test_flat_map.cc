/** @file Unit tests for FlatMap, the open-addressing hash map. */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/flat_map.h"
#include "core/rng.h"

namespace csp {
namespace {

TEST(FlatMap, EmptyMapFindsNothingAndAllocatesNothing)
{
    const FlatMap<std::uint64_t, int> map;
    EXPECT_EQ(map.size(), 0u);
    EXPECT_EQ(map.capacity(), 0u);
    EXPECT_EQ(map.find(0), nullptr);
    EXPECT_EQ(map.find(42), nullptr);
}

TEST(FlatMap, TryEmplaceKeepsTheFirstValue)
{
    FlatMap<std::uint64_t, int> map;
    const auto [first, inserted] = map.tryEmplace(5, 10);
    EXPECT_TRUE(inserted);
    EXPECT_EQ(*first, 10);
    const auto [again, reinserted] = map.tryEmplace(5, 20);
    EXPECT_FALSE(reinserted);
    EXPECT_EQ(*again, 10);
    EXPECT_EQ(map.size(), 1u);
}

TEST(FlatMap, ZeroAndAllOnesAreOrdinaryKeys)
{
    FlatMap<std::uint64_t, int> map;
    EXPECT_EQ(map.find(0), nullptr);
    map.tryEmplace(0, 1);
    EXPECT_EQ(map.find(~std::uint64_t{0}), nullptr);
    map.tryEmplace(~std::uint64_t{0}, 2);
    ASSERT_NE(map.find(0), nullptr);
    ASSERT_NE(map.find(~std::uint64_t{0}), nullptr);
    EXPECT_EQ(*map.find(0), 1);
    EXPECT_EQ(*map.find(~std::uint64_t{0}), 2);
    EXPECT_EQ(map.size(), 2u);
}

TEST(FlatMap, GrowsAcrossTheLoadFactorBoundary)
{
    FlatMap<std::uint32_t, std::uint32_t> map;
    map.tryEmplace(0, 0);
    const std::size_t initial = map.capacity();
    ASSERT_GT(initial, 0u);
    // The table holds at most half its slots; the insert past that
    // doubles it, and every earlier entry must survive the rehash.
    std::uint32_t key = 1;
    for (; 2 * (map.size() + 1) <= initial; ++key)
        map.tryEmplace(key, key * 3);
    EXPECT_EQ(map.capacity(), initial);
    map.tryEmplace(key, key * 3);
    EXPECT_EQ(map.capacity(), 2 * initial);
    for (std::uint32_t k = 0; k <= key; ++k) {
        ASSERT_NE(map.find(k), nullptr) << k;
        EXPECT_EQ(*map.find(k), k * 3) << k;
    }
    EXPECT_EQ(map.find(key + 1), nullptr);
}

TEST(FlatMap, KeysSharingAHomeSlotProbeOnward)
{
    FlatMap<std::uint64_t, int> map;
    map.tryEmplace(~std::uint64_t{0}, -1); // allocates the first table
    const std::size_t slots = map.capacity();
    // The map's Fibonacci hash: the top log2(slots) bits of k * phi.
    const auto home = [slots](std::uint64_t k) {
        return (k * 0x9e3779b97f4a7c15ull) >>
               (64 - std::countr_zero(slots));
    };
    std::vector<std::uint64_t> same_home;
    for (std::uint64_t k = 1; same_home.size() < 7; ++k) {
        if (home(k) == home(1))
            same_home.push_back(k);
    }
    const std::uint64_t absent = same_home.back();
    same_home.pop_back();
    for (std::size_t i = 0; i < same_home.size(); ++i)
        map.tryEmplace(same_home[i], static_cast<int>(i));
    ASSERT_EQ(map.capacity(), slots); // one probe chain, no rehash
    for (std::size_t i = 0; i < same_home.size(); ++i) {
        ASSERT_NE(map.find(same_home[i]), nullptr) << i;
        EXPECT_EQ(*map.find(same_home[i]), static_cast<int>(i));
    }
    EXPECT_EQ(map.find(absent), nullptr);
    EXPECT_EQ(*map.find(~std::uint64_t{0}), -1);
}

TEST(FlatMap, AbsentKeysAreNotFound)
{
    FlatMap<std::uint64_t, int> map;
    for (std::uint64_t k = 0; k < 1000; k += 2)
        map.tryEmplace(k, 1);
    for (std::uint64_t k = 1; k < 1000; k += 2)
        EXPECT_EQ(map.find(k), nullptr) << k;
}

TEST(FlatMap, DictionaryIndicesFollowFirstInsertionOrder)
{
    // The trace dictionaries' pattern: a new key maps to the number of
    // keys seen before it; a repeated key returns its first index.
    Rng rng(3);
    FlatMap<std::uint64_t, std::uint32_t> map;
    std::unordered_map<std::uint64_t, std::uint32_t> reference;
    std::vector<std::uint64_t> order;
    for (int i = 0; i < 20000; ++i) {
        const std::uint64_t key = rng.below(3000) * 0x1000;
        const auto [index, inserted] = map.tryEmplace(
            key, static_cast<std::uint32_t>(map.size()));
        const auto [it, ref_inserted] = reference.try_emplace(
            key, static_cast<std::uint32_t>(reference.size()));
        ASSERT_EQ(inserted, ref_inserted);
        ASSERT_EQ(*index, it->second);
        if (inserted)
            order.push_back(key);
    }
    ASSERT_EQ(map.size(), order.size());
    for (std::uint32_t i = 0; i < order.size(); ++i)
        EXPECT_EQ(*map.find(order[i]), i);
}

/** The home slot FlatMap gives @p key in a table of @p slots (its
 *  Fibonacci hash: the top log2(slots) bits of key * phi). */
std::size_t
homeSlot(std::uint64_t key, std::size_t slots)
{
    return static_cast<std::size_t>((key * 0x9e3779b97f4a7c15ull) >>
                                    (64 - std::countr_zero(slots)));
}

/** The first @p n keys (from 1 up) whose home is @p slot. */
std::vector<std::uint64_t>
keysHomedAt(std::size_t slot, std::size_t slots, std::size_t n)
{
    std::vector<std::uint64_t> keys;
    for (std::uint64_t k = 1; keys.size() < n; ++k) {
        if (homeSlot(k, slots) == slot)
            keys.push_back(k);
    }
    return keys;
}

/** Every (key, value) forEach visits, sorted by key. */
template <typename Map>
std::vector<std::pair<std::uint64_t, int>>
visited(const Map &map)
{
    std::vector<std::pair<std::uint64_t, int>> out;
    map.forEach([&out](std::uint64_t key, int value) {
        out.emplace_back(key, value);
    });
    std::sort(out.begin(), out.end());
    return out;
}

TEST(FlatMap, EraseReportsWhetherTheKeyWasPresent)
{
    FlatMap<std::uint64_t, int> map;
    EXPECT_FALSE(map.erase(7)); // empty map, nothing allocated
    map.tryEmplace(7, 1);
    EXPECT_TRUE(map.erase(7));
    EXPECT_FALSE(map.erase(7));
    EXPECT_EQ(map.find(7), nullptr);
    EXPECT_EQ(map.size(), 0u);
    const auto [value, inserted] = map.tryEmplace(7, 2);
    EXPECT_TRUE(inserted);
    EXPECT_EQ(*value, 2);
}

TEST(FlatMap, EraseMidChainKeepsTheRestOfTheChainReachable)
{
    FlatMap<std::uint64_t, int> map;
    map.tryEmplace(0, -1); // allocates the first table
    const std::size_t slots = map.capacity();
    // Slots 3..8: chain[0..2] homed at 3, then `own` in its home slot
    // 6, then chain[3] (homed at 3) and `later` (homed at 4) probing
    // past it. Erasing chain[2] (slot 5) must shift chain[3] and
    // `later` back but leave `own` alone: moved to slot 5 it would sit
    // before its home, out of its own probe chain.
    const std::vector<std::uint64_t> chain = keysHomedAt(3, slots, 4);
    const std::uint64_t own = keysHomedAt(6, slots, 1)[0];
    const std::uint64_t later = keysHomedAt(4, slots, 1)[0];
    std::unordered_map<std::uint64_t, int> reference{{0, -1}};
    for (const std::uint64_t key :
         {chain[0], chain[1], chain[2], own, chain[3], later}) {
        const int value = static_cast<int>(reference.size());
        map.tryEmplace(key, value);
        reference[key] = value;
    }
    ASSERT_EQ(map.capacity(), slots);
    for (const std::uint64_t victim : {chain[2], chain[0]}) {
        ASSERT_TRUE(map.erase(victim));
        reference.erase(victim);
        EXPECT_EQ(map.find(victim), nullptr);
        for (const auto &[key, value] : reference) {
            ASSERT_NE(map.find(key), nullptr) << key;
            EXPECT_EQ(*map.find(key), value);
        }
        EXPECT_EQ(map.size(), reference.size());
    }
}

TEST(FlatMap, ChainsWrappingPastTheTableEndEraseCleanly)
{
    FlatMap<std::uint64_t, int> map;
    map.tryEmplace(~std::uint64_t{0}, -1);
    const std::size_t slots = map.capacity();
    // `first` sits in its home, slot 0. Keys homed at the last two
    // slots fill the table's end and wrap past it to slots 1, 2, 3.
    // Erasing last[0] must leave `first` in slot 0 (its home lies
    // cyclically between the hole and itself) and shift the wrapped
    // keys back across the end.
    const std::uint64_t first = keysHomedAt(0, slots, 1)[0];
    const std::vector<std::uint64_t> last =
        keysHomedAt(slots - 1, slots, 3);
    const std::vector<std::uint64_t> second =
        keysHomedAt(slots - 2, slots, 2);
    std::unordered_map<std::uint64_t, int> reference{
        {~std::uint64_t{0}, -1}};
    for (const std::uint64_t key :
         {first, last[0], second[0], last[1], second[1], last[2]}) {
        const int value = static_cast<int>(reference.size());
        map.tryEmplace(key, value);
        reference[key] = value;
    }
    ASSERT_EQ(map.capacity(), slots);
    for (const std::uint64_t victim :
         {last[0], second[0], last[2], first, last[1]}) {
        ASSERT_TRUE(map.erase(victim));
        reference.erase(victim);
        EXPECT_EQ(map.find(victim), nullptr);
        for (const auto &[key, value] : reference) {
            ASSERT_NE(map.find(key), nullptr) << key;
            EXPECT_EQ(*map.find(key), value);
        }
    }
}

TEST(FlatMap, RandomInsertEraseFindMatchesUnorderedMap)
{
    // Few distinct keys, so the table sees heavy churn at a steady
    // size; 0 and ~0 are among them, and the small table forces long
    // chains that wrap past its end.
    Rng rng(11);
    std::vector<std::uint64_t> pool = {0, ~std::uint64_t{0}, 1,
                                       ~std::uint64_t{0} - 1};
    for (std::uint64_t k : keysHomedAt(15, 16, 4))
        pool.push_back(k);
    while (pool.size() < 48)
        pool.push_back(rng.next());
    FlatMap<std::uint64_t, int> map;
    std::unordered_map<std::uint64_t, int> reference;
    for (int step = 0; step < 200000; ++step) {
        const std::uint64_t key = pool[rng.below(pool.size())];
        const auto op = rng.below(8);
        if (op < 3) {
            const auto [value, inserted] = map.tryEmplace(key, step);
            const auto [it, ref_inserted] =
                reference.try_emplace(key, step);
            ASSERT_EQ(inserted, ref_inserted) << step;
            ASSERT_EQ(*value, it->second) << step;
        } else if (op < 4) {
            map[key] = step;
            reference[key] = step;
        } else if (op < 7) {
            ASSERT_EQ(map.erase(key), reference.erase(key) == 1) << step;
        } else {
            const int *value = map.find(key);
            const auto it = reference.find(key);
            ASSERT_EQ(value != nullptr, it != reference.end()) << step;
            if (value != nullptr) {
                ASSERT_EQ(*value, it->second) << step;
            }
        }
        ASSERT_EQ(map.size(), reference.size()) << step;
        if (step % 997 == 0) {
            std::vector<std::pair<std::uint64_t, int>> want(
                reference.begin(), reference.end());
            std::sort(want.begin(), want.end());
            ASSERT_EQ(visited(map), want) << step;
        }
    }
}

TEST(FlatMap, ForEachVisitsEachLiveKeyOnce)
{
    FlatMap<std::uint64_t, int> map;
    for (std::uint64_t k = 0; k < 300; ++k)
        map.tryEmplace(k * 64, static_cast<int>(k));
    for (std::uint64_t k = 0; k < 300; k += 3)
        map.erase(k * 64);
    std::vector<std::pair<std::uint64_t, int>> want;
    for (std::uint64_t k = 0; k < 300; ++k) {
        if (k % 3 != 0)
            want.emplace_back(k * 64, static_cast<int>(k));
    }
    EXPECT_EQ(visited(map), want);
}

TEST(FlatMap, ClearKeepsTheSlotsAndForgetsEveryKey)
{
    FlatMap<std::uint64_t, int> map;
    for (std::uint64_t k = 0; k < 100; ++k)
        map.tryEmplace(k, 1);
    const std::size_t slots = map.capacity();
    map.clear();
    EXPECT_EQ(map.size(), 0u);
    EXPECT_EQ(map.capacity(), slots);
    for (std::uint64_t k = 0; k < 100; ++k)
        EXPECT_EQ(map.find(k), nullptr) << k;
    EXPECT_TRUE(visited(map).empty());
    map.tryEmplace(5, 2);
    EXPECT_EQ(*map.find(5), 2);
}

TEST(FlatMap, ReserveMakesRoomWithoutGrowing)
{
    FlatMap<std::uint64_t, int> map;
    map.reserve(100);
    const std::size_t slots = map.capacity();
    EXPECT_GE(slots, 200u);
    for (std::uint64_t k = 0; k < 100; ++k)
        map.tryEmplace(k, 1);
    EXPECT_EQ(map.capacity(), slots);
    map.reserve(10); // never shrinks
    EXPECT_EQ(map.capacity(), slots);
    EXPECT_EQ(map.size(), 100u);
}

/** A composite key, as the memory recorder's pollution pairs use. */
struct PairKey
{
    std::uint64_t issuer = 0;
    std::uint64_t demand = 0;
    std::uint8_t level = 1;

    bool operator==(const PairKey &) const = default;
};

struct PairKeyHash
{
    std::uint64_t
    operator()(const PairKey &k) const
    {
        return (k.issuer * 0x9e3779b97f4a7c15ull) ^ (k.demand << 1) ^
               k.level;
    }
};

TEST(FlatMap, CompositeKeysWithTheirOwnHash)
{
    Rng rng(5);
    FlatMap<PairKey, std::uint64_t, PairKeyHash> map;
    std::unordered_map<std::uint64_t, std::uint64_t> reference;
    // Few issuers and demands, both levels, so keys differ in one
    // field at a time; the reference keys them by a packed word.
    const auto packed = [](const PairKey &k) {
        return (k.issuer << 32) | (k.demand << 8) | k.level;
    };
    for (int step = 0; step < 50000; ++step) {
        const PairKey key{rng.below(12), rng.below(12),
                          static_cast<std::uint8_t>(1 + rng.below(2))};
        if (rng.below(4) == 0) {
            ASSERT_EQ(map.erase(key), reference.erase(packed(key)) == 1);
        } else {
            ++map[key];
            ++reference[packed(key)];
        }
        ASSERT_EQ(map.size(), reference.size());
    }
    std::size_t seen = 0;
    map.forEach([&](const PairKey &key, std::uint64_t count) {
        ++seen;
        const auto it = reference.find(packed(key));
        ASSERT_NE(it, reference.end());
        EXPECT_EQ(count, it->second);
    });
    EXPECT_EQ(seen, reference.size());
    EXPECT_EQ(map.find(PairKey{99, 0, 1}), nullptr);
}

} // namespace
} // namespace csp
