/** @file Unit tests for FlatMap, the open-addressing integer map. */

#include <gtest/gtest.h>

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

} // namespace
} // namespace csp
