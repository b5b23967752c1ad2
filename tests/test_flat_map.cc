/**
 * @file
 * Unit tests for the sorted-vector FlatMap.
 *
 * The invocation records route their small keyed collections (slot
 * maps, branch hints, fault attempts) through FlatMap; these tests
 * pin the std::map surface it promises — ordered iteration, find /
 * lower_bound / count, operator[] insert-or-find, emplace
 * insert-or-ignore, erase by key and iterator, suffix truncation,
 * single-pass eraseIf — plus the custom comparator shape the
 * controllers use for OrderKey keys.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/flat_map.hh"

namespace specfaas {
namespace {

TEST(FlatMap, InsertAndIterateInKeyOrder)
{
    FlatMap<int, std::string> m;
    m[30] = "c";
    m[10] = "a";
    m[20] = "b";
    ASSERT_EQ(m.size(), 3u);
    std::vector<int> keys;
    for (const auto& [k, v] : m)
        keys.push_back(k);
    EXPECT_EQ(keys, (std::vector<int>{10, 20, 30}));
}

TEST(FlatMap, SubscriptFindsOrInserts)
{
    FlatMap<int, std::string> m;
    m[5] = "five";
    EXPECT_EQ(m[5], "five") << "existing key must not be overwritten";
    EXPECT_EQ(m.size(), 1u);
    // Missing key: value-initialized entry appears.
    EXPECT_EQ(m[7], "");
    EXPECT_EQ(m.size(), 2u);
}

TEST(FlatMap, FindCountAndAt)
{
    FlatMap<int, int> m;
    m[1] = 10;
    m[3] = 30;
    EXPECT_EQ(m.find(1)->second, 10);
    EXPECT_EQ(m.find(2), m.end());
    EXPECT_EQ(m.count(3), 1u);
    EXPECT_EQ(m.count(4), 0u);
    EXPECT_EQ(m.at(3), 30);
    const FlatMap<int, int>& cm = m;
    EXPECT_EQ(cm.find(3)->second, 30);
    EXPECT_EQ(cm.at(1), 10);
}

TEST(FlatMap, LowerBoundIsFirstNotLess)
{
    FlatMap<int, int> m;
    m[10] = 1;
    m[20] = 2;
    m[30] = 3;
    EXPECT_EQ(m.lower_bound(5)->first, 10);
    EXPECT_EQ(m.lower_bound(20)->first, 20);
    EXPECT_EQ(m.lower_bound(21)->first, 30);
    EXPECT_EQ(m.lower_bound(31), m.end());
}

TEST(FlatMap, EmplaceInsertsOrIgnores)
{
    FlatMap<int, std::string> m;
    auto [it1, fresh1] = m.emplace(4, "four");
    EXPECT_TRUE(fresh1);
    EXPECT_EQ(it1->second, "four");
    auto [it2, fresh2] = m.emplace(4, "FOUR");
    EXPECT_FALSE(fresh2) << "emplace on an existing key must ignore";
    EXPECT_EQ(it2->second, "four");
    EXPECT_EQ(m.size(), 1u);
}

TEST(FlatMap, EraseByKeyAndIterator)
{
    FlatMap<int, int> m;
    for (int k : {1, 2, 3, 4})
        m[k] = k * 10;
    EXPECT_EQ(m.erase(2), 1u);
    EXPECT_EQ(m.erase(2), 0u);
    auto it = m.erase(m.find(3));
    ASSERT_NE(it, m.end());
    EXPECT_EQ(it->first, 4) << "erase returns the next entry";
    std::vector<int> keys;
    for (const auto& [k, v] : m)
        keys.push_back(k);
    EXPECT_EQ(keys, (std::vector<int>{1, 4}));
}

TEST(FlatMap, ClearAndEmpty)
{
    FlatMap<int, int> m;
    EXPECT_TRUE(m.empty());
    m[1] = 1;
    EXPECT_FALSE(m.empty());
    m.clear();
    EXPECT_TRUE(m.empty());
    EXPECT_EQ(m.size(), 0u);
}

TEST(FlatMap, CustomComparatorOrdersIteration)
{
    // The controllers key pipeline maps by OrderKey with a custom
    // less; the comparator must drive both ordering and equivalence
    // (two keys are equal when neither is less).
    struct ReverseLess
    {
        bool operator()(int a, int b) const { return a > b; }
    };
    FlatMap<int, std::string, ReverseLess> m;
    m[10] = "a";
    m[30] = "c";
    m[20] = "b";
    std::vector<int> keys;
    for (const auto& [k, v] : m)
        keys.push_back(k);
    EXPECT_EQ(keys, (std::vector<int>{30, 20, 10}));
    EXPECT_EQ(m.find(20)->second, "b");
    EXPECT_EQ(m.count(15), 0u);
}

TEST(FlatMap, RangeScanViaLowerBound)
{
    // The squash path walks [from, end) with lower_bound — the
    // pattern must see exactly the keys at or after the pivot, in
    // order.
    FlatMap<int, int> m;
    for (int k : {2, 4, 6, 8, 10})
        m[k] = k;
    std::vector<int> tail;
    for (auto it = m.lower_bound(5); it != m.end(); ++it)
        tail.push_back(it->first);
    EXPECT_EQ(tail, (std::vector<int>{6, 8, 10}));
}

TEST(FlatMap, EraseIfRunsPredicateExactlyOncePerEntry)
{
    // The squash path's pendingCallees purge relies on a single
    // compacting pass, not an erase per victim.
    FlatMap<int, int> m;
    for (int i = 0; i < 1000; ++i)
        m.emplace(i, i);
    std::size_t calls = 0;
    const std::size_t erased = m.eraseIf([&calls](const auto& e) {
        ++calls;
        return e.second % 2 == 0;
    });
    EXPECT_EQ(calls, 1000u);
    EXPECT_EQ(erased, 500u);
    EXPECT_EQ(m.size(), 500u);
}

TEST(FlatMap, EraseFromTruncatesSuffixAndReportsCount)
{
    FlatMap<int, int> m;
    for (int i = 0; i < 10; ++i)
        m.emplace(i, i);
    EXPECT_EQ(m.eraseFrom(7), 3u);
    EXPECT_EQ(m.size(), 7u);
    EXPECT_EQ(m.eraseFrom(100), 0u);
    EXPECT_EQ(m.eraseFrom(0), 7u);
    EXPECT_TRUE(m.empty());
}

} // namespace
} // namespace specfaas
