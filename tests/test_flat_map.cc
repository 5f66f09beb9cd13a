/**
 * @file
 * Differential tests for FlatMap, the open-addressed table behind the
 * per-block and per-page maps: every operation sequence must leave it
 * holding exactly what std::unordered_map holds, across growth,
 * backward-shift erase (including runs that wrap past the end of the
 * table) and erase-then-reinsert of the same key.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.hh"
#include "common/sim_error.hh"
#include "sim/flat_map.hh"

namespace c3d
{
namespace
{

using Map = FlatMap<std::uint64_t, std::string>;
using Oracle = std::unordered_map<std::uint64_t, std::string>;

/** Every key in @p keys is present in both or in neither, with equal
 * values, and the sizes agree. */
void
expectSame(const Map &m, const Oracle &o,
           const std::vector<std::uint64_t> &keys)
{
    ASSERT_EQ(m.size(), o.size());
    for (const std::uint64_t k : keys) {
        const std::string *got = m.find(k);
        const auto want = o.find(k);
        ASSERT_EQ(got != nullptr, want != o.end()) << "key " << k;
        if (got) {
            EXPECT_EQ(*got, want->second) << "key " << k;
        }
        EXPECT_EQ(m.contains(k), got != nullptr);
    }
}

/** @p n distinct keys whose home slot is @p slot at @p m's capacity. */
std::vector<std::uint64_t>
keysHomedAt(const Map &m, std::size_t slot, unsigned n)
{
    std::vector<std::uint64_t> keys;
    for (std::uint64_t k = 0; keys.size() < n; ++k) {
        if (m.homeOf(k) == slot)
            keys.push_back(k);
    }
    return keys;
}

TEST(FlatMap, MatchesUnorderedMapOnASeededStream)
{
    Map m;
    Oracle o;
    Rng rng(7);
    // A small key range keeps probe runs long and erases frequent.
    std::vector<std::uint64_t> universe;
    for (std::uint64_t k = 0; k < 300; ++k)
        universe.push_back(k * 64 + (k % 3)); // block-like keys
    for (int step = 0; step < 60000; ++step) {
        const std::uint64_t k = universe[rng.below(universe.size())];
        switch (rng.below(4)) {
          case 0: {
            const std::string v = std::to_string(step);
            auto [val, inserted] = m.tryEmplace(k, v);
            const auto [it, want_inserted] = o.try_emplace(k, v);
            ASSERT_EQ(inserted, want_inserted) << step;
            EXPECT_EQ(*val, it->second) << step;
            break;
          }
          case 1:
            m[k] += "x";
            o[k] += "x";
            break;
          case 2:
            ASSERT_EQ(m.erase(k), o.erase(k) == 1) << step;
            break;
          default: {
            const std::string *got = m.find(k);
            const auto want = o.find(k);
            ASSERT_EQ(got != nullptr, want != o.end()) << step;
            if (got) {
                EXPECT_EQ(*got, want->second) << step;
            }
          }
        }
        if (step % 1000 == 0)
            expectSame(m, o, universe);
    }
    expectSame(m, o, universe);
}

TEST(FlatMap, BackwardShiftCrossesTheWrapAround)
{
    Map m;
    m[0] = "seed"; // allocate the first table
    ASSERT_EQ(m.capacity(), 16u);
    m.erase(0);
    const std::size_t last = m.capacity() - 1;

    // Three keys homed at the last slot fill it and wrap to slots 0
    // and 1; a key homed at slot 0 is pushed on to slot 2.
    const std::vector<std::uint64_t> tail = keysHomedAt(m, last, 3);
    const std::uint64_t head = keysHomedAt(m, 0, 1)[0];
    Oracle o;
    for (const std::uint64_t k : tail) {
        m[k] = "t" + std::to_string(k);
        o[k] = "t" + std::to_string(k);
    }
    m[head] = "h";
    o[head] = "h";
    ASSERT_EQ(m.capacity(), 16u);
    std::vector<std::uint64_t> all = tail;
    all.push_back(head);

    // Erasing the run's first entry shifts every later one back by a
    // slot, across the end of the table: slot 0's entry moves to the
    // last slot and the head key to slot 1, and all stay findable.
    ASSERT_TRUE(m.erase(tail[0]));
    o.erase(tail[0]);
    expectSame(m, o, all);

    // Erase from the middle of the wrapped part, then reinsert.
    ASSERT_TRUE(m.erase(tail[2]));
    o.erase(tail[2]);
    expectSame(m, o, all);
    m[tail[2]] = "again";
    o[tail[2]] = "again";
    m[tail[0]] = "back";
    o[tail[0]] = "back";
    expectSame(m, o, all);
    ASSERT_EQ(m.capacity(), 16u);

    // Drain in insertion order: the table ends empty.
    for (const std::uint64_t k : all) {
        EXPECT_TRUE(m.erase(k));
        o.erase(k);
        expectSame(m, o, all);
    }
    EXPECT_EQ(m.size(), 0u);
    EXPECT_FALSE(m.erase(head));
}

TEST(FlatMap, GrowthKeepsEveryEntryAndHalfFillsAtMost)
{
    Map m;
    Oracle o;
    std::vector<std::uint64_t> keys;
    for (std::uint64_t i = 0; i < 5000; ++i) {
        const std::uint64_t k = i * 4096 + 7; // page-like keys
        keys.push_back(k);
        m[k] = std::string(40, static_cast<char>('a' + i % 26));
        o[k] = m[k];
        const std::size_t cap = m.capacity();
        ASSERT_EQ(cap & (cap - 1), 0u);
        ASSERT_LE(2 * m.size(), cap);
    }
    expectSame(m, o, keys);
    // Erase every other key, then check again.
    for (std::size_t i = 0; i < keys.size(); i += 2) {
        m.erase(keys[i]);
        o.erase(keys[i]);
    }
    expectSame(m, o, keys);
}

TEST(FlatMap, EraseThenReinsertTheSameKey)
{
    Map m;
    auto [v, inserted] = m.tryEmplace(42, "first");
    ASSERT_TRUE(inserted);
    EXPECT_EQ(*v, "first");
    EXPECT_FALSE(m.tryEmplace(42, "ignored").second);
    EXPECT_EQ(*m.find(42), "first");
    ASSERT_TRUE(m.erase(42));
    EXPECT_EQ(m.find(42), nullptr);
    auto [w, again] = m.tryEmplace(42, "second");
    EXPECT_TRUE(again);
    EXPECT_EQ(*w, "second");
    EXPECT_EQ(m.size(), 1u);
    EXPECT_EQ(m[42], "second");
}

TEST(FlatMap, MovedFromMapIsEmpty)
{
    Map a;
    a[1] = "one";
    a[2] = "two";
    Map b(std::move(a));
    EXPECT_EQ(b.size(), 2u);
    EXPECT_EQ(*b.find(2), "two");
    EXPECT_EQ(a.size(), 0u);
    EXPECT_EQ(a.find(1), nullptr);
    a[1] = "again"; // a moved-from map is usable
    EXPECT_EQ(*a.find(1), "again");
    EXPECT_EQ(*b.find(1), "one");
}

TEST(FlatMap, EmptyKeyIsRejected)
{
    Map m;
    EXPECT_THROW(m[Map::EmptyKey], SimError);
    EXPECT_EQ(m.find(Map::EmptyKey), nullptr);
    m[3] = "three";
    EXPECT_EQ(m.find(Map::EmptyKey), nullptr);
    EXPECT_FALSE(m.erase(Map::EmptyKey));
    EXPECT_EQ(m.size(), 1u);
}

} // namespace
} // namespace c3d
