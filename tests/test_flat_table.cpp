// Tests for the flat open-addressed table behind the per-event bookkeeping:
// collisions, growth, backward-shift erase (including runs that wrap past
// the last slot), clear, and a randomized model against std::unordered_map.
#include "epicast/common/flat_table.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "epicast/common/rng.hpp"

namespace epicast {
namespace {

/// The home slot is the key's high bits, so a test places every key
/// exactly: key = home << 16 | tag.
struct HomeTraits {
  static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};
  static std::uint64_t hash(std::uint64_t key) noexcept { return key >> 16; }
};
using HomeTable = FlatTable<std::uint64_t, std::uint32_t, HomeTraits>;

constexpr std::uint64_t key_at(std::uint64_t home, std::uint64_t tag) {
  return home << 16 | tag;
}

TEST(FlatTable, EmptyTableFindsNothing) {
  HomeTable t;
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.slot_count(), 0u);
  EXPECT_EQ(t.find(key_at(0, 1)), nullptr);
  EXPECT_FALSE(t.contains(key_at(0, 1)));
  EXPECT_FALSE(t.erase(key_at(0, 1)));
  EXPECT_EQ(t.memory_bytes(), 0u);
}

TEST(FlatTable, TryEmplaceKeepsTheFirstValue) {
  HomeTable t;
  auto [v, inserted] = t.try_emplace(key_at(3, 1), 7);
  EXPECT_TRUE(inserted);
  EXPECT_EQ(*v, 7u);
  auto [w, again] = t.try_emplace(key_at(3, 1), 9);
  EXPECT_FALSE(again);
  EXPECT_EQ(*w, 7u);
  t.assign(key_at(3, 1), 9);
  EXPECT_EQ(*t.find(key_at(3, 1)), 9u);
  EXPECT_EQ(t.size(), 1u);
}

TEST(FlatTable, CollidingKeysProbeLinearly) {
  HomeTable t;
  for (std::uint32_t tag = 0; tag < 8; ++tag) {
    EXPECT_TRUE(t.try_emplace(key_at(2, tag), tag).second);
  }
  EXPECT_EQ(t.slot_count(), HomeTable::kMinSlots);
  for (std::uint32_t tag = 0; tag < 8; ++tag) {
    ASSERT_NE(t.find(key_at(2, tag)), nullptr);
    EXPECT_EQ(*t.find(key_at(2, tag)), tag);
  }
  // A miss in the middle of the run walks to its end.
  EXPECT_EQ(t.find(key_at(2, 99)), nullptr);
  EXPECT_EQ(t.find(key_at(5, 0)), nullptr);  // home inside the run
}

TEST(FlatTable, GrowsAtThreeQuartersAndKeepsEntries) {
  HomeTable t;
  std::size_t last_slots = 0;
  for (std::uint32_t i = 0; i < 1000; ++i) {
    t.try_emplace(key_at(i, i), i);
    ASSERT_LE(t.size() * 4, t.slot_count() * 3) << "load above 3/4";
    if (t.slot_count() != last_slots) {
      // Doubling: each growth step is a power of two twice the last.
      if (last_slots != 0) {
        EXPECT_EQ(t.slot_count(), last_slots * 2);
      }
      last_slots = t.slot_count();
    }
  }
  EXPECT_EQ(t.slot_count(), 2048u);
  EXPECT_EQ(t.memory_bytes(), 2048u * sizeof(HomeTable::Slot));
  for (std::uint32_t i = 0; i < 1000; ++i) {
    ASSERT_NE(t.find(key_at(i, i)), nullptr);
    EXPECT_EQ(*t.find(key_at(i, i)), i);
  }
}

TEST(FlatTable, EraseShiftsTheRunBack) {
  // Run at slots 4..8: three keys homed at 4, then two homed at 5 and 6.
  HomeTable t;  // up to 12 entries fit the first 16 slots
  const std::uint64_t a = key_at(4, 1), b = key_at(4, 2), c = key_at(4, 3);
  const std::uint64_t d = key_at(5, 1), e = key_at(6, 1);
  for (std::uint64_t k : {a, b, c, d, e}) t.try_emplace(k, 1);
  EXPECT_TRUE(t.erase(b));
  EXPECT_FALSE(t.erase(b));
  EXPECT_EQ(t.size(), 4u);
  for (std::uint64_t k : {a, c, d, e}) EXPECT_TRUE(t.contains(k)) << k;
  // Every key moved back as far as its home allows (4:c 5:d 6:e), so a
  // key homed at 7 finds its home free.
  EXPECT_TRUE(t.erase(a));
  for (std::uint64_t k : {c, d, e}) EXPECT_TRUE(t.contains(k)) << k;
  t.try_emplace(key_at(7, 1), 2);
  EXPECT_TRUE(t.erase(c));
  EXPECT_TRUE(t.erase(d));
  for (std::uint64_t k : {e, key_at(7, 1)}) EXPECT_TRUE(t.contains(k)) << k;
  EXPECT_EQ(t.size(), 2u);
}

TEST(FlatTable, EraseKeepsKeysThatStayAtHome) {
  // A key already at its home slot must not be pulled back into a hole
  // before it — that would put it where no probe for it starts.
  HomeTable t;
  const std::uint64_t a = key_at(3, 1), b = key_at(3, 2), c = key_at(5, 1);
  for (std::uint64_t k : {a, b, c}) t.try_emplace(k, 1);  // slots 3, 4, 5
  EXPECT_TRUE(t.erase(a));
  EXPECT_TRUE(t.contains(b));  // moves 4 -> 3
  EXPECT_TRUE(t.contains(c));  // stays at 5
  EXPECT_TRUE(t.erase(b));
  EXPECT_TRUE(t.contains(c));
}

TEST(FlatTable, EraseAcrossTheWrapAround) {
  // Keys homed at the last slots spill over to slot 0 and beyond; erasing
  // before the wrap must shift them back across it.
  HomeTable t;  // up to 12 entries fit the first 16 slots
  const std::uint64_t x = key_at(14, 1), y = key_at(14, 2), z = key_at(15, 1);
  const std::uint64_t w = key_at(15, 2), v = key_at(0, 1);
  for (std::uint64_t k : {x, y, z, w, v}) t.try_emplace(k, 1);
  ASSERT_EQ(t.slot_count(), 16u);
  // Layout: 14:x 15:y 0:z 1:w 2:v.
  EXPECT_TRUE(t.erase(x));
  for (std::uint64_t k : {y, z, w, v}) EXPECT_TRUE(t.contains(k)) << k;
  EXPECT_TRUE(t.erase(z));
  for (std::uint64_t k : {y, w, v}) EXPECT_TRUE(t.contains(k)) << k;
  EXPECT_TRUE(t.erase(y));
  for (std::uint64_t k : {w, v}) EXPECT_TRUE(t.contains(k)) << k;
  EXPECT_EQ(t.size(), 2u);
}

TEST(FlatTable, ClearKeepsSlotsAndForgetsKeys) {
  HomeTable t;
  for (std::uint32_t i = 0; i < 40; ++i) t.try_emplace(key_at(i % 5, i), i);
  const std::size_t slots = t.slot_count();
  t.clear();
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.slot_count(), slots);
  for (std::uint32_t i = 0; i < 40; ++i) {
    EXPECT_FALSE(t.contains(key_at(i % 5, i)));
  }
  EXPECT_TRUE(t.try_emplace(key_at(1, 1), 5).second);
  EXPECT_EQ(*t.find(key_at(1, 1)), 5u);
  EXPECT_EQ(t.size(), 1u);
}

/// Homes in the last 7 slots, whatever the table size: every run wraps.
struct CrowdedTraits {
  static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};
  static std::uint64_t hash(std::uint64_t key) noexcept { return ~(key % 7); }
};

TEST(FlatTable, RandomizedAgainstUnorderedMap) {
  // Few homes and many keys: long clustered runs that wrap, exercising
  // every erase path. Interleaves growth, erase and clear.
  FlatTable<std::uint64_t, std::uint64_t, CrowdedTraits> t;
  std::unordered_map<std::uint64_t, std::uint64_t> ref;
  Rng rng(42);
  for (int step = 0; step < 60000; ++step) {
    const std::uint64_t key = rng.next_below(300);
    const std::uint64_t op = rng.next_below(100);
    if (op < 45) {
      const auto [v, inserted] = t.try_emplace(key, step);
      const auto [it, ref_inserted] = ref.try_emplace(key, step);
      ASSERT_EQ(inserted, ref_inserted);
      ASSERT_EQ(*v, it->second);
    } else if (op < 85) {
      ASSERT_EQ(t.erase(key), ref.erase(key) == 1);
    } else if (op < 99) {
      const std::uint64_t* v = t.find(key);
      const auto it = ref.find(key);
      ASSERT_EQ(v != nullptr, it != ref.end());
      if (v != nullptr) {
        ASSERT_EQ(*v, it->second);
      }
    } else if (rng.next_below(20) == 0) {
      t.clear();
      ref.clear();
    }
    ASSERT_EQ(t.size(), ref.size());
  }
  for (const auto& [k, v] : ref) {
    ASSERT_NE(t.find(k), nullptr);
    EXPECT_EQ(*t.find(k), v);
  }
}

}  // namespace
}  // namespace epicast
