#include "ccnopt/cache/sparse_slot_map.hpp"

#include <gtest/gtest.h>

#include <unordered_map>
#include <vector>

#include "ccnopt/cache/content_index.hpp"
#include "ccnopt/cache/lru.hpp"
#include "ccnopt/common/random.hpp"

namespace ccnopt::cache {
namespace {

TEST(SparseSlotMap, InsertFindErase) {
  SparseSlotMap map(8);
  EXPECT_EQ(map.size(), 0u);
  EXPECT_EQ(map.find(42), SparseSlotMap::kNoSlot);

  EXPECT_EQ(map.find_or_insert(42, 7), SparseSlotMap::kNoSlot);
  EXPECT_EQ(map.find_or_insert(1000000007ull, 3), SparseSlotMap::kNoSlot);
  EXPECT_EQ(map.size(), 2u);
  EXPECT_EQ(map.find(42), 7u);
  EXPECT_EQ(map.find(1000000007ull), 3u);
  EXPECT_EQ(map.find(43), SparseSlotMap::kNoSlot);

  map.erase(42);
  EXPECT_EQ(map.size(), 1u);
  EXPECT_EQ(map.find(42), SparseSlotMap::kNoSlot);
  EXPECT_EQ(map.find(1000000007ull), 3u);
  map.erase(42);  // double erase is a no-op
  EXPECT_EQ(map.size(), 1u);
}

TEST(SparseSlotMap, FindOrInsertKeepsPresentSlot) {
  // A present id answers with its slot and leaves the table as it was:
  // the offered slot is dropped, nothing moves, nothing grows.
  SparseSlotMap map(4);
  EXPECT_EQ(map.find_or_insert(5, 1), SparseSlotMap::kNoSlot);
  EXPECT_EQ(map.find_or_insert(6, 2), SparseSlotMap::kNoSlot);
  const std::size_t table = map.table_size();
  EXPECT_EQ(map.find_or_insert(5, 9), 1u);
  EXPECT_EQ(map.size(), 2u);
  EXPECT_EQ(map.table_size(), table);
  EXPECT_EQ(map.find(5), 1u);
  EXPECT_EQ(map.find(6), 2u);
}

TEST(SparseSlotMap, FindOrInsertPlacesAbsentId) {
  SparseSlotMap map(16);
  for (ContentId id = 1; id <= 16; ++id) {
    // Low 28 bits zero: the multiplicative bucket reads the top bits.
    const ContentId key = id * 0x10000000ull;
    ASSERT_EQ(map.find(key), SparseSlotMap::kNoSlot);
    ASSERT_EQ(map.find_or_insert(key, static_cast<std::uint32_t>(id)),
              SparseSlotMap::kNoSlot);
    ASSERT_EQ(map.find(key), static_cast<std::uint32_t>(id));
  }
  EXPECT_EQ(map.size(), 16u);
  for (ContentId id = 1; id <= 16; ++id) {
    EXPECT_EQ(map.find(id * 0x10000000ull), static_cast<std::uint32_t>(id));
  }
}

TEST(SparseSlotMap, FindOrInsertGrowsOnlyPastHalfLoad) {
  // A table of 16 cells holds 8 ids; the 9th crosses
  // (entries + 1) * 2 > table_size and doubles the table first.
  SparseSlotMap map(8);
  ASSERT_EQ(map.table_size(), 16u);
  for (ContentId id = 1; id <= 8; ++id) {
    ASSERT_EQ(map.find_or_insert(id, static_cast<std::uint32_t>(id)),
              SparseSlotMap::kNoSlot);
  }
  EXPECT_EQ(map.table_size(), 16u);
  // A hit at the boundary returns before the growth check.
  EXPECT_EQ(map.find_or_insert(8, 99), 8u);
  EXPECT_EQ(map.table_size(), 16u);
  EXPECT_EQ(map.find_or_insert(9, 9), SparseSlotMap::kNoSlot);
  EXPECT_EQ(map.table_size(), 32u);
  EXPECT_EQ(map.size(), 9u);
  for (ContentId id = 1; id <= 9; ++id) {
    EXPECT_EQ(map.find(id), static_cast<std::uint32_t>(id));
  }
}

TEST(SparseSlotMap, ClearIsTableSized) {
  SparseSlotMap map(100);
  const std::size_t table = map.table_size();
  for (ContentId id = 1; id <= 100; ++id) {
    map.find_or_insert(id * 1000003ull, static_cast<std::uint32_t>(id));
  }
  map.clear();
  EXPECT_EQ(map.size(), 0u);
  // clear() never shrinks or grows: the table stays sized for the capacity
  // it was built for.
  EXPECT_EQ(map.table_size(), table);
  for (ContentId id = 1; id <= 100; ++id) {
    EXPECT_EQ(map.find(id * 1000003ull), SparseSlotMap::kNoSlot);
  }
  EXPECT_EQ(map.find_or_insert(7, 7), SparseSlotMap::kNoSlot);
  EXPECT_EQ(map.find(7), 7u);
}

TEST(SparseSlotMap, GrowsBeyondExpectedEntries) {
  SparseSlotMap map(0);
  for (ContentId id = 1; id <= 5000; ++id) {
    map.find_or_insert(id, static_cast<std::uint32_t>(id % 997));
  }
  EXPECT_EQ(map.size(), 5000u);
  for (ContentId id = 1; id <= 5000; ++id) {
    ASSERT_EQ(map.find(id), static_cast<std::uint32_t>(id % 997)) << id;
  }
}

TEST(SparseSlotMap, MemoryIsCapacityProportional) {
  // The promise the simulator relies on: table size tracks the expected
  // entry count, not the id universe the keys are drawn from.
  SparseSlotMap map(1000);
  const std::size_t table = map.table_size();
  EXPECT_LE(table, 4096u);
  for (ContentId id = 0; id < 1000; ++id) {
    map.find_or_insert(id * 10000019ull + 1, static_cast<std::uint32_t>(id));
  }
  EXPECT_EQ(map.table_size(), table);  // no rehash at <= 50% load
}

TEST(SparseSlotMap, RandomizedAgainstReferenceMap) {
  // Lock-step fuzz against std::unordered_map over a huge sparse id space,
  // exercising backward-shift deletion under heavy churn. One
  // find_or_insert in six re-offers a live id, which must answer with its
  // slot and change nothing.
  SparseSlotMap map(256);
  std::unordered_map<ContentId, std::uint32_t> reference;
  Rng rng(20240806);
  std::vector<ContentId> live;
  for (int step = 0; step < 50000; ++step) {
    const double roll = rng.uniform();
    if (roll < 0.6 || live.empty()) {
      const bool reoffer = !live.empty() && roll >= 0.5;
      const ContentId id =
          reoffer ? live[static_cast<std::size_t>(
                        rng.uniform_int(0, live.size() - 1))]
                  : rng.uniform_int(1, 1000000000000ull);
      const auto slot = static_cast<std::uint32_t>(step);
      const auto [it, inserted] = reference.emplace(id, slot);
      ASSERT_EQ(map.find_or_insert(id, slot),
                inserted ? SparseSlotMap::kNoSlot : it->second);
      if (inserted) live.push_back(id);
    } else if (roll < 0.85) {
      const std::size_t pick =
          static_cast<std::size_t>(rng.uniform_int(0, live.size() - 1));
      const ContentId id = live[pick];
      map.erase(id);
      reference.erase(id);
      live[pick] = live.back();
      live.pop_back();
    } else {
      const std::size_t pick =
          static_cast<std::size_t>(rng.uniform_int(0, live.size() - 1));
      ASSERT_EQ(map.find(live[pick]), reference.at(live[pick]));
      // Also probe a (almost surely) absent id.
      const ContentId ghost = rng.uniform_int(1, 1000000000000ull);
      if (reference.find(ghost) == reference.end()) {
        ASSERT_EQ(map.find(ghost), SparseSlotMap::kNoSlot);
      }
    }
    ASSERT_EQ(map.size(), reference.size());
  }
  for (const auto& [id, slot] : reference) {
    ASSERT_EQ(map.find(id), slot);
  }
}

TEST(SparseSlotMap, PrefetchIsSideEffectFree) {
  SparseSlotMap map(16);
  map.find_or_insert(3, 1);
  map.prefetch(3);
  map.prefetch(999999999ull);
  EXPECT_EQ(map.find(3), 1u);
  EXPECT_EQ(map.size(), 1u);
}

TEST(ContentIndex, AutoRuleSelectsSparseOnlyAtScale) {
  // kAuto goes sparse exactly when the dense table would reach
  // kDenseBudgetBytes (catalog x 4 B >= 512 KiB, so catalog >= 2^17) and
  // catalog/capacity >= kSparseRatio (64).
  const auto auto_sparse = [](std::uint64_t catalog, std::size_t capacity) {
    return ContentIndex(IndexSpec{IndexMode::kAuto, catalog}, capacity)
        .sparse_active();
  };
  static_assert(ContentIndex::kDenseBudgetBytes == 512 * 1024);
  static_assert(ContentIndex::kSparseRatio == 64);
  // The budget boundary, far past 64x the capacity on both sides.
  EXPECT_TRUE(auto_sparse(131072, 100));
  EXPECT_FALSE(auto_sparse(131071, 100));
  // Small tables stay dense however empty: the CLI's and the serve
  // bench's default (20000 contents, 100-entry local partitions).
  EXPECT_FALSE(auto_sparse(20000, 200));
  EXPECT_FALSE(auto_sparse(20000, 1));
  // The ratio boundary, past the budget.
  EXPECT_TRUE(auto_sparse(1000000, 15625));   // exactly 64x
  EXPECT_FALSE(auto_sparse(1000000, 15626));  // just under 64x
  EXPECT_TRUE(auto_sparse(10000000, 1000));
  // The paper's Table IV scale: each router's 63-entry LRU partition.
  EXPECT_TRUE(auto_sparse(1000000, 63));
  // Capacity within 64x of the catalog: dense stays affordable.
  EXPECT_FALSE(auto_sparse(10000000, 1000000));
  // An unknown catalog (hint 0) stays dense at any capacity.
  EXPECT_FALSE(auto_sparse(0, 200));
  EXPECT_FALSE(auto_sparse(0, 0));
  // Capacity 0 divides as capacity 1.
  EXPECT_TRUE(auto_sparse(131072, 0));
  // Forcing wins over the rule in both directions.
  EXPECT_TRUE(ContentIndex(IndexSpec{IndexMode::kSparse, 0}, 10)
                  .sparse_active());
  EXPECT_TRUE(ContentIndex(IndexSpec{IndexMode::kSparse, 100}, 100)
                  .sparse_active());
  EXPECT_FALSE(ContentIndex(IndexSpec{IndexMode::kDense, 10000000}, 10)
                   .sparse_active());
  EXPECT_FALSE(ContentIndex(IndexSpec{IndexMode::kDense, 1000000}, 63)
                   .sparse_active());
}

TEST(ContentIndex, SparseAndDenseAgree) {
  ContentIndex dense(IndexSpec{IndexMode::kDense, 0}, 64);
  ContentIndex sparse(IndexSpec{IndexMode::kSparse, 0}, 64);
  Rng rng(7);
  std::vector<ContentId> inserted;
  for (int step = 0; step < 2000; ++step) {
    const ContentId id = rng.uniform_int(1, 100000ull);
    const auto slot = static_cast<std::uint32_t>(step % 64);
    ASSERT_EQ(dense.find_or_insert(id, slot), sparse.find_or_insert(id, slot));
    inserted.push_back(id);
    const ContentId probe =
        inserted[static_cast<std::size_t>(rng.uniform_int(0, inserted.size() - 1))];
    ASSERT_EQ(dense.find(probe), sparse.find(probe));
    if (step % 3 == 0) {
      dense.erase(id);
      sparse.erase(id);
      ASSERT_EQ(dense.find(id), sparse.find(id));
    }
  }
}

TEST(ContentIndex, LruChurnNeverRehashesTheSparseTable) {
  // Every miss on a full LRU places the new id before erasing the victim,
  // so the table briefly holds capacity + 1 ids; it is sized for that and
  // keeps its size through any churn.
  for (const std::size_t capacity : {1u, 63u, 64u, 100u, 1000u}) {
    LruCache lru(capacity, IndexSpec{IndexMode::kSparse, 0});
    ASSERT_TRUE(lru.index_is_sparse());
    const std::size_t table = lru.index_table_size();
    for (ContentId id = 1; id <= 100000; ++id) {
      ASSERT_FALSE(lru.admit(id)) << "capacity " << capacity;
    }
    EXPECT_EQ(lru.size(), capacity);
    EXPECT_EQ(lru.index_table_size(), table) << "capacity " << capacity;
    EXPECT_TRUE(lru.contains(100000));
    EXPECT_EQ(lru.contains(100000 - capacity), false);
  }
}

}  // namespace
}  // namespace ccnopt::cache
