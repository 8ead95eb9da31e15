#include "ccnopt/cache/sparse_slot_map.hpp"

#include <gtest/gtest.h>

#include <unordered_map>
#include <vector>

#include "ccnopt/cache/content_index.hpp"
#include "ccnopt/common/random.hpp"

namespace ccnopt::cache {
namespace {

TEST(SparseSlotMap, InsertFindErase) {
  SparseSlotMap map(8);
  EXPECT_EQ(map.size(), 0u);
  EXPECT_EQ(map.find(42), SparseSlotMap::kNoSlot);

  map.insert(42, 7);
  map.insert(1000000007ull, 3);
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

TEST(SparseSlotMap, OverwriteExistingKey) {
  SparseSlotMap map(4);
  map.insert(5, 1);
  map.insert(5, 9);
  EXPECT_EQ(map.size(), 1u);
  EXPECT_EQ(map.find(5), 9u);
}

TEST(SparseSlotMap, ClearIsTableSized) {
  SparseSlotMap map(100);
  const std::size_t table = map.table_size();
  for (ContentId id = 1; id <= 100; ++id) {
    map.insert(id * 1000003ull, static_cast<std::uint32_t>(id));
  }
  map.clear();
  EXPECT_EQ(map.size(), 0u);
  // clear() never shrinks or grows: the table stays sized for the capacity
  // it was built for.
  EXPECT_EQ(map.table_size(), table);
  for (ContentId id = 1; id <= 100; ++id) {
    EXPECT_EQ(map.find(id * 1000003ull), SparseSlotMap::kNoSlot);
  }
  map.insert(7, 7);
  EXPECT_EQ(map.find(7), 7u);
}

TEST(SparseSlotMap, GrowsBeyondExpectedEntries) {
  SparseSlotMap map(0);
  for (ContentId id = 1; id <= 5000; ++id) {
    map.insert(id, static_cast<std::uint32_t>(id % 997));
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
    map.insert(id * 10000019ull + 1, static_cast<std::uint32_t>(id));
  }
  EXPECT_EQ(map.table_size(), table);  // no rehash at <= 50% load
}

TEST(SparseSlotMap, RandomizedAgainstReferenceMap) {
  // Lock-step fuzz against std::unordered_map over a huge sparse id space,
  // exercising backward-shift deletion under heavy churn.
  SparseSlotMap map(256);
  std::unordered_map<ContentId, std::uint32_t> reference;
  Rng rng(20240806);
  std::vector<ContentId> live;
  for (int step = 0; step < 50000; ++step) {
    const double roll = rng.uniform();
    if (roll < 0.5 || live.empty()) {
      const ContentId id = rng.uniform_int(1, 1000000000000ull);
      const auto slot = static_cast<std::uint32_t>(step);
      map.insert(id, slot);
      if (reference.emplace(id, slot).second == false) {
        reference[id] = slot;
      } else {
        live.push_back(id);
      }
    } else if (roll < 0.8) {
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
  map.insert(3, 1);
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
    dense.insert(id, slot);
    sparse.insert(id, slot);
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

}  // namespace
}  // namespace ccnopt::cache
