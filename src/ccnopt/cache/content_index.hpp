// The membership index behind the flat cache policies: one interface over
// the dense SlotMap (array indexed by content id, O(max id) memory, single
// load per lookup) and the SparseSlotMap (robin-hood table, O(capacity)
// memory). The policies pick a side once at construction from an IndexSpec
// and the choice never changes, so the per-request branch is perfectly
// predicted.
//
// kAuto resolves to sparse when the dense table would be large (at least
// kDenseBudgetBytes: one 4-byte slot per catalog id) and mostly empty
// (the catalog at least kSparseRatio times the capacity) — the paper's
// c << N regime, where at N = 10^6 every router's dense table is 4 MB.
// A smaller dense table stays in the core's private caches, and there its
// single-load lookup beats the robin-hood probe; the 512 KiB budget sits
// where the measured serve loop changes sides (DESIGN.md §10). The choice
// never changes what a cache holds, only how its membership is looked up.
#pragma once

#include <cstdint>

#include "ccnopt/cache/policy.hpp"
#include "ccnopt/cache/slot_map.hpp"
#include "ccnopt/cache/sparse_slot_map.hpp"

namespace ccnopt::cache {

class ContentIndex {
 public:
  static constexpr std::uint32_t kNoSlot = SlotMap::kNoSlot;
  static_assert(SlotMap::kNoSlot == SparseSlotMap::kNoSlot);

  /// Dense-table size (catalog x 4 B) below which kAuto stays dense.
  static constexpr std::uint64_t kDenseBudgetBytes = 1ull << 19;
  /// Minimum catalog/capacity ratio for kAuto to go sparse.
  static constexpr std::uint64_t kSparseRatio = 64;

  ContentIndex(IndexSpec spec, std::size_t capacity)
      : sparse_active_(choose_sparse(spec, capacity)),
        // capacity + 1: a miss on a full cache places the new id before
        // the victim is erased.
        sparse_(sparse_active_ ? capacity + 1 : 0) {}

  bool sparse_active() const { return sparse_active_; }
  /// Cells of the sparse table (0 while dense), for growth tests.
  std::size_t sparse_table_size() const {
    return sparse_active_ ? sparse_.table_size() : 0;
  }

  std::uint32_t find(ContentId id) const {
    return sparse_active_ ? sparse_.find(id) : dense_.find(id);
  }

  /// The policies' one membership probe per request: the slot of `id`
  /// when present, else `id` is mapped to `slot` and kNoSlot returned.
  std::uint32_t find_or_insert(ContentId id, std::uint32_t slot) {
    return sparse_active_ ? sparse_.find_or_insert(id, slot)
                          : dense_.find_or_insert(id, slot);
  }

  void erase(ContentId id) {
    if (sparse_active_) {
      sparse_.erase(id);
    } else {
      dense_.erase(id);
    }
  }

  /// Removes the `count` live ids in `ids[0..count)` from the index. The
  /// sparse side wipes its O(capacity) table outright; the dense side
  /// erases per id — either way the cost is bounded by the cache capacity,
  /// never by the catalog (the reset()-path guarantee CachePolicy::clear()
  /// documents).
  void clear(const ContentId* ids, std::size_t count) {
    if (sparse_active_) {
      sparse_.clear();
    } else {
      for (std::size_t i = 0; i < count; ++i) dense_.erase(ids[i]);
    }
  }

  void prefetch(ContentId id) const {
    if (sparse_active_) {
      sparse_.prefetch(id);
    } else {
      dense_.prefetch(id);
    }
  }

 private:
  static bool choose_sparse(IndexSpec spec, std::size_t capacity) {
    switch (spec.mode) {
      case IndexMode::kDense:
        return false;
      case IndexMode::kSparse:
        return true;
      case IndexMode::kAuto:
        break;
    }
    // An unknown catalog (hint 0) falls under the budget too.
    if (spec.catalog_hint < kDenseBudgetBytes / sizeof(std::uint32_t)) {
      return false;
    }
    const std::uint64_t floor_capacity =
        capacity == 0 ? 1 : static_cast<std::uint64_t>(capacity);
    return spec.catalog_hint / floor_capacity >= kSparseRatio;
  }

  bool sparse_active_;
  SlotMap dense_;
  SparseSlotMap sparse_;
};

}  // namespace ccnopt::cache
