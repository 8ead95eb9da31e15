// Dense ContentId -> slot table backing the flat cache policies.
//
// Simulator content ids are Zipf ranks: 1-based, contiguous, bounded by the
// catalog size. An array indexed by id therefore resolves membership with a
// single load instead of a hash + probe per request. The table grows on
// demand (amortized doubling), and ids beyond kDenseLimit — possible only in
// synthetic/adversarial streams, never in the simulator — spill into a hash
// map so correctness holds for arbitrary 64-bit ids without unbounded
// memory.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "ccnopt/cache/policy.hpp"

namespace ccnopt::cache {

class SlotMap {
 public:
  static constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;

  std::uint32_t find(ContentId id) const {
    if (id < dense_.size()) return dense_[id];
    if (id < kDenseLimit) return kNoSlot;
    const auto it = overflow_.find(id);
    return it == overflow_.end() ? kNoSlot : it->second;
  }

  /// Returns the slot of `id` when present; otherwise maps `id` to `slot`
  /// and returns kNoSlot.
  std::uint32_t find_or_insert(ContentId id, std::uint32_t slot) {
    if (id >= kDenseLimit) {
      const auto [it, inserted] = overflow_.try_emplace(id, slot);
      return inserted ? kNoSlot : it->second;
    }
    if (id >= dense_.size()) grow(id);
    std::uint32_t& cell = dense_[id];
    if (cell != kNoSlot) return cell;
    cell = slot;
    return kNoSlot;
  }

  void erase(ContentId id) {
    if (id < dense_.size()) {
      dense_[id] = kNoSlot;
    } else if (id >= kDenseLimit) {
      overflow_.erase(id);
    }
  }

  /// Hints the id's table cell into cache ahead of a find/insert.
  void prefetch(ContentId id) const {
#if defined(__GNUC__) || defined(__clang__)
    if (id < dense_.size()) __builtin_prefetch(&dense_[id]);
#else
    (void)id;
#endif
  }

 private:
  // 16M dense ids (64 MB worst case), reached only by actually admitting
  // ids that large; the simulator's catalogs sit far below this.
  static constexpr ContentId kDenseLimit = 1ull << 24;

  void grow(ContentId id) {
    std::size_t next = dense_.empty() ? 64 : dense_.size() * 2;
    while (next <= id) next *= 2;
    if (next > kDenseLimit) next = kDenseLimit;
    dense_.resize(next, kNoSlot);
  }

  std::vector<std::uint32_t> dense_;
  std::unordered_map<ContentId, std::uint32_t> overflow_;
};

}  // namespace ccnopt::cache
