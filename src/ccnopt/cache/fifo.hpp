// First-in-first-out replacement on a flat ring buffer: insertion order
// lives in a contiguous vector cycled by an `oldest` cursor, membership in
// a ContentIndex (dense or sparse ContentId -> slot table, decided by one
// find_or_insert per request). No recency update, no per-node
// allocation; every operation is O(1).
//
// tests/golden/cache_replays.txt pins its behaviour.
#pragma once

#include "ccnopt/cache/content_index.hpp"
#include "ccnopt/cache/policy.hpp"

namespace ccnopt::cache {

class FifoCache final : public CachePolicy {
 public:
  explicit FifoCache(std::size_t capacity, IndexSpec index = {});

  std::size_t size() const override { return size_; }
  bool contains(ContentId id) const override {
    return members_.find(id) != ContentIndex::kNoSlot;
  }
  /// Oldest first.
  std::vector<ContentId> contents() const override;
  void clear() override;
  void prefetch(ContentId id) const override { members_.prefetch(id); }
  const char* name() const override { return "fifo"; }

  bool index_is_sparse() const { return members_.sparse_active(); }

 protected:
  bool handle(ContentId id) override;

 private:
  std::vector<ContentId> ring_;  // insertion ring, ring_[oldest_] = oldest
  std::size_t oldest_ = 0;
  std::size_t size_ = 0;
  ContentIndex members_;
};

}  // namespace ccnopt::cache
