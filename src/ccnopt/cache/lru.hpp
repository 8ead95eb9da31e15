// Least-recently-used replacement on an intrusive array-backed list: the
// recency chain lives in contiguous index vectors (no per-node heap
// allocation) and membership is a ContentIndex — dense id -> slot array for
// small catalogs, capacity-proportional robin-hood table when the catalog
// dwarfs the capacity — so every operation is O(1) with cache-friendly
// accesses. Slots are recycled in place on eviction, so the arrays never
// exceed `capacity` entries.
//
// tests/golden/cache_replays.txt pins its per-request hits and sizes,
// final stats and contents on every replay of tests/test_cache_equivalence.
#pragma once

#include "ccnopt/cache/content_index.hpp"
#include "ccnopt/cache/policy.hpp"

namespace ccnopt::cache {

class LruCache final : public CachePolicy {
 public:
  explicit LruCache(std::size_t capacity, IndexSpec index = {});

  std::size_t size() const override { return size_; }
  bool contains(ContentId id) const override {
    return slots_.find(id) != ContentIndex::kNoSlot;
  }
  /// Most recently used first.
  std::vector<ContentId> contents() const override;
  void clear() override;
  void prefetch(ContentId id) const override { slots_.prefetch(id); }
  const char* name() const override { return "lru"; }

  bool index_is_sparse() const { return slots_.sparse_active(); }
  std::size_t index_table_size() const { return slots_.sparse_table_size(); }

 protected:
  bool handle(ContentId id) override;

 private:
  static constexpr std::uint32_t kNull = ContentIndex::kNoSlot;

  void unlink(std::uint32_t slot);
  void push_front(std::uint32_t slot);

  std::vector<ContentId> ids_;       // slot -> content id
  std::vector<std::uint32_t> prev_;  // slot -> more recent neighbour
  std::vector<std::uint32_t> next_;  // slot -> less recent neighbour
  std::uint32_t head_ = kNull;       // most recently used
  std::uint32_t tail_ = kNull;       // least recently used
  std::uint32_t size_ = 0;
  ContentIndex slots_;
};

}  // namespace ccnopt::cache
