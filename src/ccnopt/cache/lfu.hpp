// Least-frequently-used replacement with O(1) operations on an intrusive
// frequency list (the Ketabi/Shokrollahi structure flattened into arrays):
// entries are slots in contiguous vectors linked by index, frequency
// buckets are pool-allocated nodes chained in ascending frequency order,
// and membership is a ContentIndex (dense or sparse ContentId -> slot
// table, decided by one find_or_insert per request). No per-request heap
// allocation and no std::map — bump, insert, and evict all touch a handful
// of contiguous words.
//
// Each frequency bucket is an LRU list (most recent at head); eviction
// takes the least-recent entry of the lowest-frequency bucket, and
// tests/golden/cache_replays.txt pins that behaviour. Under a stationary
// Zipf stream the policy converges to holding the top-capacity ranks — the
// paper's steady-state non-coordinated store (Section II's "canonical
// caching policy based on frequency").
#pragma once

#include "ccnopt/cache/content_index.hpp"
#include "ccnopt/cache/policy.hpp"

namespace ccnopt::cache {

class LfuCache final : public CachePolicy {
 public:
  explicit LfuCache(std::size_t capacity, IndexSpec index = {});

  std::size_t size() const override { return size_; }
  bool contains(ContentId id) const override {
    return slots_.find(id) != ContentIndex::kNoSlot;
  }
  std::vector<ContentId> contents() const override;
  void clear() override;
  void prefetch(ContentId id) const override { slots_.prefetch(id); }
  const char* name() const override { return "lfu"; }

  /// Request count of `id` if cached, 0 otherwise (for tests).
  std::uint64_t frequency(ContentId id) const;

  bool index_is_sparse() const { return slots_.sparse_active(); }

 protected:
  bool handle(ContentId id) override;

 private:
  static constexpr std::uint32_t kNull = ContentIndex::kNoSlot;

  /// One frequency bucket: an intrusive LRU list of entry slots plus its
  /// position in the ascending-frequency bucket chain.
  struct Bucket {
    std::uint64_t freq = 0;
    std::uint32_t head = kNull;  // most recent entry
    std::uint32_t tail = kNull;  // least recent entry
    std::uint32_t prev = kNull;  // bucket with next-lower frequency
    std::uint32_t next = kNull;  // bucket with next-higher frequency
  };

  void bump(std::uint32_t slot);
  void detach(std::uint32_t slot);
  void attach_front(std::uint32_t slot, std::uint32_t bucket);
  std::uint32_t alloc_bucket(std::uint64_t freq);
  void free_bucket(std::uint32_t bucket);

  // Entry state, slot-indexed.
  std::vector<ContentId> ids_;
  std::vector<std::uint32_t> prev_;    // within-bucket links
  std::vector<std::uint32_t> next_;
  std::vector<std::uint32_t> bucket_;  // slot -> owning bucket node
  // Bucket pool (free-listed); lowest_ is the minimum-frequency bucket.
  std::vector<Bucket> buckets_;
  std::vector<std::uint32_t> free_buckets_;
  std::uint32_t lowest_ = kNull;
  std::uint32_t size_ = 0;
  ContentIndex slots_;
};

}  // namespace ccnopt::cache
