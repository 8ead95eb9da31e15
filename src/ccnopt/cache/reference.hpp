// Reference replacement-policy implementations: the original node-based
// LRU/LFU/FIFO structures (std::list / std::map / std::deque) retained as
// behavioural oracles for the flat intrusive rewrites in lru.hpp, lfu.hpp,
// and fifo.hpp.
//
// The contract: for any request stream, a reference policy and its flat
// counterpart produce identical hit/miss results, identical eviction and
// insertion counts, and identical resident sets (identical iteration order
// too for LRU and FIFO). tests/test_cache_equivalence.cpp replays random
// and adversarial streams through both; bench_throughput_caches times the
// two side by side.
//
// These are not built for speed — the simulator never uses them.
#pragma once

#include <deque>
#include <list>
#include <map>
#include <unordered_map>
#include <unordered_set>

#include "ccnopt/cache/policy.hpp"

namespace ccnopt::cache {

/// Classic list + hash-map LRU, O(1) per operation.
class ReferenceLruCache final : public CachePolicy {
 public:
  explicit ReferenceLruCache(std::size_t capacity) : CachePolicy(capacity) {}

  std::size_t size() const override { return index_.size(); }
  bool contains(ContentId id) const override { return index_.count(id) > 0; }
  std::vector<ContentId> contents() const override;
  void clear() override {
    order_.clear();
    index_.clear();
  }
  const char* name() const override { return "lru"; }

 protected:
  bool handle(ContentId id) override;

 private:
  // Front = most recently used.
  std::list<ContentId> order_;
  std::unordered_map<ContentId, std::list<ContentId>::iterator> index_;
};

/// Frequency-bucket LFU over std::map (ordered buckets), ties broken by
/// recency within each bucket.
class ReferenceLfuCache final : public CachePolicy {
 public:
  explicit ReferenceLfuCache(std::size_t capacity) : CachePolicy(capacity) {}

  std::size_t size() const override { return index_.size(); }
  bool contains(ContentId id) const override { return index_.count(id) > 0; }
  std::vector<ContentId> contents() const override;
  void clear() override {
    buckets_.clear();
    index_.clear();
  }
  const char* name() const override { return "lfu"; }

  /// Request count of `id` if cached, 0 otherwise (for tests).
  std::uint64_t frequency(ContentId id) const;

 protected:
  bool handle(ContentId id) override;

 private:
  struct Entry {
    std::uint64_t frequency;
    std::list<ContentId>::iterator position;
  };
  // frequency -> ids at that frequency, most recent at front.
  std::map<std::uint64_t, std::list<ContentId>> buckets_;
  std::unordered_map<ContentId, Entry> index_;

  void bump(ContentId id, Entry& entry);
};

/// Deque + hash-set FIFO.
class ReferenceFifoCache final : public CachePolicy {
 public:
  explicit ReferenceFifoCache(std::size_t capacity) : CachePolicy(capacity) {}

  std::size_t size() const override { return members_.size(); }
  bool contains(ContentId id) const override { return members_.count(id) > 0; }
  std::vector<ContentId> contents() const override {
    return {order_.begin(), order_.end()};
  }
  void clear() override {
    order_.clear();
    members_.clear();
  }
  const char* name() const override { return "fifo"; }

 protected:
  bool handle(ContentId id) override;

 private:
  std::deque<ContentId> order_;  // front = oldest
  std::unordered_set<ContentId> members_;
};

/// Factory mirroring make_policy() but returning the reference
/// implementation of `kind` (Random has no flat rewrite; both factories
/// return the same RandomCache).
std::unique_ptr<CachePolicy> make_reference_policy(PolicyKind kind,
                                                   std::size_t capacity,
                                                   std::uint64_t seed = 1);

}  // namespace ccnopt::cache
