// Content-store replacement policies.
//
// A policy owns a bounded set of content ids (Zipf ranks). `admit` is the
// single entry point: it records a request, returns whether it hit, and on
// a miss inserts the content (evicting per policy). StaticCache is the
// exception — it never admits, modeling a provisioned (steady-state or
// coordinator-assigned) store.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "ccnopt/common/assert.hpp"
#include "ccnopt/common/error.hpp"

namespace ccnopt::cache {

using ContentId = std::uint64_t;

struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t insertions = 0;
  std::uint64_t evictions = 0;

  std::uint64_t requests() const { return hits + misses; }
  double hit_ratio() const {
    return requests() == 0
               ? 0.0
               : static_cast<double>(hits) / static_cast<double>(requests());
  }
  void reset() { *this = CacheStats{}; }
};

class CachePolicy {
 public:
  /// A zero-capacity policy is legal: every request misses and nothing is
  /// ever stored (router R0 in the paper's motivating example).
  explicit CachePolicy(std::size_t capacity) : capacity_(capacity) {}
  virtual ~CachePolicy() = default;
  CachePolicy(const CachePolicy&) = delete;
  CachePolicy& operator=(const CachePolicy&) = delete;

  std::size_t capacity() const { return capacity_; }
  virtual std::size_t size() const = 0;

  /// Non-mutating membership test (no recency/frequency update).
  virtual bool contains(ContentId id) const = 0;

  /// Records a request for `id`: returns true on hit (updating policy
  /// metadata), false on miss (inserting per policy, evicting if full).
  bool admit(ContentId id) { return record(handle(id)); }

  /// Snapshot of the stored ids, in no particular order.
  virtual std::vector<ContentId> contents() const = 0;

  /// Removes every stored content, keeping capacity and accumulated stats.
  /// Cost is proportional to the policy's own state (O(capacity) at most),
  /// never to the id space: a sparse-indexed cache over a 10^7 catalog must
  /// not touch 10^7 words to reset (see cache/content_index.hpp).
  virtual void clear() = 0;

  /// Hints the membership-lookup state of `id` into cache ahead of an
  /// admit()/contains() — issued by the simulator's windowed request
  /// engine one request ahead. Never mutates; default is a no-op.
  virtual void prefetch(ContentId id) const { (void)id; }

  const CacheStats& stats() const { return stats_; }
  void reset_stats() { stats_.reset(); }

  /// Policy name for reports ("lru", "lfu", ...).
  virtual const char* name() const = 0;

 protected:
  virtual bool handle(ContentId id) = 0;

  /// Counts one request's outcome and returns it: admit()'s bookkeeping,
  /// shared with entry points that decide part of the outcome without
  /// handle().
  bool record(bool hit) {
    if (hit) {
      ++stats_.hits;
    } else {
      ++stats_.misses;
    }
    CCNOPT_ENSURES(size() <= capacity());
    return hit;
  }

  void count_insertion() { ++stats_.insertions; }
  void count_eviction() { ++stats_.evictions; }

 private:
  std::size_t capacity_;
  CacheStats stats_;
};

enum class PolicyKind { kLru, kLfu, kFifo, kRandom };

const char* to_string(PolicyKind kind);

/// Membership-index selection for the flat intrusive policies (LRU/LFU/
/// FIFO). Dense is an array indexed by content id — one load per lookup but
/// O(max id) memory; sparse is a robin-hood table sized by the cache
/// capacity — O(capacity) memory at a small constant per lookup. kAuto
/// picks sparse exactly when the declared catalog dwarfs the capacity.
enum class IndexMode { kAuto, kDense, kSparse };

const char* to_string(IndexMode mode);

struct IndexSpec {
  IndexMode mode = IndexMode::kAuto;
  /// Catalog size the ids are drawn from; 0 = unknown (kAuto then stays
  /// dense, the historical behaviour).
  std::uint64_t catalog_hint = 0;
};

/// Factory for the replacement policies (StaticCache and PartitionedStore
/// have richer constructors and are created directly). Random policies draw
/// from `seed`; `index` selects the membership index of the flat policies
/// (ignored by kRandom, which is hash-based either way).
std::unique_ptr<CachePolicy> make_policy(PolicyKind kind, std::size_t capacity,
                                         std::uint64_t seed = 1,
                                         IndexSpec index = {});

}  // namespace ccnopt::cache
