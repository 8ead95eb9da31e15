// The paper's split content store (Section III-B): of a router's capacity
// c, the c - x "local" partition runs a canonical replacement policy over
// whatever the router sees, and the x "coordinated" partition holds the
// contents assigned by the network coordinator. Lookups consult both;
// misses only ever admit into the local partition (the coordinated one
// changes only at coordinator epochs).
#pragma once

#include <memory>
#include <unordered_set>

#include "ccnopt/cache/policy.hpp"

namespace ccnopt::cache {

class PartitionedStore final : public CachePolicy {
 public:
  /// `local` must have capacity total_capacity - coordinated_capacity;
  /// `coordinated_ids.size()` must not exceed coordinated_capacity.
  PartitionedStore(std::size_t total_capacity,
                   std::size_t coordinated_capacity,
                   std::unique_ptr<CachePolicy> local,
                   std::vector<ContentId> coordinated_ids);

  std::size_t size() const override {
    return local_->size() + coordinated_.size();
  }
  bool contains(ContentId id) const override {
    return coordinated_.count(id) > 0 || local_->contains(id);
  }
  std::vector<ContentId> contents() const override;
  /// Clears the local partition only; the coordinated set is owned by the
  /// coordinator and changes exclusively at assign_coordinated() epochs.
  void clear() override { local_->clear(); }
  /// Forwarded to the local partition's membership index. The coordinated
  /// set needs none: the simulator decides coordinated membership from its
  /// owner table (admit(id, coordinated)), which it prefetches itself.
  void prefetch(ContentId id) const override { local_->prefetch(id); }
  const char* name() const override { return "partitioned"; }

  std::size_t coordinated_capacity() const { return coordinated_capacity_; }
  const CachePolicy& local() const { return *local_; }

  bool coordinated_contains(ContentId id) const {
    return coordinated_.count(id) > 0;
  }
  std::vector<ContentId> coordinated_contents() const {
    return {coordinated_.begin(), coordinated_.end()};
  }

  using CachePolicy::admit;
  /// admit() with the coordinated-partition verdict decided by the caller:
  /// `coordinated` must equal coordinated_contains(id), as the simulator's
  /// owner table does for the router it names. A coordinated hit touches
  /// nothing else; otherwise the local partition admits. Stats accrue
  /// exactly as admit(id) — without probing the coordinated set.
  bool admit(ContentId id, bool coordinated) {
    return record(coordinated || local_->admit(id));
  }

  /// Coordinator epoch update: replaces the coordinated partition.
  /// Requires ids.size() <= coordinated_capacity().
  void assign_coordinated(const std::vector<ContentId>& ids);

 protected:
  bool handle(ContentId id) override;

 private:
  std::size_t coordinated_capacity_;
  std::unique_ptr<CachePolicy> local_;
  std::unordered_set<ContentId> coordinated_;
};

}  // namespace ccnopt::cache
