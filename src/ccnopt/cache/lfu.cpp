#include "ccnopt/cache/lfu.hpp"

namespace ccnopt::cache {

LfuCache::LfuCache(std::size_t capacity, IndexSpec index)
    : CachePolicy(capacity), slots_(index, capacity) {
  CCNOPT_EXPECTS(capacity < kNull);
  ids_.resize(capacity);
  prev_.resize(capacity);
  next_.resize(capacity);
  bucket_.resize(capacity);
}

void LfuCache::clear() {
  // Slots [0, size_) are always live (evicted slots are reused
  // immediately), so the reset stays O(size + buckets), never O(catalog).
  slots_.clear(ids_.data(), size_);
  buckets_.clear();
  free_buckets_.clear();
  lowest_ = kNull;
  size_ = 0;
}

std::vector<ContentId> LfuCache::contents() const {
  std::vector<ContentId> out;
  out.reserve(size_);
  // Slots [0, size_) are always live: evicted slots are reused immediately.
  for (std::uint32_t slot = 0; slot < size_; ++slot) out.push_back(ids_[slot]);
  return out;
}

std::uint64_t LfuCache::frequency(ContentId id) const {
  const std::uint32_t slot = slots_.find(id);
  return slot == ContentIndex::kNoSlot ? 0 : buckets_[bucket_[slot]].freq;
}

std::uint32_t LfuCache::alloc_bucket(std::uint64_t freq) {
  std::uint32_t node;
  if (!free_buckets_.empty()) {
    node = free_buckets_.back();
    free_buckets_.pop_back();
  } else {
    node = static_cast<std::uint32_t>(buckets_.size());
    buckets_.emplace_back();
  }
  buckets_[node] = Bucket{freq, kNull, kNull, kNull, kNull};
  return node;
}

void LfuCache::free_bucket(std::uint32_t bucket) {
  Bucket& b = buckets_[bucket];
  (b.prev == kNull ? lowest_ : buckets_[b.prev].next) = b.next;
  if (b.next != kNull) buckets_[b.next].prev = b.prev;
  free_buckets_.push_back(bucket);
}

void LfuCache::detach(std::uint32_t slot) {
  Bucket& b = buckets_[bucket_[slot]];
  const std::uint32_t p = prev_[slot];
  const std::uint32_t n = next_[slot];
  (p == kNull ? b.head : next_[p]) = n;
  (n == kNull ? b.tail : prev_[n]) = p;
}

void LfuCache::attach_front(std::uint32_t slot, std::uint32_t bucket) {
  Bucket& b = buckets_[bucket];
  prev_[slot] = kNull;
  next_[slot] = b.head;
  if (b.head != kNull) prev_[b.head] = slot;
  b.head = slot;
  if (b.tail == kNull) b.tail = slot;
  bucket_[slot] = bucket;
}

void LfuCache::bump(std::uint32_t slot) {
  const std::uint32_t from = bucket_[slot];
  const std::uint64_t freq = buckets_[from].freq;
  detach(slot);
  const bool emptied = buckets_[from].head == kNull;
  const std::uint32_t higher = buckets_[from].next;
  std::uint32_t target;
  if (higher != kNull && buckets_[higher].freq == freq + 1) {
    target = higher;
    if (emptied) free_bucket(from);
  } else if (emptied) {
    // Reuse the emptied bucket in place: its chain position stays valid
    // because the next bucket (if any) has frequency > freq + 1.
    buckets_[from].freq = freq + 1;
    target = from;
  } else {
    target = alloc_bucket(freq + 1);
    Bucket& t = buckets_[target];
    t.prev = from;
    t.next = higher;
    buckets_[from].next = target;
    if (higher != kNull) buckets_[higher].prev = target;
  }
  attach_front(slot, target);
}

bool LfuCache::handle(ContentId id) {
  if (capacity() == 0) return false;
  // A miss fills the least-frequent bucket's least-recent slot once full,
  // the next free one before; one probe decides the request and, on a
  // miss, maps the id there.
  const bool full = size_ == capacity();
  const std::uint32_t slot = full ? buckets_[lowest_].tail : size_;
  const std::uint32_t found = slots_.find_or_insert(id, slot);
  if (found != ContentIndex::kNoSlot) {
    bump(found);
    return true;
  }
  if (full) {
    detach(slot);
    if (buckets_[lowest_].head == kNull) free_bucket(lowest_);
    slots_.erase(ids_[slot]);
    count_eviction();
  } else {
    ++size_;
  }
  std::uint32_t target;
  if (lowest_ != kNull && buckets_[lowest_].freq == 1) {
    target = lowest_;
  } else {
    target = alloc_bucket(1);
    buckets_[target].next = lowest_;
    if (lowest_ != kNull) buckets_[lowest_].prev = target;
    lowest_ = target;
  }
  ids_[slot] = id;
  attach_front(slot, target);
  count_insertion();
  return false;
}

}  // namespace ccnopt::cache
