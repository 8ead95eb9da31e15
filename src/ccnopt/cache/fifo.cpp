#include "ccnopt/cache/fifo.hpp"

namespace ccnopt::cache {

FifoCache::FifoCache(std::size_t capacity, IndexSpec index)
    : CachePolicy(capacity), members_(index, capacity) {
  CCNOPT_EXPECTS(capacity < ContentIndex::kNoSlot);
  ring_.resize(capacity);
}

void FifoCache::clear() {
  // ring_[0..size_) are exactly the live ids: oldest_ only ever advances
  // once the ring is full, at which point size_ == capacity. The index
  // reset is therefore O(size) dense / O(capacity) sparse.
  members_.clear(ring_.data(), size_);
  oldest_ = 0;
  size_ = 0;
}

std::vector<ContentId> FifoCache::contents() const {
  std::vector<ContentId> out;
  out.reserve(size_);
  for (std::size_t i = 0; i < size_; ++i) {
    out.push_back(ring_[(oldest_ + i) % capacity()]);
  }
  return out;
}

bool FifoCache::handle(ContentId id) {
  if (capacity() == 0) return false;
  // The slot a miss fills: the oldest once full, else the next free one
  // (oldest_ stays 0 until the ring first fills, so that is size_).
  const bool full = size_ == capacity();
  const std::size_t slot = full ? oldest_ : size_;
  if (members_.find_or_insert(id, static_cast<std::uint32_t>(slot)) !=
      ContentIndex::kNoSlot) {
    return true;
  }
  if (full) {
    members_.erase(ring_[slot]);
    oldest_ = (oldest_ + 1) % capacity();
    count_eviction();
  } else {
    ++size_;
  }
  ring_[slot] = id;
  count_insertion();
  return false;
}

}  // namespace ccnopt::cache
