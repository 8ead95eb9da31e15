#include "ccnopt/cache/lru.hpp"

namespace ccnopt::cache {

LruCache::LruCache(std::size_t capacity, IndexSpec index)
    : CachePolicy(capacity), slots_(index, capacity) {
  CCNOPT_EXPECTS(capacity < kNull);
  ids_.resize(capacity);
  prev_.resize(capacity);
  next_.resize(capacity);
}

void LruCache::clear() {
  // Slots [0, size_) are always live, so handing them to the index bounds
  // the reset at O(size) dense / O(capacity) sparse — never O(catalog).
  slots_.clear(ids_.data(), size_);
  head_ = kNull;
  tail_ = kNull;
  size_ = 0;
}

std::vector<ContentId> LruCache::contents() const {
  std::vector<ContentId> out;
  out.reserve(size_);
  for (std::uint32_t slot = head_; slot != kNull; slot = next_[slot]) {
    out.push_back(ids_[slot]);
  }
  return out;
}

void LruCache::unlink(std::uint32_t slot) {
  const std::uint32_t p = prev_[slot];
  const std::uint32_t n = next_[slot];
  (p == kNull ? head_ : next_[p]) = n;
  (n == kNull ? tail_ : prev_[n]) = p;
}

void LruCache::push_front(std::uint32_t slot) {
  prev_[slot] = kNull;
  next_[slot] = head_;
  if (head_ != kNull) prev_[head_] = slot;
  head_ = slot;
  if (tail_ == kNull) tail_ = slot;
}

bool LruCache::handle(ContentId id) {
  if (capacity() == 0) return false;
  // The slot a miss would fill: the LRU victim's once full, the next free
  // one before. One probe decides the request and, on a miss, already maps
  // the id to that slot.
  const bool full = size_ == capacity();
  const std::uint32_t slot = full ? tail_ : size_;
  const std::uint32_t found = slots_.find_or_insert(id, slot);
  if (found != ContentIndex::kNoSlot) {
    if (head_ != found) {
      unlink(found);
      push_front(found);
    }
    return true;
  }
  if (full) {
    unlink(slot);
    slots_.erase(ids_[slot]);
    count_eviction();
  } else {
    ++size_;
  }
  ids_[slot] = id;
  push_front(slot);
  count_insertion();
  return false;
}

}  // namespace ccnopt::cache
