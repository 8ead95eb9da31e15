// Open-addressing ContentId -> slot table with robin-hood linear probing:
// the capacity-proportional alternative to the dense SlotMap for the
// catalog >> capacity regime, where an array indexed by content id would
// cost O(N) per router.
//
// Memory is ~13 bytes per table cell (8B key + 4B slot + 1B probe length)
// at a load factor <= 0.5, so a cache of capacity c costs ~52c bytes
// regardless of catalog size. Probe lengths are kept byte-sized by the
// robin-hood invariant (displace richer entries on insert, backward-shift
// on erase), which bounds variance tightly at this load factor; the table
// still doubles defensively if a probe chain ever approaches the byte cap.
//
// The home bucket is one Fibonacci multiply, the top bits of
// id * 2^64/phi: consecutive Zipf ranks land ~0.618 of the table apart,
// so the simulator's dense low ranks scatter without a full-avalanche mix.
//
// The policies decide hit or miss with find_or_insert(): one probe
// sequence either finds the id or places it where the probe stopped. A
// miss on a full cache therefore holds capacity + 1 entries until the
// victim is erased, which is why ContentIndex sizes the table for
// capacity + 1 — the transient entry never crosses the growth threshold.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "ccnopt/cache/policy.hpp"
#include "ccnopt/common/assert.hpp"

namespace ccnopt::cache {

class SparseSlotMap {
 public:
  static constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;

  /// Sizes the table for `expected_entries` live ids; the table never
  /// rehashes as long as occupancy stays there.
  explicit SparseSlotMap(std::size_t expected_entries = 0) {
    rehash(table_size_for(expected_entries));
  }

  std::size_t size() const { return entries_; }
  std::size_t table_size() const { return keys_.size(); }

  std::uint32_t find(ContentId id) const {
    std::size_t pos = bucket_of(id);
    for (std::uint8_t dist = 1;; ++dist) {
      // An empty cell or a cell closer to its home than we are terminates
      // the probe: the robin-hood invariant says `id` cannot live beyond it.
      if (dist_[pos] < dist) return kNoSlot;
      if (keys_[pos] == id) return slots_[pos];
      pos = (pos + 1) & mask_;
    }
  }

  /// Returns the slot of `id` when present (leaving the table untouched);
  /// otherwise maps `id` to `slot` and returns kNoSlot. The insertion
  /// starts where the membership probe stopped, so a miss walks the probe
  /// window once.
  std::uint32_t find_or_insert(ContentId id, std::uint32_t slot) {
    std::size_t pos = bucket_of(id);
    std::uint8_t dist = 1;
    for (;; ++dist) {
      if (dist_[pos] < dist) break;
      if (keys_[pos] == id) return slots_[pos];
      pos = (pos + 1) & mask_;
    }
    if ((entries_ + 1) * 2 > keys_.size()) {
      rehash(keys_.size() * 2);
      place(bucket_of(id), 1, id, slot);
    } else {
      place(pos, dist, id, slot);
    }
    return kNoSlot;
  }

  void erase(ContentId id) {
    std::size_t pos = bucket_of(id);
    for (std::uint8_t dist = 1;; ++dist) {
      if (dist_[pos] < dist) return;  // absent
      if (keys_[pos] == id) break;
      pos = (pos + 1) & mask_;
    }
    // Backward-shift deletion: pull each displaced successor one cell left
    // until a cell that is empty or sitting at its home bucket.
    std::size_t next = (pos + 1) & mask_;
    while (dist_[next] > 1) {
      keys_[pos] = keys_[next];
      slots_[pos] = slots_[next];
      dist_[pos] = static_cast<std::uint8_t>(dist_[next] - 1);
      pos = next;
      next = (next + 1) & mask_;
    }
    dist_[pos] = 0;
    --entries_;
  }

  /// Wipes all entries in O(table_size) — proportional to the cache
  /// capacity this map was sized for, never to the catalog.
  void clear() {
    std::fill(dist_.begin(), dist_.end(), 0);
    entries_ = 0;
  }

  /// Hints the probe window of `id` into cache ahead of a find/insert.
  void prefetch(ContentId id) const {
#if defined(__GNUC__) || defined(__clang__)
    const std::size_t pos = bucket_of(id);
    __builtin_prefetch(&dist_[pos]);
    __builtin_prefetch(&keys_[pos]);
#else
    (void)id;
#endif
  }

 private:
  static constexpr std::size_t kMinTableSize = 16;
  static constexpr std::uint8_t kMaxProbe = 250;  // rehash safety margin

  static std::size_t table_size_for(std::size_t expected_entries) {
    std::size_t size = kMinTableSize;
    while (size < expected_entries * 2) size *= 2;
    return size;
  }

  std::size_t bucket_of(ContentId id) const {
    return static_cast<std::size_t>((id * 0x9E3779B97F4A7C15ull) >> shift_);
  }

  /// Places an id known to be absent, starting at `pos` where its probe
  /// reached distance `dist` with every cell before it richer or equal.
  void place(std::size_t pos, std::uint8_t dist, ContentId key,
             std::uint32_t slot) {
    for (;;) {
      if (dist_[pos] == 0) {
        keys_[pos] = key;
        slots_[pos] = slot;
        dist_[pos] = dist;
        ++entries_;
        return;
      }
      if (dist_[pos] < dist) {
        // Robin hood: the resident is closer to home than we are — swap and
        // keep probing on its behalf.
        std::swap(keys_[pos], key);
        std::swap(slots_[pos], slot);
        std::swap(dist_[pos], dist);
      }
      pos = (pos + 1) & mask_;
      ++dist;
      if (dist >= kMaxProbe) {
        // Pathological clustering (cannot happen at <= 50% load with a
        // multiplicative hash over ranks, but stay correct regardless):
        // grow, which reinserts everything already placed, then place the
        // carried entry.
        rehash(keys_.size() * 2);
        place(bucket_of(key), 1, key, slot);
        return;
      }
    }
  }

  void rehash(std::size_t new_size) {
    CCNOPT_ASSERT(std::has_single_bit(new_size));
    std::vector<ContentId> old_keys = std::move(keys_);
    std::vector<std::uint32_t> old_slots = std::move(slots_);
    std::vector<std::uint8_t> old_dist = std::move(dist_);
    keys_.assign(new_size, 0);
    slots_.assign(new_size, kNoSlot);
    dist_.assign(new_size, 0);
    mask_ = new_size - 1;
    shift_ = 64 - static_cast<unsigned>(std::countr_zero(new_size));
    entries_ = 0;
    for (std::size_t i = 0; i < old_keys.size(); ++i) {
      if (old_dist[i] != 0) {
        place(bucket_of(old_keys[i]), 1, old_keys[i], old_slots[i]);
      }
    }
  }

  std::vector<ContentId> keys_;
  std::vector<std::uint32_t> slots_;
  std::vector<std::uint8_t> dist_;  // probe distance + 1; 0 = empty cell
  std::size_t mask_ = 0;
  unsigned shift_ = 64;  // 64 - log2(table size): bucket = top bits
  std::size_t entries_ = 0;
};

}  // namespace ccnopt::cache
