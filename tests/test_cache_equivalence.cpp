// Lock-step replays of the flat LRU/LFU/FIFO policies, pinned to committed
// digests. Each replay feeds one request stream to a policy with its dense
// content index and, in lock-step, to the same policy with the sparse
// robin-hood index forced. The index is pure bookkeeping, so hit, size()
// and contains() must agree after every request. Each side also folds what
// it observed into an FNV-1a-64 digest: every request's hit bit and size()
// after it, the final CacheStats, and the final contents (MRU first for
// LRU, oldest first for FIFO; sorted by id, each with its frequency(), for
// LFU, whose iteration order is unspecified). Both digests must equal the
// cell's line in tests/golden/cache_replays.txt, so a change that moves
// both index flavours together still fails.
//
// The digests were recorded while the node-based reference policies
// (std::list / std::map / std::deque LRU, LFU and FIFO) agreed with the
// flat ones on every cell. On a mismatch the failure prints the cell's new
// line; there is no update flag.
#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ccnopt/cache/lfu.hpp"
#include "ccnopt/cache/policy.hpp"
#include "ccnopt/common/random.hpp"
#include "ccnopt/popularity/sampler.hpp"
#include "ccnopt/popularity/zipf.hpp"
#include "golden.hpp"

namespace ccnopt::cache {
namespace {

/// One policy kind and capacity, built with the dense and with the sparse
/// content index and fed the same requests in lock-step; each side keeps
/// its own digest.
class LockStep {
 public:
  LockStep(PolicyKind kind, std::size_t capacity)
      : kind_(kind),
        dense_(make_policy(kind, capacity)),
        sparse_(make_policy(kind, capacity, 1,
                            IndexSpec{IndexMode::kSparse, 0})) {}

  CachePolicy& dense() { return *dense_; }
  CachePolicy& sparse() { return *sparse_; }

  /// Admits `id` on both sides: hit, size() and contains(id) must agree.
  void admit(ContentId id) {
    const bool dense_hit = dense_->admit(id);
    const bool sparse_hit = sparse_->admit(id);
    ASSERT_EQ(sparse_hit, dense_hit) << "sparse index diverged at request "
                                     << requests_ << " (id " << id << ")";
    ASSERT_EQ(sparse_->size(), dense_->size()) << "after request " << requests_;
    ASSERT_EQ(sparse_->contains(id), dense_->contains(id))
        << "after request " << requests_;
    dense_hash_.u64(dense_hit ? 1 : 0);
    dense_hash_.u64(dense_->size());
    sparse_hash_.u64(sparse_hit ? 1 : 0);
    sparse_hash_.u64(sparse_->size());
    ++requests_;
  }

  void replay(const std::vector<ContentId>& stream) {
    for (const ContentId id : stream) {
      admit(id);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }

  /// Empties both sides; their stats carry on.
  void clear() {
    dense_->clear();
    sparse_->clear();
    ASSERT_EQ(dense_->size(), 0u);
    ASSERT_EQ(sparse_->size(), 0u);
  }

  /// Both sides' digests, final stats and contents folded in, must equal
  /// the committed line of `cell`.
  void expect_golden(const std::string& cell) const {
    const std::string expected =
        golden::committed_digest(CCNOPT_CACHE_REPLAYS, cell);
    expect_digest(cell, "dense", *dense_, dense_hash_, expected);
    expect_digest(cell, "sparse", *sparse_, sparse_hash_, expected);
  }

 private:
  void expect_digest(const std::string& cell, const char* side,
                     const CachePolicy& policy, golden::Fnv1a hash,
                     const std::string& expected) const {
    const CacheStats stats = policy.stats();
    hash.u64(stats.hits);
    hash.u64(stats.misses);
    hash.u64(stats.insertions);
    hash.u64(stats.evictions);
    std::vector<ContentId> contents = policy.contents();
    if (kind_ == PolicyKind::kLfu) std::sort(contents.begin(), contents.end());
    hash.u64(contents.size());
    for (const ContentId id : contents) {
      hash.u64(id);
      if (kind_ == PolicyKind::kLfu) {
        hash.u64(dynamic_cast<const LfuCache&>(policy).frequency(id));
      }
    }
    EXPECT_EQ(golden::hex(hash.value()), expected)
        << "cell " << cell << " (" << side
        << ") moved; its new line in tests/golden/cache_replays.txt would "
           "be:\n"
        << cell << " " << golden::hex(hash.value());
  }

  PolicyKind kind_;
  std::unique_ptr<CachePolicy> dense_;
  std::unique_ptr<CachePolicy> sparse_;
  golden::Fnv1a dense_hash_;
  golden::Fnv1a sparse_hash_;
  std::uint64_t requests_ = 0;
};

/// "<stream>/<kind>/c<capacity>", the cell's name in the golden file.
std::string cell_name(const std::string& stream, PolicyKind kind,
                      std::size_t capacity) {
  return stream + "/" + to_string(kind) + "/c" + std::to_string(capacity);
}

/// Replays `stream` through a fresh lock-step pair and checks its digest.
void replay_cell(const std::string& stream_name, PolicyKind kind,
                 std::size_t capacity, const std::vector<ContentId>& stream) {
  const std::string cell = cell_name(stream_name, kind, capacity);
  SCOPED_TRACE(cell);
  LockStep lock_step(kind, capacity);
  lock_step.replay(stream);
  if (::testing::Test::HasFatalFailure()) return;
  lock_step.expect_golden(cell);
}

constexpr PolicyKind kKinds[] = {PolicyKind::kLru, PolicyKind::kLfu,
                                 PolicyKind::kFifo};

std::vector<ContentId> zipf_stream(std::uint64_t catalog, double s,
                                   std::size_t length, std::uint64_t seed) {
  popularity::AliasSampler sampler(catalog, s);
  Rng rng(seed);
  std::vector<ContentId> stream;
  stream.reserve(length);
  for (std::size_t i = 0; i < length; ++i) stream.push_back(sampler.sample(rng));
  return stream;
}

std::vector<ContentId> uniform_stream(std::uint64_t catalog,
                                      std::size_t length, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<ContentId> stream;
  stream.reserve(length);
  for (std::size_t i = 0; i < length; ++i) {
    stream.push_back(rng.uniform_int(1, catalog));
  }
  return stream;
}

TEST(CacheEquivalence, ZipfStreams) {
  const auto mild = zipf_stream(2000, 0.8, 20000, 42);
  const auto steep = zipf_stream(2000, 1.2, 20000, 43);
  for (const PolicyKind kind : kKinds) {
    for (const std::size_t capacity : {1u, 7u, 64u, 500u}) {
      replay_cell("zipf-s0.8", kind, capacity, mild);
      replay_cell("zipf-s1.2", kind, capacity, steep);
    }
  }
}

TEST(CacheEquivalence, UniformStreams) {
  const auto stream = uniform_stream(500, 20000, 7);
  for (const PolicyKind kind : kKinds) {
    for (const std::size_t capacity : {2u, 33u, 256u}) {
      replay_cell("uniform", kind, capacity, stream);
    }
  }
}

TEST(CacheEquivalence, ZeroCapacityNeverStores) {
  for (const PolicyKind kind : kKinds) {
    const auto stream = zipf_stream(100, 0.8, 2000, 11);
    replay_cell("zero-capacity", kind, 0, stream);
    const auto policy = make_policy(kind, 0);
    for (const ContentId id : stream) EXPECT_FALSE(policy->admit(id));
    EXPECT_EQ(policy->size(), 0u);
    EXPECT_EQ(policy->stats().insertions, 0u);
  }
}

TEST(CacheEquivalence, SequentialScanChurnsEverything) {
  // Adversarial for LRU/FIFO: a repeated scan wider than the cache evicts
  // every entry before reuse (0% hits for LRU/FIFO, not for LFU once
  // frequencies tie-break).
  std::vector<ContentId> stream;
  for (int lap = 0; lap < 50; ++lap) {
    for (ContentId id = 1; id <= 100; ++id) stream.push_back(id);
  }
  for (const PolicyKind kind : kKinds) {
    replay_cell("scan", kind, 64, stream);
  }
}

TEST(CacheEquivalence, CyclicWithHotSet) {
  // A hot set kept resident under LFU while a cold scan churns the rest.
  std::vector<ContentId> stream;
  Rng rng(13);
  for (int i = 0; i < 30000; ++i) {
    if (i % 3 == 0) {
      stream.push_back(rng.uniform_int(1, 8));  // hot
    } else {
      stream.push_back(100 + (static_cast<ContentId>(i) % 400));  // cold scan
    }
  }
  for (const PolicyKind kind : kKinds) {
    replay_cell("hot-set", kind, 32, stream);
  }
}

TEST(CacheEquivalence, RepeatedSingleId) {
  // Degenerate stream: one id, capacity 1 — every request after the first
  // hits; LFU frequency must track the request count exactly.
  std::vector<ContentId> stream(1000, 77);
  for (const PolicyKind kind : kKinds) {
    replay_cell("single-id", kind, 1, stream);
  }
  LfuCache lfu(1);
  for (int i = 0; i < 1000; ++i) lfu.admit(77);
  EXPECT_EQ(lfu.frequency(77), 1000u);
}

TEST(CacheEquivalence, SparseIdsExerciseOverflowTable) {
  // Ids beyond the dense SlotMap limit land in the overflow map; behaviour
  // must stay identical to the dense ids'.
  std::vector<ContentId> stream;
  Rng rng(99);
  for (int i = 0; i < 5000; ++i) {
    const ContentId base =
        rng.bernoulli(0.5) ? 0 : (std::uint64_t{1} << 40);
    stream.push_back(base + rng.uniform_int(1, 200));
  }
  for (const PolicyKind kind : kKinds) {
    replay_cell("sparse-ids", kind, 48, stream);
  }
}

TEST(CacheEquivalence, ClearMidStreamStaysEquivalent) {
  // clear() between two stream halves: both index flavours must restart
  // from an empty store while keeping their accumulated stats, and the
  // halves must replay identically afterwards.
  const auto first = zipf_stream(2000, 0.8, 10000, 51);
  const auto second = zipf_stream(2000, 1.1, 10000, 52);
  for (const PolicyKind kind : kKinds) {
    const std::string cell = cell_name("clear-mid-stream", kind, 64);
    SCOPED_TRACE(cell);
    LockStep lock_step(kind, 64);
    lock_step.replay(first);
    ASSERT_FALSE(HasFatalFailure());
    const CacheStats stats_before = lock_step.dense().stats();
    lock_step.clear();
    ASSERT_FALSE(HasFatalFailure());
    // Stats survive a clear (it resets contents, not accounting).
    ASSERT_EQ(lock_step.dense().stats().requests(), stats_before.requests());
    for (const ContentId id : first) {
      ASSERT_FALSE(lock_step.dense().contains(id));
      ASSERT_FALSE(lock_step.sparse().contains(id));
    }
    lock_step.replay(second);
    ASSERT_FALSE(HasFatalFailure());
    lock_step.expect_golden(cell);
  }
}

TEST(CacheEquivalence, ClearThenRefillRepeatedly) {
  // Epoch-style usage (the simulator clears local partitions at
  // re-provisioning): many clear/refill cycles must never corrupt any
  // index flavour.
  for (const PolicyKind kind : kKinds) {
    const std::string cell = cell_name("clear-refill", kind, 32);
    SCOPED_TRACE(cell);
    LockStep lock_step(kind, 32);
    Rng rng(77);
    for (int epoch = 0; epoch < 20; ++epoch) {
      SCOPED_TRACE("epoch " + std::to_string(epoch));
      for (int i = 0; i < 500; ++i) {
        lock_step.admit(rng.uniform_int(1, 300));
        ASSERT_FALSE(HasFatalFailure());
      }
      lock_step.clear();
      ASSERT_FALSE(HasFatalFailure());
    }
    lock_step.expect_golden(cell);
  }
}

}  // namespace
}  // namespace ccnopt::cache
