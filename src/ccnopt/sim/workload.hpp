// Request workloads. Each router has an attached client population that
// emits content requests; ZipfWorkload is the Independent Reference Model
// stream of Section III-A, CyclicWorkload replays a fixed pattern (the
// motivating example's {a, a, b} flows).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "ccnopt/cache/policy.hpp"
#include "ccnopt/common/random.hpp"
#include "ccnopt/popularity/sampler.hpp"

namespace ccnopt::sim {

/// Per-router request source; `next(router)` returns the rank requested by
/// that router's clients.
class Workload {
 public:
  virtual ~Workload() = default;
  virtual cache::ContentId next(std::size_t router_index) = 0;
  virtual std::uint64_t catalog_size() const = 0;
  /// False for routers with no attached clients (they route and cache but
  /// never originate requests).
  virtual bool active(std::size_t) const { return true; }
  /// True when each router's request sequence depends only on how many
  /// times next() was called FOR THAT ROUTER — never on the global
  /// interleaving across routers. The windowed engine calls next() from
  /// concurrent shards (each owning disjoint routers) only when this
  /// holds, in every serve order, and still reproduces the sequential
  /// streams bit for bit; otherwise it draws serially in emission order,
  /// and the run cannot be served router-major. Workloads whose drift
  /// state cannot be derived from per-router positions (and anything else
  /// with cross-router mutable state) must return false.
  virtual bool per_router_streams() const { return false; }
};

/// IRM: every router draws i.i.d. Zipf(s, N) ranks from its own seeded
/// stream (so event interleaving does not perturb per-router sequences).
/// `kind` selects the sampler implementation: the default kAuto keeps the
/// alias table at small catalogs (identical streams to every historical
/// run) and switches to the constant-memory rejection-inversion sampler at
/// web-scale catalogs (popularity/sampler.hpp).
class ZipfWorkload final : public Workload {
 public:
  ZipfWorkload(std::size_t router_count, std::uint64_t catalog_size,
               double exponent, std::uint64_t seed,
               popularity::SamplerKind kind = popularity::SamplerKind::kAuto);

  cache::ContentId next(std::size_t router_index) override;
  std::uint64_t catalog_size() const override { return catalog_size_; }
  /// IRM streams are seeded per router and never consult global state, so
  /// shards may interleave routers freely.
  bool per_router_streams() const override { return true; }

 private:
  /// Draws per sample_block() refill. Refill boundaries depend only on the
  /// per-router call count, so buffering never changes the emitted stream.
  static constexpr std::size_t kDrawBlock = 256;

  std::uint64_t catalog_size_;
  std::shared_ptr<popularity::RankSampler> sampler_;  // shared, stateless
  std::vector<Rng> streams_;
  // Router r's block of draws is draws_[r * kDrawBlock, (r + 1) *
  // kDrawBlock), allocated here for every router, so next() never
  // allocates from whichever thread calls it.
  std::vector<std::uint64_t> draws_;
  // Router r's next unread entry of its block, kDrawBlock when the block
  // is spent (or never filled); every next() writes it. A cache line per
  // router, so shards drawing for neighbouring routers never write to one
  // line.
  struct alignas(64) BlockPosition {
    std::size_t next = kDrawBlock;
  };
  std::vector<BlockPosition> pos_;
};

/// Zipf IRM whose exponent drifts through a schedule of phases — the
/// non-stationary workload the adaptive controller (model/adaptive.hpp) is
/// built against. Each router derives the phase from ITS OWN stream
/// position scaled by the router count: router r's k-th draw (0-based)
/// uses the phase whose start_request satisfies k * router_count >=
/// start_request. With one router this is exactly the global-count
/// schedule; with many, every router crosses each phase boundary within
/// router_count requests of the global schedule while depending only on
/// per-router state — which is what lets the sharded engine draw from
/// concurrent shards (per_router_streams() below) and still replay the
/// sequential streams bit for bit.
class DriftingZipfWorkload final : public Workload {
 public:
  struct Phase {
    std::uint64_t start_request = 0;  ///< first global request index of the phase
    double exponent = 0.8;
  };

  /// Phases must be non-empty, start at request 0, be strictly increasing
  /// in start_request, and carry exponents > 0. All phase samplers are
  /// built here (not lazily) so next() is safe from concurrent shards.
  DriftingZipfWorkload(std::size_t router_count, std::uint64_t catalog_size,
                       std::vector<Phase> schedule, std::uint64_t seed);

  cache::ContentId next(std::size_t router_index) override;
  std::uint64_t catalog_size() const override { return catalog_size_; }
  /// Phase state is per-router (derived from the router's own draw
  /// count), so shards may interleave routers freely.
  bool per_router_streams() const override { return true; }

  /// Exponent of the most advanced router's current phase (equals the
  /// global-schedule phase for single-router workloads). Call between
  /// runs, not while shards are drawing.
  double current_exponent() const;
  std::uint64_t requests_emitted() const;

 private:
  std::uint64_t catalog_size_;
  std::vector<Phase> schedule_;
  std::vector<std::shared_ptr<popularity::RankSampler>> samplers_;
  std::vector<Rng> streams_;
  // Per-router draw counts and phase cursors; next(r) touches only
  // index r of each.
  std::vector<std::uint64_t> counts_;
  std::vector<std::size_t> phase_;
};

/// Zipf IRM with catalog churn: popularity ranks slide through the content
/// id space, modeling new contents displacing old ones (news cycles, VoD
/// releases). Rank r maps to id ((base + r - 1) mod catalog) + 1. Each
/// router derives the base from its own stream position scaled by the
/// router count — router r's k-th draw (0-based) uses base
/// (k * router_count) / drift_interval — so the base advances by one per
/// `drift_interval` requests of estimated global progress while depending
/// only on per-router state (per_router_streams() below, the sharded
/// engine's requirement). With one router this is exactly the old
/// global-count rule. After `active_window * drift_interval` requests the
/// popular set has fully turned over. The paper's steady-state
/// provisioning assumes no churn; bench_ablation_churn measures what that
/// assumption costs.
class SlidingZipfWorkload final : public Workload {
 public:
  /// Requires active_window <= catalog_size, drift_interval >= 1.
  SlidingZipfWorkload(std::size_t router_count, std::uint64_t catalog_size,
                      double exponent, std::uint64_t active_window,
                      std::uint64_t drift_interval, std::uint64_t seed);

  cache::ContentId next(std::size_t router_index) override;
  std::uint64_t catalog_size() const override { return catalog_size_; }
  /// Base state is per-router (derived from the router's own draw
  /// count), so shards may interleave routers freely.
  bool per_router_streams() const override { return true; }

  /// Global-progress view of the slide: the base implied by the total
  /// draw count across routers (the base of the last draw, for
  /// single-router workloads). Call between runs, not while shards are
  /// drawing.
  std::uint64_t base_offset() const;

 private:
  std::uint64_t catalog_size_;
  std::uint64_t drift_interval_;
  std::shared_ptr<popularity::RankSampler> sampler_;  // Zipf(active_window)
  std::vector<Rng> streams_;
  std::vector<std::uint64_t> counts_;  // per-router draw counts
};

/// Replays a fixed cyclic pattern per router; routers with an empty pattern
/// never request (the motivating example's R0).
class CyclicWorkload final : public Workload {
 public:
  explicit CyclicWorkload(std::vector<std::vector<cache::ContentId>> patterns);

  cache::ContentId next(std::size_t router_index) override;
  std::uint64_t catalog_size() const override { return max_id_; }

  bool active(std::size_t router_index) const override {
    return !patterns_[router_index].empty();
  }
  bool per_router_streams() const override { return true; }

 private:
  std::vector<std::vector<cache::ContentId>> patterns_;
  std::vector<std::size_t> cursor_;
  std::uint64_t max_id_ = 0;
};

}  // namespace ccnopt::sim
