#include "ccnopt/sim/workload.hpp"

#include <algorithm>

#include "ccnopt/common/assert.hpp"
#include "ccnopt/popularity/zipf.hpp"

namespace ccnopt::sim {

// Every request the simulator emits goes through one sampler draw; pin the
// hot-path workloads to O(1) samplers (alias below the auto threshold,
// rejection-inversion above it).
static_assert(popularity::AliasSampler::kConstantTimeSample,
              "simulator workloads require a constant-time rank sampler");
static_assert(popularity::ZipfRejectionSampler::kConstantTimeSample,
              "simulator workloads require a constant-time rank sampler");

ZipfWorkload::ZipfWorkload(std::size_t router_count,
                           std::uint64_t catalog_size, double exponent,
                           std::uint64_t seed, popularity::SamplerKind kind)
    : catalog_size_(catalog_size) {
  CCNOPT_EXPECTS(router_count >= 1);
  CCNOPT_EXPECTS(catalog_size >= 1);
  sampler_ = popularity::make_zipf_sampler(catalog_size, exponent, kind);
  streams_.reserve(router_count);
  for (std::size_t i = 0; i < router_count; ++i) {
    streams_.emplace_back(seed + 0x9E3779B97F4A7C15ULL * (i + 1));
  }
  buffers_.resize(router_count);
}

cache::ContentId ZipfWorkload::next(std::size_t router_index) {
  CCNOPT_EXPECTS(router_index < streams_.size());
  // Refill in blocks: sample_block() consumes the stream exactly as
  // kDrawBlock successive sample() calls would, and the refill boundary is
  // a pure function of this router's call count — so every serve order
  // (emission order, router-major shards) sees the identical per-router
  // sequence while paying the virtual sampler dispatch once per block.
  DrawBuffer& buf = buffers_[router_index];
  if (buf.pos == buf.filled) {
    if (buf.draws.empty()) buf.draws.resize(kDrawBlock);
    sampler_->sample_block(streams_[router_index], buf.draws.data(),
                           kDrawBlock);
    buf.filled = kDrawBlock;
    buf.pos = 0;
  }
  return buf.draws[buf.pos++];
}

DriftingZipfWorkload::DriftingZipfWorkload(std::size_t router_count,
                                           std::uint64_t catalog_size,
                                           std::vector<Phase> schedule,
                                           std::uint64_t seed)
    : catalog_size_(catalog_size), schedule_(std::move(schedule)) {
  CCNOPT_EXPECTS(router_count >= 1);
  CCNOPT_EXPECTS(catalog_size >= 1);
  CCNOPT_EXPECTS(!schedule_.empty());
  CCNOPT_EXPECTS(schedule_.front().start_request == 0);
  for (std::size_t i = 0; i < schedule_.size(); ++i) {
    CCNOPT_EXPECTS(schedule_[i].exponent > 0.0);
    if (i > 0) {
      CCNOPT_EXPECTS(schedule_[i].start_request >
                     schedule_[i - 1].start_request);
    }
  }
  // Build every phase sampler up front: next() may run from concurrent
  // shards, so it must never mutate shared state.
  samplers_.reserve(schedule_.size());
  for (const Phase& phase : schedule_) {
    samplers_.push_back(
        popularity::make_zipf_sampler(catalog_size, phase.exponent));
  }
  streams_.reserve(router_count);
  for (std::size_t i = 0; i < router_count; ++i) {
    streams_.emplace_back(seed + 0x9E3779B97F4A7C15ULL * (i + 1));
  }
  counts_.assign(router_count, 0);
  phase_.assign(router_count, 0);
}

double DriftingZipfWorkload::current_exponent() const {
  std::size_t phase = 0;
  for (const std::size_t p : phase_) phase = std::max(phase, p);
  return schedule_[phase].exponent;
}

std::uint64_t DriftingZipfWorkload::requests_emitted() const {
  std::uint64_t total = 0;
  for (const std::uint64_t count : counts_) total += count;
  return total;
}

cache::ContentId DriftingZipfWorkload::next(std::size_t router_index) {
  CCNOPT_EXPECTS(router_index < streams_.size());
  // Phase from this router's own position: its k-th draw estimates the
  // global request index as k * router_count (exactly k for one router).
  const std::uint64_t scaled = counts_[router_index] * streams_.size();
  std::size_t& phase = phase_[router_index];
  while (phase + 1 < schedule_.size() &&
         scaled >= schedule_[phase + 1].start_request) {
    ++phase;
  }
  ++counts_[router_index];
  return samplers_[phase]->sample(streams_[router_index]);
}

SlidingZipfWorkload::SlidingZipfWorkload(std::size_t router_count,
                                         std::uint64_t catalog_size,
                                         double exponent,
                                         std::uint64_t active_window,
                                         std::uint64_t drift_interval,
                                         std::uint64_t seed)
    : catalog_size_(catalog_size), drift_interval_(drift_interval) {
  CCNOPT_EXPECTS(router_count >= 1);
  CCNOPT_EXPECTS(active_window >= 1 && active_window <= catalog_size);
  CCNOPT_EXPECTS(drift_interval >= 1);
  sampler_ = popularity::make_zipf_sampler(active_window, exponent);
  streams_.reserve(router_count);
  for (std::size_t i = 0; i < router_count; ++i) {
    streams_.emplace_back(seed + 0x9E3779B97F4A7C15ULL * (i + 1));
  }
  counts_.assign(router_count, 0);
}

std::uint64_t SlidingZipfWorkload::base_offset() const {
  std::uint64_t total = 0;
  for (const std::uint64_t count : counts_) total += count;
  return total == 0 ? 0 : (total - 1) / drift_interval_;
}

cache::ContentId SlidingZipfWorkload::next(std::size_t router_index) {
  CCNOPT_EXPECTS(router_index < streams_.size());
  // Base from this router's own position: its k-th draw estimates the
  // global request index as k * router_count (exactly k for one router).
  const std::uint64_t base =
      counts_[router_index] * streams_.size() / drift_interval_;
  ++counts_[router_index];
  const std::uint64_t rank = sampler_->sample(streams_[router_index]);
  return (base + rank - 1) % catalog_size_ + 1;
}

CyclicWorkload::CyclicWorkload(
    std::vector<std::vector<cache::ContentId>> patterns)
    : patterns_(std::move(patterns)), cursor_(patterns_.size(), 0) {
  for (const auto& pattern : patterns_) {
    for (const cache::ContentId id : pattern) {
      CCNOPT_EXPECTS(id >= 1);
      max_id_ = std::max(max_id_, id);
    }
  }
}

cache::ContentId CyclicWorkload::next(std::size_t router_index) {
  CCNOPT_EXPECTS(router_index < patterns_.size());
  const auto& pattern = patterns_[router_index];
  CCNOPT_EXPECTS(!pattern.empty());
  const cache::ContentId id = pattern[cursor_[router_index]];
  cursor_[router_index] = (cursor_[router_index] + 1) % pattern.size();
  return id;
}

}  // namespace ccnopt::sim
