#include "ccnopt/obs/registry.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>

#include "ccnopt/common/assert.hpp"

namespace ccnopt::obs {
namespace {

std::uint64_t next_registry_id() {
  static std::atomic<std::uint64_t> counter{0};
  return counter.fetch_add(1);
}

// Per-thread shard cache, keyed by registry id (not address, so a registry
// allocated at a reused address never inherits a stale shard).
thread_local std::unordered_map<std::uint64_t, void*> t_shards;

}  // namespace

Histogram::Histogram(std::vector<double> upper_bounds)
    : bounds_(std::move(upper_bounds)), counts_(bounds_.size() + 1, 0) {
  CCNOPT_EXPECTS(!bounds_.empty());
  for (std::size_t i = 1; i < bounds_.size(); ++i) {
    CCNOPT_EXPECTS(bounds_[i - 1] < bounds_[i]);
  }
}

void Histogram::observe(double value) {
  CCNOPT_EXPECTS(!bounds_.empty());
  CCNOPT_EXPECTS(std::isfinite(value));
  const double scaled = value * kSumScale;
  CCNOPT_EXPECTS(std::abs(scaled) < 0x1p62);
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
  ++counts_[static_cast<std::size_t>(it - bounds_.begin())];
  if (count_ == 0) {
    min_ = value;
    max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  ++count_;
  // std::llround without the libm call: truncation and the fraction it
  // drops are both exact below 2^62, and a fraction of +-0.5 rounds away
  // from zero as llround does.
  const auto whole = static_cast<std::int64_t>(scaled);
  const double frac = scaled - static_cast<double>(whole);
  sum_fp_ += whole + (frac >= 0.5) - (frac <= -0.5);
}

void Histogram::merge(const Histogram& other) {
  if (bounds_.empty()) {
    *this = other;
    return;
  }
  CCNOPT_EXPECTS(bounds_ == other.bounds_);
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    counts_[i] += other.counts_[i];
  }
  if (other.count_ > 0) {
    if (count_ == 0) {
      min_ = other.min_;
      max_ = other.max_;
    } else {
      min_ = std::min(min_, other.min_);
      max_ = std::max(max_, other.max_);
    }
  }
  count_ += other.count_;
  sum_fp_ += other.sum_fp_;
}

void Histogram::reset() {
  std::fill(counts_.begin(), counts_.end(), 0);
  count_ = 0;
  sum_fp_ = 0;
  min_ = 0.0;
  max_ = 0.0;
}

MetricsRegistry::MetricsRegistry() : id_(next_registry_id()) {}

MetricsRegistry::Shard& MetricsRegistry::local_shard() const {
  const auto it = t_shards.find(id_);
  if (it != t_shards.end()) return *static_cast<Shard*>(it->second);
  auto shard = std::make_unique<Shard>();
  Shard* raw = shard.get();
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    shards_.push_back(std::move(shard));
  }
  t_shards.emplace(id_, raw);
  return *raw;
}

void MetricsRegistry::incr(const std::string& name, std::uint64_t delta) {
  Shard& shard = local_shard();
  const std::lock_guard<std::mutex> lock(shard.mutex);
  shard.counters[name] += delta;
}

MetricsRegistry::CounterHandle MetricsRegistry::counter_handle(
    const std::string& name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = counter_ids_.find(name);
  if (it != counter_ids_.end()) return CounterHandle(this, it->second);
  const auto id = static_cast<std::uint32_t>(counter_names_.size());
  counter_names_.push_back(name);
  counter_ids_.emplace(name, id);
  return CounterHandle(this, id);
}

void MetricsRegistry::incr(CounterHandle handle, std::uint64_t delta) {
  CCNOPT_EXPECTS(handle.registry_ == this);
  Shard& shard = local_shard();
  const std::lock_guard<std::mutex> lock(shard.mutex);
  if (handle.id_ >= shard.counter_slots.size()) {
    shard.counter_slots.resize(handle.id_ + 1, 0);
    shard.counter_used.resize(handle.id_ + 1, 0);
  }
  shard.counter_used[handle.id_] = 1;
  shard.counter_slots[handle.id_] += delta;
}

void MetricsRegistry::set_gauge(const std::string& name, double value) {
  const std::lock_guard<std::mutex> lock(mutex_);
  gauges_[name] = value;
}

void MetricsRegistry::define_histogram(const std::string& name,
                                       std::vector<double> bounds) {
  CCNOPT_EXPECTS(!bounds.empty());
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = histogram_bounds_.find(name);
  if (it != histogram_bounds_.end()) {
    CCNOPT_EXPECTS(it->second == bounds);
    return;
  }
  histogram_bounds_.emplace(name, std::move(bounds));
}

std::vector<double> MetricsRegistry::bounds_for(const std::string& name) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = histogram_bounds_.find(name);
  CCNOPT_EXPECTS(it != histogram_bounds_.end());
  return it->second;
}

void MetricsRegistry::observe(const std::string& name, double value) {
  Shard& shard = local_shard();
  {
    const std::lock_guard<std::mutex> lock(shard.mutex);
    const auto it = shard.histograms.find(name);
    if (it != shard.histograms.end()) {
      it->second.observe(value);
      return;
    }
  }
  // First observation of this name on this thread: fetch the bounds (never
  // while holding the shard mutex — lock order is registry before shard).
  Histogram fresh(bounds_for(name));
  const std::lock_guard<std::mutex> lock(shard.mutex);
  shard.histograms.emplace(name, std::move(fresh)).first->second.observe(value);
}

MetricsRegistry::HistogramHandle MetricsRegistry::histogram_handle(
    const std::string& name, std::vector<double> bounds) {
  CCNOPT_EXPECTS(!bounds.empty());
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = histogram_ids_.find(name);
  if (it != histogram_ids_.end()) {
    CCNOPT_EXPECTS(histogram_handle_bounds_[it->second] == bounds);
    return HistogramHandle(this, it->second);
  }
  const auto id = static_cast<std::uint32_t>(histogram_names_.size());
  histogram_names_.push_back(name);
  histogram_handle_bounds_.push_back(std::move(bounds));
  histogram_ids_.emplace(name, id);
  return HistogramHandle(this, id);
}

void MetricsRegistry::observe(HistogramHandle handle, double value) {
  CCNOPT_EXPECTS(handle.registry_ == this);
  Shard& shard = local_shard();
  {
    const std::lock_guard<std::mutex> lock(shard.mutex);
    if (handle.id_ < shard.histogram_slots.size() &&
        !shard.histogram_slots[handle.id_].bounds().empty()) {
      shard.histogram_slots[handle.id_].observe(value);
      return;
    }
  }
  // First observation on this thread: fetch the registered bounds (never
  // while holding the shard mutex — lock order is registry before shard).
  Histogram fresh;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    fresh = Histogram(histogram_handle_bounds_[handle.id_]);
  }
  const std::lock_guard<std::mutex> lock(shard.mutex);
  if (handle.id_ >= shard.histogram_slots.size()) {
    shard.histogram_slots.resize(handle.id_ + 1);
  }
  Histogram& slot = shard.histogram_slots[handle.id_];
  if (slot.bounds().empty()) slot = std::move(fresh);
  slot.observe(value);
}

void MetricsRegistry::merge_histogram(HistogramHandle handle,
                                      const Histogram& h) {
  CCNOPT_EXPECTS(handle.registry_ == this);
  CCNOPT_EXPECTS(!h.bounds().empty());
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    CCNOPT_EXPECTS(histogram_handle_bounds_[handle.id_] == h.bounds());
  }
  Shard& shard = local_shard();
  const std::lock_guard<std::mutex> lock(shard.mutex);
  if (handle.id_ >= shard.histogram_slots.size()) {
    shard.histogram_slots.resize(handle.id_ + 1);
  }
  shard.histogram_slots[handle.id_].merge(h);
}

void MetricsRegistry::merge_histogram(const std::string& name,
                                      const Histogram& h) {
  CCNOPT_EXPECTS(!h.bounds().empty());
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = histogram_bounds_.find(name);
    if (it == histogram_bounds_.end()) {
      histogram_bounds_.emplace(name, h.bounds());
    } else {
      CCNOPT_EXPECTS(it->second == h.bounds());
    }
  }
  Shard& shard = local_shard();
  const std::lock_guard<std::mutex> lock(shard.mutex);
  shard.histograms[name].merge(h);
}

RegistrySnapshot MetricsRegistry::snapshot() const {
  RegistrySnapshot snap;
  const std::lock_guard<std::mutex> lock(mutex_);
  snap.gauges = gauges_;
  for (const auto& [name, bounds] : histogram_bounds_) {
    snap.histograms.emplace(name, Histogram(bounds));
  }
  for (const auto& shard : shards_) {
    const std::lock_guard<std::mutex> shard_lock(shard->mutex);
    for (const auto& [name, value] : shard->counters) {
      snap.counters[name] += value;
    }
    for (const auto& [name, hist] : shard->histograms) {
      snap.histograms[name].merge(hist);
    }
    for (std::size_t id = 0; id < shard->counter_slots.size(); ++id) {
      if (shard->counter_used[id]) {
        snap.counters[counter_names_[id]] += shard->counter_slots[id];
      }
    }
    for (std::size_t id = 0; id < shard->histogram_slots.size(); ++id) {
      const Histogram& hist = shard->histogram_slots[id];
      if (!hist.bounds().empty()) {
        snap.histograms[histogram_names_[id]].merge(hist);
      }
    }
  }
  return snap;
}

void MetricsRegistry::reset() {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& shard : shards_) {
    const std::lock_guard<std::mutex> shard_lock(shard->mutex);
    shard->counters.clear();
    shard->histograms.clear();
    // Interned slots are zeroed, not discarded: outstanding handles stay
    // valid (their names reappear in snapshots on the next record).
    std::fill(shard->counter_slots.begin(), shard->counter_slots.end(), 0);
    std::fill(shard->counter_used.begin(), shard->counter_used.end(),
              std::uint8_t{0});
    shard->histogram_slots.clear();
  }
  gauges_.clear();
  histogram_bounds_.clear();
}

MetricsRegistry& metrics() {
  static MetricsRegistry* instance = new MetricsRegistry();
  return *instance;
}

MetricsRegistry& perf() {
  static MetricsRegistry* instance = new MetricsRegistry();
  return *instance;
}

}  // namespace ccnopt::obs
