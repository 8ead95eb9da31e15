// The windowed request engine. See sharded.hpp for the exactness argument;
// the pipeline per window of kWindow requests is
//
//   generate  (parallel over shards)  per-router arrival times, extended
//                                     until the window is fully covered
//   order     (traced and emission-   one stable bucket sort of every
//              order runs,            candidate below the horizon into
//              sequential)            (time, active position) order; its
//                                     first W entries are the window:
//                                     emission-order runs serve them in
//                                     that order, traced router-major runs
//                                     write every entry's global request
//                                     index, which trace sampling keys on
//   select    (every other window,    per-router counts of the window's
//              sequential)            entries, by binary search on the
//                                     time value
//   serve     router-major (parallel  each shard walks its routers and
//              over shards) or in     serves each router's window segment
//              emission order (one    in one fused loop: draw, prefetch,
//              shard)                 serve, then record into per-router
//                                     partial accumulators (metrics slots,
//                                     epoch recorder slots, a topo
//                                     recorder) and sample traces; with
//                                     interest aggregation, first land the
//                                     router's completed fetches and join
//                                     a fetch still in flight
//
// Partials fold in router-index order at flush/report time, so no global
// order is needed to record. Windows truncate at timeline-epoch and warmup
// boundaries, so the epoch recorder's end-of-epoch network snapshots see
// exactly the epoch's requests, every request of a window is in the same
// phase, and the phase clock stamps the warmup crossing exactly.
#include "ccnopt/sim/sharded.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <iterator>
#include <limits>
#include <optional>
#include <span>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "ccnopt/common/assert.hpp"
#include "ccnopt/common/random.hpp"
#include "ccnopt/obs/span.hpp"
#include "ccnopt/obs/trace.hpp"
#include "ccnopt/sim/engine_detail.hpp"

namespace ccnopt::sim {
namespace {

// Requests selected and served per window. Large enough to amortize the
// per-window barriers and keep every worker busy, small enough that the
// unconsumed arrival times stay cache-resident.
constexpr std::uint64_t kWindow = 32768;

// One active router's arrival process: its splitmix64 sub-stream of the
// run seed, unrolled into an ascending absolute-time vector (each arrival
// is the previous one plus an exponential draw).
struct RouterGen {
  explicit RouterGen(std::uint64_t seed) : clock(seed) {}
  Rng clock;
  std::vector<double> times;  // not yet emitted, ascending
  std::size_t avail = 0;      // leading entries with time < horizon
  double last_time = 0.0;
};

// Everything one shard owns: its contiguous range of active routers, the
// network scratch its router-major serves write telemetry into, the
// recorder its tier events go to, and its trace buffer.
struct ShardState {
  std::uint32_t lo = 0;  // active-position range [lo, hi)
  std::uint32_t hi = 0;
  CcnNetwork::ShardScratch scratch;  // router-major runs only
  obs::TopoRecorder topo;  // router-major runs that record topo
  // &topo in router-major runs, the run's recorder in emission-order runs,
  // null when the run records no topo.
  obs::TopoRecorder* tier_topo = nullptr;
  obs::TraceBuffer traces;     // whole run, router-major per window
  std::uint64_t upstream = 0;  // whole-run non-local serves (integer fold)
  std::uint64_t aggregated = 0;  // whole-run joins (integer fold)
};

// One active router's interest aggregation state, touched only by the
// shard that owns the router and kept across windows: its Pending Interest
// Table, which maps each content in flight to the requests that joined its
// fetch as (arrival time, measured), and the fetches themselves in a
// min-heap on (completion time, issue count). A completion never touches a
// cache, so landing a fetch only records it; landing this router's
// completions before each of its arrivals, ties in issue order, records
// every slot in the order of a completion-event loop.
struct RouterPit {
  struct Flight {
    double done_at;
    std::uint64_t seq;  // fetches this router issued before it
    cache::ContentId content;
    ServeResult result;
    bool measured;
  };
  // The heap comparator: x completes after y.
  static bool later(const Flight& x, const Flight& y) {
    return x.done_at != y.done_at ? x.done_at > y.done_at : x.seq > y.seq;
  }

  // A non-local serve at `time` puts its fetch in flight.
  void issue(cache::ContentId content, double time, const ServeResult& result,
             bool measured) {
    pending.try_emplace(content);
    flights.push_back(
        Flight{time + result.latency_ms, issued++, content, result, measured});
    std::push_heap(flights.begin(), flights.end(), later);
  }

  // Lands the fetches that complete at or before `time`, in completion
  // order: records the fetch if its initiator was measured, then its
  // measured joiners, in join order, with their remaining flight time.
  void land(double time, MetricsCollector& metrics, topology::NodeId router) {
    while (!flights.empty() && flights.front().done_at <= time) {
      std::pop_heap(flights.begin(), flights.end(), later);
      const Flight& flight = flights.back();
      const ServeResult& result = flight.result;
      if (flight.measured) {
        metrics.record(router, result.tier, result.latency_ms, result.hops);
      }
      const auto node = pending.extract(flight.content);
      CCNOPT_ASSERT(!node.empty());
      for (const auto& [joined_at, measured] : node.mapped()) {
        if (measured) {
          metrics.record(router, result.tier, flight.done_at - joined_at,
                         result.hops);
        }
      }
      flights.pop_back();
    }
  }

  bool empty() const { return flights.empty() && pending.empty(); }

  std::vector<Flight> flights;
  std::unordered_map<cache::ContentId, std::vector<std::pair<double, bool>>>
      pending;
  std::uint64_t issued = 0;
};

}  // namespace

const char* sharded_run_disqualifier(const Workload& workload,
                                     const CcnNetwork& network) {
  if (!workload.per_router_streams()) {
    return "workload streams are globally coupled across routers";
  }
  if (network.data_plane().forwarding !=
      strategy::ForwardingMode::kOwnerTable) {
    return "on-path forwarding strategy mutates caches along the path";
  }
  if (network.config().allow_peer_local_fetch) {
    return "peer-local fetch couples router stores";
  }
  return nullptr;
}

SimReport Simulation::run_windowed(ShardExecutor& executor,
                                   bool emission_order) {
  const obs::ScopedSpan run_span("sim.run");
  trace_.clear();
  timeline_ = config_.timeline_epoch > 0
                  ? obs::Timeline(config_.timeline_epoch, timeline_columns())
                  : obs::Timeline();
  const obs::TraceSampler sampler(
      derive_seed(config_.seed, detail::kTraceSeedIndex),
      config_.trace_sample_k);
  topo_ = obs::TopoRecorder();
  std::vector<std::pair<std::uint32_t, std::uint32_t>> links;
  if (config_.record_topo) {
    links.reserve(network_->graph().links().size());
    for (const topology::Graph::Link& link : network_->graph().links()) {
      links.emplace_back(link.u, link.v);
    }
    topo_ = obs::TopoRecorder(network_->graph().name(),
                              network_->router_count(), links);
  }
  obs::TopoRecorder* const topo = topo_.enabled() ? &topo_ : nullptr;
  // Router-major shards serve against a network that carries NO recorder:
  // placements go to the per-shard recorders in the serve scratch, absorbed
  // into the run recorder at the end. An emission-order run serves alone,
  // so the network reports placements straight to the run recorder.
  // Placement depths are computed whenever traces are sampled.
  network_->set_topo_recorder(emission_order ? topo : nullptr);
  network_->set_record_placement_depth(sampler.enabled());
  std::uint64_t messages = 0;
  {
    const obs::ScopedSpan provision_span("sim.provision");
    messages = network_->provision(config_.coordinated_x);
  }
  MetricsCollector metrics;
  metrics.resize_routers(network_->router_count());
  metrics.record_coordination_messages(messages);

  const obs::ScopedSpan replay_span("sim.replay");
  const double rate = config_.arrival_rate_per_router;
  const std::uint64_t total_requests =
      config_.warmup_requests + config_.measured_requests;

  // Active routers, in router-id order; all positions below are indices
  // into this list ("active positions").
  std::vector<topology::NodeId> actives;
  for (std::size_t r = 0; r < network_->router_count(); ++r) {
    if (workload_->active(r)) {
      actives.push_back(static_cast<topology::NodeId>(r));
    }
  }
  CCNOPT_EXPECTS(!actives.empty());
  const std::size_t active_count = actives.size();

  // Contiguous split of the actives across at most `shards` shards (each
  // shard needs at least one router — more shards than routers cannot
  // help, router-partitioned as the engine is); emission-order runs use
  // one.
  const std::size_t shard_count =
      emission_order ? 1 : std::min(config_.shards, active_count);
  std::vector<ShardState> shards(shard_count);
  for (std::size_t s = 0; s < shard_count; ++s) {
    ShardState& shard = shards[s];
    shard.lo = static_cast<std::uint32_t>(active_count * s / shard_count);
    shard.hi = static_cast<std::uint32_t>(active_count * (s + 1) / shard_count);
    if (emission_order) {
      shard.tier_topo = topo;
      continue;
    }
    if (config_.record_topo) {
      shard.topo = obs::TopoRecorder(network_->graph().name(),
                                     network_->router_count(), links);
      shard.tier_topo = &shard.topo;
    }
    shard.scratch = network_->make_shard_scratch(shard.tier_topo);
  }

  std::vector<RouterGen> gens;
  gens.reserve(active_count);
  for (const topology::NodeId router : actives) {
    gens.emplace_back(derive_seed(config_.seed, router));
  }
  std::vector<RouterPit> pits(config_.interest_aggregation ? active_count : 0);

  std::optional<detail::EpochRecorder> recorder;
  if (timeline_.enabled()) {
    recorder.emplace(&timeline_, network_.get(), network_->router_count());
  }
  detail::EpochRecorder* const epoch = recorder ? &*recorder : nullptr;

  using Clock = std::chrono::steady_clock;
  const Clock::time_point replay_start = Clock::now();
  Clock::time_point warmup_end = replay_start;

  // Window buffers, reused across windows. window_order.end[a] counts
  // router a's entries in the window, a prefix of gens[a].times; sorted
  // windows also carry their global order there.
  const bool traced = sampler.enabled();
  detail::WindowOrder window_order;
  std::vector<std::size_t>& end = window_order.end;
  end.assign(active_count, 0);
  std::vector<std::span<const double>> candidates(active_count);
  // Traced router-major runs: global request index of each window entry,
  // router a's segment starting at offset[a] (cursor[a] fills it).
  std::vector<std::size_t> offset(active_count, 0);
  std::vector<std::size_t> cursor(active_count, 0);
  std::vector<std::uint64_t> win_index;

  std::uint64_t emitted = 0;
  while (emitted < total_requests) {
    std::uint64_t window = std::min(kWindow, total_requests - emitted);
    if (recorder) {
      // Epoch-aligned windows: the recorder's end-of-epoch network
      // snapshot then sees exactly the epoch's requests.
      window = std::min(window, config_.timeline_epoch -
                                    (emitted % config_.timeline_epoch));
    }
    if (emitted < config_.warmup_requests) {
      window = std::min(window, config_.warmup_requests - emitted);
    } else if (emitted == config_.warmup_requests) {
      warmup_end = Clock::now();
    }
    const bool measured = emitted >= config_.warmup_requests;
    const std::uint64_t base = emitted;

    // --- Generate: extend per-router arrival times until the window's
    // requests are all certain. An entry is certain once it lies strictly
    // below the horizon (the smallest per-router frontier time) — every
    // future draw lands at or above it. Each round extends only the
    // routers whose frontier is at or below a target time: the horizon
    // plus each router's share of the missing entries and two more, in
    // expected arrivals. Routers ahead of the pack draw nothing, so the
    // unconsumed vectors stay near one window in total. Order and select
    // read only entries below the horizon, so how far generation runs
    // ahead never changes the output.
    {
      const obs::ScopedSpan generate_span("sim.generate");
      std::uint64_t available = 0;
      for (;;) {
        double horizon = std::numeric_limits<double>::infinity();
        for (const RouterGen& gen : gens) {
          horizon = std::min(horizon, gen.last_time);
        }
        available = 0;
        for (RouterGen& gen : gens) {
          gen.avail = static_cast<std::size_t>(
              std::lower_bound(gen.times.begin(), gen.times.end(), horizon) -
              gen.times.begin());
          available += gen.avail;
        }
        if (available >= window) break;
        const std::uint64_t missing = window - available;
        const double target =
            horizon + static_cast<double>(missing / active_count + 2) / rate;
        executor.run_shards(shard_count, [&](std::size_t s) {
          for (std::uint32_t a = shards[s].lo; a < shards[s].hi; ++a) {
            RouterGen& gen = gens[a];
            while (gen.last_time <= target) {
              gen.last_time += gen.clock.exponential(rate);
              gen.times.push_back(gen.last_time);
            }
          }
        });
      }
    }

    // --- Order (emission-order runs, and traced runs' measured windows):
    // sort the candidates below the horizon into the emission order,
    // (time, active position), and take its first `window` entries. An
    // emission-order run serves window_order.order as it stands; a
    // router-major run writes each entry's global request index into that
    // router's segment of win_index, which trace sampling keys on.
    const bool sampling = traced && measured;
    if (emission_order || sampling) {
      const obs::ScopedSpan order_span("sim.order");
      for (std::size_t a = 0; a < active_count; ++a) {
        candidates[a] = {gens[a].times.data(), gens[a].avail};
      }
      detail::order_window(candidates, window, window_order);
      if (sampling) {
        std::size_t running = 0;
        for (std::size_t a = 0; a < active_count; ++a) {
          offset[a] = running;
          cursor[a] = running;
          running += end[a];
        }
        win_index.resize(window);
        for (std::uint64_t i = 0; i < window; ++i) {
          win_index[cursor[window_order.order[i]]++] = base + i;
        }
      }
    } else {
      // --- Select (every other window): each router's count of the
      // window's entries, the `window` smallest available ones under
      // (time, active position). Binary search on the time value down to
      // adjacent doubles; any remainder is then a tie on one exact value,
      // broken in ascending active-position order as the sort breaks it.
      const obs::ScopedSpan select_span("sim.select");
      const auto count_le = [&](double value) {
        std::uint64_t count = 0;
        for (const RouterGen& gen : gens) {
          const auto begin = gen.times.begin();
          count += static_cast<std::uint64_t>(
              std::upper_bound(begin, begin + gen.avail, value) - begin);
        }
        return count;
      };
      double lo = -1.0;
      double hi = std::numeric_limits<double>::infinity();
      for (const RouterGen& gen : gens) {
        hi = std::min(hi, gen.last_time);
      }
      for (;;) {
        const double mid = lo + (hi - lo) / 2.0;
        if (!(mid > lo && mid < hi)) break;
        const std::uint64_t count = count_le(mid);
        if (count >= window) {
          hi = mid;
          if (count == window) break;
        } else {
          lo = mid;
        }
      }
      std::uint64_t taken = 0;
      for (std::size_t a = 0; a < active_count; ++a) {
        const auto begin = gens[a].times.begin();
        end[a] = static_cast<std::size_t>(
            std::upper_bound(begin, begin + gens[a].avail, lo) - begin);
        taken += end[a];
      }
      std::uint64_t extra = window - taken;
      for (std::size_t a = 0; a < active_count && extra > 0; ++a) {
        const auto begin = gens[a].times.begin();
        const std::size_t up_hi = static_cast<std::size_t>(
            std::upper_bound(begin, begin + gens[a].avail, hi) - begin);
        const std::uint64_t more =
            std::min<std::uint64_t>(extra, up_hi - end[a]);
        end[a] += more;
        extra -= more;
      }
      CCNOPT_ASSERT(extra == 0);
    }

    // The per-request record body of both serve loops: the epoch recorder
    // and upstream count for every request; the metrics slot, the tier
    // event and the sampled trace for measured ones. Under aggregation a
    // non-local serve puts its fetch in flight instead, and its metrics
    // slot is written when it lands. Every accumulation is per-router (or
    // an integer count), so it is safe from concurrent shards owning
    // disjoint routers. A trace must be taken straight after the serve
    // that produced `result` — the hop path reads the routing scratch of
    // the request in flight.
    const auto record = [&](auto aggregate, ShardState& shard,
                            std::uint64_t& upstream, std::uint32_t a,
                            topology::NodeId router, cache::ContentId content,
                            const ServeResult& result, std::uint64_t index,
                            double time) {
      constexpr bool kAggregate = decltype(aggregate)::value;
      if (epoch != nullptr) epoch->accumulate(router, result);
      if (result.tier != ServeTier::kLocal) {
        ++upstream;
        if constexpr (kAggregate) {
          pits[a].issue(content, time, result, measured);
        }
      }
      if (!measured) return;
      if (!kAggregate || result.tier == ServeTier::kLocal) {
        metrics.record(router, result.tier, result.latency_ms, result.hops);
      }
      if (shard.tier_topo != nullptr) {
        shard.tier_topo->on_request(static_cast<std::uint32_t>(router),
                                    static_cast<std::uint32_t>(result.tier),
                                    result.served_by, result.latency_ms,
                                    result.hops);
      }
      if (sampling && sampler.should_sample(index)) {
        obs::TraceEvent event{
            0, index, static_cast<std::uint32_t>(router), content,
            to_string(result.tier), result.hops,
            static_cast<std::uint32_t>(result.served_by), {}, -1,
            result.latency_ms};
        event.path = network_->hop_path(router, result);
        event.placement_depth = result.placement_depth;
        shard.traces.push_back(std::move(event));
      }
    };

    // Interest aggregation, before router a's arrival at `time`: land the
    // router's fetches that completed by then, then join its fetch still
    // in flight for `content`, if any. True when the request joined, and
    // so is not served.
    const auto join = [&](ShardState& shard, std::uint32_t a,
                          topology::NodeId router, cache::ContentId content,
                          double time) {
      RouterPit& pit = pits[a];
      pit.land(time, metrics, router);
      const auto it = pit.pending.find(content);
      if (it == pit.pending.end()) return false;
      it->second.emplace_back(time, measured);
      ++shard.aggregated;
      if (epoch != nullptr) epoch->on_aggregated(router);
      return true;
    };

    // --- Serve in emission order, one shard: draw each content in global
    // order (a coupled workload's stream depends on it), prefetch the next
    // request's cache state, and serve() against the shared network, whose
    // on-path walks and peer fetches may touch any router's store and count
    // links straight into its counters.
    const auto serve_in_emission_order = [&](auto aggregate) {
      ShardState& shard = shards[0];
      std::uint64_t upstream = 0;
      const std::vector<std::uint32_t>& order = window_order.order;
      topology::NodeId router = actives[order[0]];
      cache::ContentId content = workload_->next(router);
      for (std::uint64_t i = 0; i < window; ++i) {
        topology::NodeId next_router = 0;
        cache::ContentId next_content = 0;
        if (i + 1 < window) {
          next_router = actives[order[i + 1]];
          next_content = workload_->next(next_router);
          network_->prefetch(next_router, next_content);
        }
        const double time = window_order.times[i];
        if (!decltype(aggregate)::value ||
            !join(shard, order[i], router, content, time)) {
          const ServeResult result = network_->serve(router, content);
          record(aggregate, shard, upstream, order[i], router, content, result,
                 base + i, time);
        }
        router = next_router;
        content = next_content;
      }
      shard.upstream += upstream;
    };

    // --- Serve router-major: each shard walks its routers in active order
    // and serves each router's window segment, drawing the next request's
    // content and prefetching its cache state one request ahead. Per-router
    // draw and serve order equals the emission order restricted to that
    // router, and the workload streams are per-router, so content values
    // and cache transitions are those of the emission order bit for bit;
    // every double accumulation is per-router, so router-major recording
    // reproduces the canonical partials too. Tier events go to the shard's
    // OWN topo recorder (served_for_peers may cross shards; integer
    // counters fold exactly at absorb time).
    const auto serve_router_major = [&](auto aggregate) {
      executor.run_shards(shard_count, [&](std::size_t s) {
        ShardState& shard = shards[s];
        std::uint64_t upstream = 0;
        std::uint32_t a = shard.lo;
        std::size_t j = 0;
        while (a < shard.hi && end[a] == 0) ++a;
        if (a == shard.hi) return;
        topology::NodeId router = actives[a];
        cache::ContentId content = workload_->next(router);
        for (;;) {
          // The shard's next request: this router's next arrival, else the
          // first arrival of the next router with any in this window.
          std::uint32_t next_a = a;
          std::size_t next_j = j + 1;
          while (next_a < shard.hi && next_j == end[next_a]) {
            ++next_a;
            next_j = 0;
          }
          const bool more = next_a < shard.hi;
          topology::NodeId next_router = 0;
          cache::ContentId next_content = 0;
          if (more) {
            next_router = actives[next_a];
            next_content = workload_->next(next_router);
            network_->prefetch(next_router, next_content);
          }
          const double time = gens[a].times[j];
          if (!decltype(aggregate)::value ||
              !join(shard, a, router, content, time)) {
            const ServeResult result =
                network_->serve_sharded(router, content, shard.scratch);
            record(aggregate, shard, upstream, a, router, content, result,
                   sampling ? win_index[offset[a] + j] : 0, time);
          }
          if (!more) break;
          a = next_a;
          j = next_j;
          router = next_router;
          content = next_content;
        }
        shard.upstream += upstream;
      });
      // Fold the shard link counters before the epoch recorder's boundary
      // snapshot reads them; only that flush stays serial.
      for (ShardState& shard : shards) {
        network_->fold_shard_scratch(shard.scratch);
      }
    };

    {
      const obs::ScopedSpan serve_span("sim.serve");
      // Each serve loop is instantiated with and without aggregation, and
      // chosen once per window, so a run without it pays nothing for it.
      const auto dispatch = [&](const auto& serve) {
        if (config_.interest_aggregation) {
          serve(std::true_type{});
        } else {
          serve(std::false_type{});
        }
      };
      if (emission_order) {
        dispatch(serve_in_emission_order);
      } else {
        dispatch(serve_router_major);
      }
      if (recorder) recorder->advance(window);
    }
    emitted += window;

    // --- Drop the window's arrival times.
    for (std::size_t a = 0; a < active_count; ++a) {
      std::vector<double>& times = gens[a].times;
      times.erase(times.begin(),
                  times.begin() + static_cast<std::ptrdiff_t>(end[a]));
    }
  }
  CCNOPT_ENSURES(emitted == total_requests);
  // Interest aggregation: land every fetch still in flight.
  for (std::size_t a = 0; a < pits.size(); ++a) {
    pits[a].land(std::numeric_limits<double>::infinity(), metrics, actives[a]);
  }
  CCNOPT_ENSURES(std::all_of(pits.begin(), pits.end(),
                             [](const RouterPit& pit) { return pit.empty(); }));
  if (recorder) recorder->finish();
  std::uint64_t upstream = 0;
  std::uint64_t aggregated = 0;
  for (const ShardState& shard : shards) {
    upstream += shard.upstream;
    aggregated += shard.aggregated;
  }

  // Fold the per-shard tier/placement recorders (integer counters sum
  // exactly under any grouping; the double latency sums are per-router
  // and only the owning shard's recorder carries a non-zero value, so
  // absorbing the others adds a bit-neutral +0.0 — shard index order
  // keeps the fold canonical anyway; an emission-order run's shard has
  // none, its events went to the run recorder). Then take the end-of-run
  // snapshots; the per-router cache snapshot writes disjoint nodes, so it
  // folds over fixed index-ordered router blocks on the executor.
  if (topo != nullptr) {
    for (ShardState& shard : shards) {
      topo->absorb(shard.topo);
    }
    const std::size_t router_count = network_->router_count();
    constexpr std::size_t kSnapshotBlock = 256;
    const std::size_t snapshot_blocks =
        (router_count + kSnapshotBlock - 1) / kSnapshotBlock;
    executor.run_shards(snapshot_blocks, [&](std::size_t b) {
      const std::size_t lo = b * kSnapshotBlock;
      const std::size_t hi = std::min(router_count, lo + kSnapshotBlock);
      for (std::size_t r = lo; r < hi; ++r) {
        const auto id = static_cast<topology::NodeId>(r);
        const cache::PartitionedStore& store = network_->store(id);
        const cache::CacheStats& local_stats = store.local().stats();
        topo->set_router_cache(
            id, local_stats.evictions, local_stats.insertions, store.size(),
            static_cast<std::uint64_t>(network_->capacity_of(id)));
      }
    });
    topo->add_link_traversals(network_->link_counts());
  }

  // Shards sample router-major within each window; sorting on the unique
  // request index restores the global emission order.
  for (ShardState& shard : shards) {
    std::move(shard.traces.begin(), shard.traces.end(),
              std::back_inserter(trace_));
  }
  std::sort(trace_.begin(), trace_.end(),
            [](const obs::TraceEvent& x, const obs::TraceEvent& y) {
              return x.request_index < y.request_index;
            });

  if (config_.warmup_requests == 0) warmup_end = replay_start;
  phase_seconds_.warmup =
      std::chrono::duration<double>(warmup_end - replay_start).count();
  phase_seconds_.measured =
      std::chrono::duration<double>(Clock::now() - warmup_end).count();

  SimReport report = make_report(metrics);
  report.aggregated_requests = aggregated;
  report.upstream_fetches = upstream;
  detail::flush_run_registry(metrics, report, aggregated, upstream,
                             trace_.size());
  return report;
}

}  // namespace ccnopt::sim
