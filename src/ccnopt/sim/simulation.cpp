#include "ccnopt/sim/simulation.hpp"

#include <chrono>
#include <optional>
#include <vector>

#include "ccnopt/common/assert.hpp"
#include "ccnopt/common/logging.hpp"
#include "ccnopt/common/random.hpp"
#include "ccnopt/obs/registry.hpp"
#include "ccnopt/obs/span.hpp"
#include "ccnopt/sim/engine_detail.hpp"
#include "ccnopt/sim/sharded.hpp"

namespace ccnopt::sim {

using detail::EpochRecorder;
using detail::kTraceSeedIndex;

const std::vector<std::string>& timeline_columns() {
  static const std::vector<std::string> columns = {
      "requests",
      "local",
      "network",
      "origin",
      "aggregated",
      "latency_ms_sum",
      "hops_sum",
      "local_latency_ms_sum",
      "network_latency_ms_sum",
      "origin_latency_ms_sum",
      "evictions",
      "insertions",
      "occupancy",
      "link_traversals",
      "max_link_load",
  };
  return columns;
}

Simulation::Simulation(topology::Graph graph, SimConfig config,
                       std::shared_ptr<const topology::RouteTable> routes)
    : config_(std::move(config)) {
  CCNOPT_EXPECTS(config_.shards >= 1);
  // The topo recorder exports per-link loads, so its runs keep the link
  // counters live. (Tracking never changes serve outcomes, only counters.)
  if (config_.record_topo) config_.network.track_link_load = true;
  network_ = std::make_unique<CcnNetwork>(std::move(graph), config_.network,
                                          std::move(routes));
  workload_ = std::make_unique<ZipfWorkload>(
      network_->router_count(), config_.network.catalog_size, config_.zipf_s,
      config_.seed, config_.sampler_kind);
}

void Simulation::set_workload(std::unique_ptr<Workload> workload) {
  CCNOPT_EXPECTS(workload != nullptr);
  CCNOPT_EXPECTS(workload->catalog_size() <= config_.network.catalog_size);
  workload_ = std::move(workload);
}

SimReport Simulation::run() {
  CCNOPT_EXPECTS(config_.arrival_rate_per_router > 0.0);
  if (!config_.interest_aggregation) {
    // The windowed engine: runs that qualify partition the stream by
    // first-hop router and serve shards concurrently; the rest are served
    // on one shard in emission order (sharded.hpp). Outputs are
    // bit-identical at any shard count. Without an attached executor the
    // shards run serially, which keeps the engine testable single-threaded.
    const char* const disqualifier =
        sharded_run_disqualifier(config_, *workload_, *network_);
    if (disqualifier != nullptr && config_.shards > 1) {
      // Same outputs, one thread — never let a bench measure one thread
      // thinking it measured shards.
      CCNOPT_LOG(kWarn) << "windowed engine: shards=" << config_.shards
                        << " requested but the run does not qualify ("
                        << disqualifier
                        << "); serving it on one shard in emission order";
    }
    last_engine_ = "windowed";
    const bool emission_order = disqualifier != nullptr;
    if (shard_executor_ != nullptr) {
      return run_windowed(*shard_executor_, emission_order);
    }
    SerialShardExecutor serial;
    return run_windowed(serial, emission_order);
  }

  // Interest aggregation: the event loop, which alone has completion
  // events.
  last_engine_ = "event_loop";
  const obs::ScopedSpan run_span("sim.run");
  trace_.clear();
  timeline_ = config_.timeline_epoch > 0
                  ? obs::Timeline(config_.timeline_epoch, timeline_columns())
                  : obs::Timeline();
  const obs::TraceSampler sampler(derive_seed(config_.seed, kTraceSeedIndex),
                                  config_.trace_sample_k);
  // Topology-resolved flight recorder: run-local like the timeline's
  // EpochRecorder, merged in replication order by the runner.
  topo_ = obs::TopoRecorder();
  if (config_.record_topo) {
    std::vector<std::pair<std::uint32_t, std::uint32_t>> links;
    links.reserve(network_->graph().links().size());
    for (const topology::Graph::Link& link : network_->graph().links()) {
      links.emplace_back(link.u, link.v);
    }
    topo_ = obs::TopoRecorder(network_->graph().name(),
                              network_->router_count(), std::move(links));
  }
  obs::TopoRecorder* const topo = topo_.enabled() ? &topo_ : nullptr;
  network_->set_topo_recorder(topo);
  // Sampled traces record the placement depth even when topo is off.
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
  const std::uint64_t total_requests =
      config_.warmup_requests + config_.measured_requests;
  std::uint64_t emitted = 0;
  std::uint64_t aggregated = 0;
  std::uint64_t upstream = 0;

  // Per-router arrival processes with independent seeded clocks, each the
  // router's splitmix64 sub-stream of the run seed.
  std::vector<Rng> clocks;
  clocks.reserve(network_->router_count());
  for (std::size_t i = 0; i < network_->router_count(); ++i) {
    clocks.emplace_back(derive_seed(config_.seed, i));
  }

  // Per-epoch telemetry (timeline_epoch > 0): one recorder call per emitted
  // request, in emission order.
  std::optional<EpochRecorder> recorder;
  if (timeline_.enabled()) {
    recorder.emplace(&timeline_, network_.get(), network_->router_count());
  }

  // Records one sampled request; the decision is pure in (seed, index).
  // Must run straight after the serve() that produced `result` — the hop
  // path reads the network's in-flight routing scratch.
  const auto maybe_trace = [&](std::uint64_t index, std::size_t router,
                               cache::ContentId content,
                               const ServeResult& result) {
    if (!sampler.enabled() || !sampler.should_sample(index)) return;
    obs::TraceEvent event{
        0, index, static_cast<std::uint32_t>(router), content,
        to_string(result.tier), result.hops,
        static_cast<std::uint32_t>(result.served_by), {}, -1,
        result.latency_ms};
    event.path =
        network_->hop_path(static_cast<topology::NodeId>(router), result);
    event.placement_depth = result.placement_depth;
    trace_.push_back(std::move(event));
  };

  // Phase wall-clock, stamped at the first measured emission.
  using Clock = std::chrono::steady_clock;
  const Clock::time_point replay_start = Clock::now();
  Clock::time_point warmup_end = replay_start;

  // Pending Interest Table (per router x content): requests arriving while
  // a fetch is in flight join it and complete at its completion event.
  // A joiner's latency is the remaining flight time — strictly less than a
  // fresh fetch would have cost it.
  struct PendingInterest {
    std::vector<std::pair<SimTime, bool>> joiners;  // (arrival, measured?)
  };
  std::unordered_map<std::uint64_t, PendingInterest> pit;
  EventQueue queue;
  const std::uint64_t router_count = network_->router_count();
  const auto pit_key = [router_count](std::size_t router,
                                      cache::ContentId content) {
    return content * router_count + router;
  };

  // One self-rescheduling arrival chain per active router.
  std::function<void(std::size_t)> arrival = [&](std::size_t router) {
    if (emitted >= total_requests) return;
    const std::uint64_t request_index = emitted;
    const bool measured = emitted >= config_.warmup_requests;
    if (request_index == config_.warmup_requests) warmup_end = Clock::now();
    ++emitted;
    const cache::ContentId content = workload_->next(router);

    const std::uint64_t key = pit_key(router, content);
    const auto it = pit.find(key);
    if (it != pit.end()) {
      ++aggregated;
      if (recorder) {
        recorder->on_aggregated();
        recorder->advance(1);
      }
      it->second.joiners.emplace_back(queue.now(), measured);
    } else {
      const ServeResult result =
          network_->serve(static_cast<topology::NodeId>(router), content);
      if (recorder) {
        recorder->accumulate(router, result);
        recorder->advance(1);
      }
      if (measured && topo != nullptr) {
        topo->on_request(static_cast<std::uint32_t>(router),
                         static_cast<std::uint32_t>(result.tier),
                         result.served_by, result.latency_ms, result.hops);
      }
      if (result.tier == ServeTier::kLocal) {
        if (measured) {
          metrics.record(router, result.tier, result.latency_ms,
                         result.hops);
          maybe_trace(request_index, router, content, result);
        }
      } else {
        ++upstream;
        if (measured) {
          maybe_trace(request_index, router, content, result);
        }
        pit.emplace(key, PendingInterest{});
        queue.schedule_after(
            result.latency_ms, [&metrics, &pit, &queue, key, result,
                                measured, router] {
              if (measured) {
                metrics.record(router, result.tier, result.latency_ms,
                               result.hops);
              }
              auto node = pit.extract(key);
              CCNOPT_ASSERT(!node.empty());
              for (const auto& [joined_at, joiner_measured] :
                   node.mapped().joiners) {
                if (joiner_measured) {
                  metrics.record(router, result.tier,
                                 queue.now() - joined_at, result.hops);
                }
              }
            });
      }
    }
    queue.schedule_after(
        clocks[router].exponential(config_.arrival_rate_per_router),
        [&arrival, router] { arrival(router); });
  };

  bool any_active = false;
  for (std::size_t router = 0; router < network_->router_count(); ++router) {
    if (!workload_->active(router)) continue;
    any_active = true;
    queue.schedule_after(
        clocks[router].exponential(config_.arrival_rate_per_router),
        [&arrival, router] { arrival(router); });
  }
  CCNOPT_EXPECTS(any_active);

  queue.run();
  CCNOPT_ENSURES(emitted == total_requests);
  CCNOPT_ENSURES(pit.empty());
  if (recorder) recorder->finish();
  // End-of-run snapshot of cache state and link loads into the recorder
  // (whole-run totals; they reconcile with cache_totals()/link_counts()).
  if (topo != nullptr) {
    for (topology::NodeId id = 0; id < network_->router_count(); ++id) {
      const cache::PartitionedStore& store = network_->store(id);
      const cache::CacheStats& local_stats = store.local().stats();
      topo->set_router_cache(
          id, local_stats.evictions, local_stats.insertions, store.size(),
          static_cast<std::uint64_t>(network_->capacity_of(id)));
    }
    topo->add_link_traversals(network_->link_counts());
  }
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
