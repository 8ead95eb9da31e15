#include "ccnopt/sim/simulation.hpp"

#include <chrono>
#include <optional>
#include <queue>
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

namespace {

// Requests per block of the batched engine, which serves the runs the
// windowed engine rejects except interest aggregation (on-path
// strategies, globally coupled workloads, peer-local fetch): drawn from
// the arrival processes, served in a tight loop with the next request's
// cache state prefetched one iteration ahead, then recorded in emission
// order.
constexpr std::uint64_t kBlock = 256;

}  // namespace

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
  // Windowed engine dispatch: qualifying runs partition the stream by
  // first-hop router and serve shards concurrently (bit-identical outputs
  // at any shard count); without an attached executor the shards run
  // serially, which keeps the engine testable single-threaded.
  const char* const disqualifier =
      sharded_run_disqualifier(config_, *workload_, *network_);
  if (disqualifier == nullptr) {
    last_engine_ = "windowed";
    if (shard_executor_ != nullptr) {
      return run_sharded_impl(*shard_executor_);
    }
    SerialShardExecutor serial;
    return run_sharded_impl(serial);
  }
  if (config_.shards > 1) {
    // The fallback is bit-identical by contract, but far slower — never
    // let a bench measure one thread thinking it measured shards.
    CCNOPT_LOG(kWarn) << "windowed engine: shards=" << config_.shards
                      << " requested but the run does not qualify ("
                      << disqualifier
                      << "); falling back to the single-thread engine";
  }
  last_engine_ = config_.interest_aggregation ? "event_loop" : "batched";
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
  // request, in emission order, from both engines.
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

  // One topo-recorder tick per measured request, in emission order; the
  // tier codes are shared with obs by construction.
  static_assert(static_cast<std::uint32_t>(ServeTier::kLocal) ==
                obs::kTopoTierLocal);
  static_assert(static_cast<std::uint32_t>(ServeTier::kNetwork) ==
                obs::kTopoTierNetwork);
  static_assert(static_cast<std::uint32_t>(ServeTier::kOrigin) ==
                obs::kTopoTierOrigin);
  const auto topo_record = [topo](std::size_t router,
                                  const ServeResult& result) {
    topo->on_request(static_cast<std::uint32_t>(router),
                     static_cast<std::uint32_t>(result.tier),
                     static_cast<std::uint32_t>(result.served_by),
                     result.latency_ms, result.hops);
  };

  // End-of-run snapshot of cache state and link loads into the recorder
  // (whole-run totals; they reconcile with cache_totals()/link_counts()).
  const auto finalize_topo = [&] {
    if (topo == nullptr) return;
    for (topology::NodeId id = 0; id < network_->router_count(); ++id) {
      const cache::PartitionedStore& store = network_->store(id);
      const cache::CacheStats& local_stats = store.local().stats();
      topo->set_router_cache(
          id, local_stats.evictions, local_stats.insertions, store.size(),
          static_cast<std::uint64_t>(network_->capacity_of(id)));
    }
    topo->add_link_traversals(network_->link_counts());
  };

  // Phase wall-clock: the batched engine aligns block ends to the warmup
  // boundary (truncation never changes the merge order) so the split is
  // exact; the aggregation event loop stamps at the first measured
  // emission.
  using Clock = std::chrono::steady_clock;
  const Clock::time_point replay_start = Clock::now();
  Clock::time_point warmup_end = replay_start;
  const auto finish_phase_clock = [&] {
    if (config_.warmup_requests == 0) warmup_end = replay_start;
    phase_seconds_.warmup =
        std::chrono::duration<double>(warmup_end - replay_start).count();
    phase_seconds_.measured =
        std::chrono::duration<double>(Clock::now() - warmup_end).count();
  };

  if (!config_.interest_aggregation) {
    // Batched request engine. Without aggregation an event queue would only
    // ever hold arrival events, one per active router, each rescheduling
    // itself on pop — so the queue's behaviour is replayed exactly by a
    // k-way merge on (time, seq): initial seqs in router scheduling order,
    // then a global counter incremented at each pop, just as EventQueue
    // stamps schedule_after() calls.
    struct NextArrival {
      SimTime time;
      std::uint64_t seq;
      std::uint32_t router;
    };
    const auto later = [](const NextArrival& a, const NextArrival& b) {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    };
    std::priority_queue<NextArrival, std::vector<NextArrival>, decltype(later)>
        heap(later);
    std::uint64_t seq_counter = 0;
    bool any_active = false;
    for (std::size_t router = 0; router < network_->router_count(); ++router) {
      if (!workload_->active(router)) continue;
      any_active = true;
      heap.push(NextArrival{
          clocks[router].exponential(config_.arrival_rate_per_router),
          seq_counter++, static_cast<std::uint32_t>(router)});
    }
    CCNOPT_EXPECTS(any_active);

    struct BlockEntry {
      std::uint64_t index;  // global emission index
      cache::ContentId content;
      std::uint32_t router;
    };
    std::vector<BlockEntry> block;
    block.reserve(kBlock);
    std::vector<ServeResult> results(kBlock);
    while (emitted < total_requests) {
      // Generation pass: resolve the next block of (router, content) pairs
      // by replaying the queue's exact pop order.
      block.clear();
      std::uint64_t want = std::min(kBlock, total_requests - emitted);
      if (recorder) {
        // Align block ends to timeline epoch boundaries so the recorder's
        // end-of-epoch network-state snapshot (evictions, occupancy, link
        // counters) sees exactly the requests of the epoch. Truncating a
        // block never changes the merge order, so the request streams (and
        // thus every other output) stay bit-identical to full-size blocks.
        const std::uint64_t to_boundary =
            config_.timeline_epoch - (emitted % config_.timeline_epoch);
        want = std::min(want, to_boundary);
      }
      if (emitted < config_.warmup_requests) {
        // Align to the warmup boundary too, so the phase clock stamps it
        // exactly (truncation keeps outputs bit-identical, as above).
        want = std::min(want, config_.warmup_requests - emitted);
      } else if (emitted == config_.warmup_requests) {
        warmup_end = Clock::now();
      }
      for (std::uint64_t i = 0; i < want; ++i) {
        const NextArrival top = heap.top();
        heap.pop();
        const std::uint64_t request_index = emitted;
        ++emitted;
        block.push_back(
            BlockEntry{request_index, workload_->next(top.router), top.router});
        heap.push(NextArrival{
            top.time +
                clocks[top.router].exponential(config_.arrival_rate_per_router),
            seq_counter++, top.router});
      }
      // Serve pass: tight loop over resolved pairs, the next request's
      // membership-index and owner-table state prefetched one iteration
      // ahead so the lookups land in cache. Sampled traces are captured
      // here, right after their serve(), while the hop-path scratch is
      // still this request's — the pass iterates in emission order, so the
      // trace buffer is identical to recording in the metrics pass.
      for (std::size_t i = 0; i < block.size(); ++i) {
        if (i + 1 < block.size()) {
          network_->prefetch(block[i + 1].router, block[i + 1].content);
        }
        results[i] = network_->serve(block[i].router, block[i].content);
        if (results[i].tier != ServeTier::kLocal) ++upstream;
        if (block[i].index >= config_.warmup_requests) {
          maybe_trace(block[i].index, block[i].router, block[i].content,
                      results[i]);
        }
      }
      // Metrics pass, once per block, in emission order. All double
      // accumulation goes into per-router partials, and emission order
      // restricted to one router is that router's own order — so the
      // partials (and everything folded from them) are bit-identical to
      // the windowed engine's.
      for (std::size_t i = 0; i < block.size(); ++i) {
        if (recorder) recorder->accumulate(block[i].router, results[i]);
        if (block[i].index < config_.warmup_requests) continue;
        metrics.record(block[i].router, results[i].tier,
                       results[i].latency_ms, results[i].hops);
        if (topo != nullptr) topo_record(block[i].router, results[i]);
      }
      // Blocks are epoch-aligned, so a boundary can only land here.
      if (recorder) recorder->advance(block.size());
    }
    CCNOPT_ENSURES(emitted == total_requests);
    if (recorder) recorder->finish();
    finalize_topo();
    finish_phase_clock();
    SimReport report = make_report(metrics);
    report.aggregated_requests = 0;
    report.upstream_fetches = upstream;
    detail::flush_run_registry(metrics, report, 0, upstream, trace_.size());
    return report;
  }

  // Interest aggregation: the event loop, which alone has completion
  // events. Pending Interest Table (per router x content): requests
  // arriving while a fetch is in flight join it and complete at its
  // completion event.
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
      if (measured && topo != nullptr) topo_record(router, result);
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
  finalize_topo();
  finish_phase_clock();
  SimReport report = make_report(metrics);
  report.aggregated_requests = aggregated;
  report.upstream_fetches = upstream;
  detail::flush_run_registry(metrics, report, aggregated, upstream,
                             trace_.size());
  return report;
}

}  // namespace ccnopt::sim
