// Windowed request engine: every simulation run. A run that
// sharded_run_disqualifier() admits is partitioned by first-hop router
// across worker shards; any other run is served on one shard in emission
// order. Outputs are bit-identical at any shard count, one included.
//
// Why router partitioning is exact (not approximate): under owner-table
// forwarding without peer-local fetch, serving a request at router r
// mutates ONLY r's own store (plus link counters, which are diverted into
// per-shard scratch and summed back — see CcnNetwork::serve_sharded). A
// request's outcome is therefore a pure function of the prior request
// subsequence at its own router, so shards owning disjoint routers can
// serve concurrently against the one shared network and reproduce the
// emission-order cache-state trajectory exactly. The per-router arrival
// clocks and workload streams are independently seeded sub-streams, so
// each shard also generates its routers' arrival times and content draws
// without seeing the global interleaving.
//
// The emission order interleaves the per-router arrival sequences (each
// ascends) on (time, active router position), and a window of the next W
// requests is each router's next end[a] arrivals (windows truncate at
// timeline-epoch and warmup boundaries, which never changes the order).
// Each shard then serves its routers' window segments router-major,
// recording every result in the same loop: every floating-point
// accumulation (Welford stats, timeline epoch sums, topo latency sums)
// lives in PER-ROUTER partials, each written by exactly one shard in that
// router's own arrival order, and folded in router-index order through a
// fixed-shape merge tree (numerics::merge_tree) whose grouping depends
// only on the router count. So reports, timelines, topo exports, traces
// and metric exports are bit-identical at any shard count. Integer
// counters (tier counts, histograms' fixed-point sums, link traversals)
// are exact under any order. An untraced window therefore needs only the
// counts end[a], found by bisection on time. Trace sampling keys on the
// global request index, so a traced run's measured windows are sorted
// instead: one stable bucket sort (detail::order_window) puts every
// candidate arrival in emission order, and its first W entries are the
// window, each with its global index. Only the per-window order or
// select, the epoch-boundary flush, the trace sort, and final export
// remain serial.
//
// Emission order. On-path strategies mutate every store along a miss
// path, peer-local fetch reads other routers' stores, and a coupled
// workload's draws depend on the global interleaving, so those runs need
// the requests one at a time in global order. They use one shard: each
// window is sorted as above into the list of its requests' routers, and
// one loop draws, prefetches, serve()s and records them in that order,
// through the same record body as the router-major loop. The network
// then carries the run's own topo recorder and counts links in its
// shared counters; no shard scratch is built or folded.
//
// Interest aggregation. A router's Pending Interest Table is keyed by
// (router, content), and a completing fetch never touches a cache, so
// aggregated runs shard and order exactly like any other. Each router's
// fetches in flight wait in a min-heap on (completion time, issue count)
// that persists across windows; before each arrival of the router, the
// fetches completed by its time land (and record) in heap order, and the
// arrival then joins the router's fetch for its content, if one is still
// in flight. That is each router's record order in a completion-event
// loop, and metrics slots are per router. Every router drains at the end
// of the run.
#pragma once

#include <cstddef>
#include <functional>

#include "ccnopt/sim/simulation.hpp"

namespace ccnopt::sim {

/// Runs the bodies of one parallel region. The windowed engine issues a
/// sequence of regions per window (generate, then the router-major serve)
/// and one end-of-run cache snapshot; each run_shards() call is a barrier:
/// it returns only after every body completed, and every write a body made
/// happens-before the caller's next statement. Implementations may run
/// bodies concurrently (runtime::ShardScheduler) or inline.
class ShardExecutor {
 public:
  virtual ~ShardExecutor() = default;
  /// Invokes body(0) ... body(count - 1), each exactly once, possibly
  /// concurrently; propagates the first body exception after all complete.
  virtual void run_shards(std::size_t count,
                          const std::function<void(std::size_t)>& body) = 0;
};

/// Runs the bodies one after another on the calling thread — the fallback
/// when no executor is attached.
class SerialShardExecutor final : public ShardExecutor {
 public:
  void run_shards(std::size_t count,
                  const std::function<void(std::size_t)>& body) override {
    for (std::size_t shard = 0; shard < count; ++shard) body(shard);
  }
};

/// Why the run cannot be served router-major, or nullptr when it can. A
/// run qualifies with per-router workload streams (the shards draw
/// without seeing the global interleaving) and owner-table forwarding
/// without peer-local fetch (the router-exclusive mutation argument
/// above), whatever its shard count or interest aggregation. A
/// non-qualifying run is served on one shard in emission order — same
/// outputs, by the bit-identity contract — and Simulation::run() logs the
/// returned reason when more than one shard was requested, so it can
/// never masquerade as a sharded measurement.
const char* sharded_run_disqualifier(const Workload& workload,
                                     const CcnNetwork& network);

}  // namespace ccnopt::sim
