// Windowed request engine: one simulation run partitioned by first-hop
// router across worker shards, bit-identical to the single-thread engines
// at any shard count, one included. Every run sharded_run_disqualifier()
// admits takes it.
//
// Why router partitioning is exact (not approximate): under owner-table
// forwarding without peer-local fetch, serving a request at router r
// mutates ONLY r's own store (plus link counters, which are diverted into
// per-shard scratch and summed back — see CcnNetwork::serve_sharded). A
// request's outcome is therefore a pure function of the prior request
// subsequence at its own router, so shards owning disjoint routers can
// serve concurrently against the one shared network and reproduce the
// sequential cache-state trajectory exactly. The per-router arrival clocks
// and workload streams are independently seeded sub-streams, so each
// shard also generates its routers' arrival times and content draws
// without seeing the global interleaving.
//
// The global order is needed only to cut windows and to sample traces.
// Each router's arrival times ascend, so the batched engine's pop order
// is the k-way merge of the per-router sequences, and a window of the
// next W requests is each router's next cut[a] arrivals, found by
// bisection on time (windows truncate at timeline-epoch and warmup
// boundaries, which never changes the order). Each shard then serves its
// routers' window segments router-major, recording every result in the
// same loop: every floating-point accumulation (Welford stats, timeline
// epoch sums, topo latency sums) lives in PER-ROUTER partials, each
// written by exactly one shard in that router's own arrival order, and
// folded in router-index order through a fixed-shape merge tree
// (numerics::merge_tree) whose grouping depends only on the router count.
// The batched engine accumulates into the identical per-router partials
// and folds them identically, so reports, timelines, topo exports, traces
// and metric exports are bit-identical at any shard count. Integer
// counters (tier counts, histograms' fixed-point sums, link traversals)
// are exact under any order. Trace sampling keys on the global request
// index, so traced runs also k-way-merge each window, in parallel chunks,
// to learn every request's index; untraced runs never merge. Only the
// per-window epoch-boundary flush, the trace sort, and final export
// remain serial.
//
// Tie-breaking caveat: the batched engine breaks equal-time arrivals by
// global scheduling sequence, the window cuts and merge by router index.
// The two differ only when two DIFFERENT routers' clocks collide on the
// exact same double — measure-zero for sums of continuous draws, and
// pinned by the golden digests (tests/test_golden_digests.cpp), whose
// every simulation cell must give one digest at shards = 1 and at
// shards > 1.
#pragma once

#include <cstddef>
#include <functional>

#include "ccnopt/sim/simulation.hpp"

namespace ccnopt::sim {

/// Runs the bodies of one parallel region. The windowed engine issues a
/// sequence of regions per window (generate, the merge in traced runs,
/// serve) and one end-of-run cache snapshot; each run_shards() call is
/// a barrier: it returns only after every body completed, and every write
/// a body made happens-before the caller's next statement. Implementations
/// may run bodies concurrently (runtime::ShardScheduler) or inline.
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

/// Why the run does not qualify for the windowed engine, or nullptr when
/// it does. A run qualifies with no interest aggregation (completion
/// events need the event loop), per-router workload streams (the shards
/// draw without seeing the global interleaving), and owner-table
/// forwarding without peer-local fetch (the router-exclusive mutation
/// argument above), whatever its shard count. Non-qualifying runs fall
/// back to the single-thread engines — same outputs, by the bit-identity
/// contract — and Simulation::run() logs the returned reason when more
/// than one shard was requested, so a silent fallback can never
/// masquerade as a sharded measurement.
const char* sharded_run_disqualifier(const SimConfig& config,
                                     const Workload& workload,
                                     const CcnNetwork& network);

}  // namespace ccnopt::sim
