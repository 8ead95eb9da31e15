#include "ccnopt/sim/network.hpp"

#include <algorithm>
#include <numeric>
#include <span>

#include "ccnopt/cache/static_cache.hpp"
#include "ccnopt/common/assert.hpp"
#include "ccnopt/obs/registry.hpp"
#include "ccnopt/obs/span.hpp"
#include "ccnopt/strategy/registry.hpp"

namespace ccnopt::sim {
namespace {

std::unique_ptr<cache::CachePolicy> make_local_partition(
    LocalStoreMode mode, std::size_t capacity, std::uint64_t seed,
    cache::IndexSpec index) {
  cache::PolicyKind kind;
  switch (mode) {
    case LocalStoreMode::kStaticTop:
      return cache::StaticCache::make_top(capacity);
    case LocalStoreMode::kLru:
      kind = cache::PolicyKind::kLru;
      break;
    case LocalStoreMode::kLfu:
      kind = cache::PolicyKind::kLfu;
      break;
    case LocalStoreMode::kFifo:
      kind = cache::PolicyKind::kFifo;
      break;
    case LocalStoreMode::kRandom:
      kind = cache::PolicyKind::kRandom;
      break;
    default:
      CCNOPT_ASSERT(false);
      return nullptr;
  }
  return cache::make_policy(kind, capacity, seed, index);
}

// Interned once per process; handles survive registry reset().
struct NetworkMetricHandles {
  obs::MetricsRegistry::CounterHandle routing_rebuilds;
  obs::MetricsRegistry::CounterHandle provision_epochs;
  obs::MetricsRegistry::CounterHandle provision_messages;

  static const NetworkMetricHandles& get() {
    static const NetworkMetricHandles handles = [] {
      obs::MetricsRegistry& registry = obs::metrics();
      return NetworkMetricHandles{
          registry.counter_handle("sim.network.routing_rebuilds"),
          registry.counter_handle("sim.provision.epochs"),
          registry.counter_handle("sim.provision.messages"),
      };
    }();
    return handles;
  }
};

// splitmix64 sub-stream index of the en-route admission coin flips, kept
// apart from the per-replication (index = i) and per-router derived seeds.
constexpr std::uint64_t kStrategyRngStream = 0xCA11AB1Eu;

}  // namespace

const char* to_string(LocalStoreMode mode) {
  switch (mode) {
    case LocalStoreMode::kStaticTop:
      return "static_top";
    case LocalStoreMode::kLru:
      return "lru";
    case LocalStoreMode::kLfu:
      return "lfu";
    case LocalStoreMode::kFifo:
      return "fifo";
    case LocalStoreMode::kRandom:
      return "random";
  }
  return "unknown";
}

std::vector<topology::NodeId> CcnNetwork::find_participants(
    const topology::Graph& graph, const NetworkConfig& config) {
  std::vector<topology::NodeId> participants;
  for (topology::NodeId id = 0; id < graph.node_count(); ++id) {
    const std::size_t capacity = config.capacity_overrides.empty()
                                     ? config.capacity_c
                                     : config.capacity_overrides[id];
    if (capacity > 0) participants.push_back(id);
  }
  return participants;
}

CcnNetwork::CcnNetwork(topology::Graph graph, NetworkConfig config,
                       std::shared_ptr<const topology::RouteTable> routes)
    : graph_(std::move(graph)),
      config_(std::move(config)),
      coordinator_(find_participants(graph_, config_)) {
  CCNOPT_EXPECTS(graph_.node_count() >= 2);
  CCNOPT_EXPECTS(graph_.is_connected());
  CCNOPT_EXPECTS(config_.capacity_overrides.empty() ||
                 config_.capacity_overrides.size() == graph_.node_count());
  CCNOPT_EXPECTS(config_.catalog_size >= 1);
  // Resolve the origin set: explicit multi-origin list, or the single
  // gateway fields.
  if (config_.origins.empty()) {
    origins_.push_back(NetworkConfig::OriginSpec{
        config_.origin_gateway, config_.origin_extra_ms,
        config_.origin_extra_hops});
  } else {
    origins_ = config_.origins;
  }
  for (const NetworkConfig::OriginSpec& origin : origins_) {
    CCNOPT_EXPECTS(origin.gateway < graph_.node_count());
  }
  CCNOPT_EXPECTS(routes == nullptr ||
                 routes->node_count() == graph_.node_count());
  stores_.resize(graph_.node_count());
  failed_.assign(graph_.node_count(), false);
  link_counts_.assign(graph_.links().size(), 0);
  // Bind the strategy once per run: the virtual objects live in bundle_,
  // and serve() only ever reads the POD data_plane_ descriptor.
  Expected<strategy::StrategyBundle> bundle =
      strategy::make_strategy(config_.strategy);
  CCNOPT_EXPECTS(bundle.has_value());
  bundle_ = std::move(bundle).value();
  data_plane_ = bundle_.data_plane();
  if (config_.strategy_insertion_p > 0.0) {
    CCNOPT_EXPECTS(config_.strategy_insertion_p <= 1.0);
    data_plane_.insertion.p = config_.strategy_insertion_p;
  }
  rebuild_routing(std::move(routes));
  provision(0);
}

void CcnNetwork::rebuild_routing(
    std::shared_ptr<const topology::RouteTable> shared) {
  obs::metrics().incr(NetworkMetricHandles::get().routing_rebuilds);
  if (shared == nullptr) {
    const obs::ScopedSpan span("network.rebuild_routing");
    shared = std::make_shared<const topology::RouteTable>(graph_, failed_);
  }
  routes_ = std::move(shared);
}

void CcnNetwork::rebuild_owner_table() {
  // The assignment covers a contiguous rank interval; find its bounds and
  // build the offset-indexed owner vector. Everything here is O(pool), so a
  // provision epoch over a 10^7 catalog never touches 10^7 words (the dense
  // rank table this replaces was allocated and re-filled at catalog size).
  owner_first_rank_ = 1;
  owner_by_offset_.clear();
  if (assignment_.owner.empty()) return;
  cache::ContentId lo = UINT64_MAX;
  cache::ContentId hi = 0;
  for (const auto& [content, owner] : assignment_.owner) {
    (void)owner;
    lo = std::min(lo, content);
    hi = std::max(hi, content);
  }
  CCNOPT_ASSERT(hi - lo + 1 == assignment_.owner.size());
  owner_first_rank_ = lo;
  owner_by_offset_.assign(static_cast<std::size_t>(hi - lo + 1), kNoOwner);
  for (const auto& [content, owner] : assignment_.owner) {
    owner_by_offset_[static_cast<std::size_t>(content - lo)] = owner;
  }
}

void CcnNetwork::record_path(topology::NodeId src, topology::NodeId dst,
                             std::vector<std::uint64_t>& counts,
                             std::uint64_t& total) const {
  if (!config_.track_link_load) return;
  const std::span<const topology::Route> row = routes_->row(src);
  for (topology::NodeId v = dst; v != src;) {
    const std::uint32_t link = row[v].parent_link;
    ++counts[link];
    ++total;
    v = routes_->across(link, v);
  }
}

std::vector<CcnNetwork::LinkLoad> CcnNetwork::link_load() const {
  CCNOPT_EXPECTS(config_.track_link_load);
  std::vector<LinkLoad> loads;
  const auto& links = graph_.links();
  loads.reserve(links.size());
  for (std::size_t i = 0; i < links.size(); ++i) {
    loads.push_back(LinkLoad{links[i].u, links[i].v, link_counts_[i]});
  }
  return loads;
}

std::uint64_t CcnNetwork::max_link_load() const {
  std::uint64_t worst = 0;
  for (const std::uint64_t count : link_counts_) {
    worst = std::max(worst, count);
  }
  return worst;
}

void CcnNetwork::reset_link_load() {
  std::fill(link_counts_.begin(), link_counts_.end(), 0);
  total_traversals_ = 0;
}

std::vector<topology::NodeId> CcnNetwork::alive_participants() const {
  std::vector<topology::NodeId> alive;
  for (const topology::NodeId id : coordinator_.participants()) {
    if (!failed_[id]) alive.push_back(id);
  }
  return alive;
}

void CcnNetwork::set_router_failed(topology::NodeId id, bool failed) {
  CCNOPT_EXPECTS(id < graph_.node_count());
  if (failed) {
    for (const NetworkConfig::OriginSpec& origin : origins_) {
      CCNOPT_EXPECTS(id != origin.gateway);
    }
  }
  if (failed_[id] == failed) return;
  failed_[id] = failed;
  rebuild_routing();  // a private table: any shared one stays untouched
}

bool CcnNetwork::is_failed(topology::NodeId id) const {
  CCNOPT_EXPECTS(id < graph_.node_count());
  return failed_[id];
}

std::size_t CcnNetwork::failed_count() const {
  std::size_t count = 0;
  for (const bool f : failed_) count += f ? 1 : 0;
  return count;
}

std::size_t CcnNetwork::coordinated_contents_lost() const {
  std::size_t lost = 0;
  for (const auto& [content, owner] : assignment_.owner) {
    if (failed_[owner]) ++lost;
  }
  return lost;
}

std::size_t CcnNetwork::capacity_of(topology::NodeId id) const {
  CCNOPT_EXPECTS(id < graph_.node_count());
  return config_.capacity_overrides.empty() ? config_.capacity_c
                                            : config_.capacity_overrides[id];
}

std::uint64_t CcnNetwork::provision(std::size_t coordinated_x) {
  strategy::PlacementContext context;
  context.graph = &graph_;
  context.routers.reserve(graph_.node_count());
  for (topology::NodeId id = 0; id < graph_.node_count(); ++id) {
    context.routers.push_back(
        strategy::RouterInfo{id, capacity_of(id), !failed_[id]});
  }
  context.alive_participants = alive_participants();
  context.catalog_size = config_.catalog_size;
  context.requested_x = coordinated_x;
  context.seed = config_.seed;

  strategy::PlacementPlan plan = bundle_.placement->provision(context);
  CCNOPT_ASSERT(plan.coordinated_capacity.size() == graph_.node_count());
  CCNOPT_ASSERT(plan.assigned.size() == graph_.node_count());
  provisioned_x_ = plan.provisioned_x;
  assignment_ = std::move(plan.assignment);
  for (topology::NodeId id = 0; id < graph_.node_count(); ++id) {
    const std::size_t capacity = capacity_of(id);
    const std::size_t x = plan.coordinated_capacity[id];
    CCNOPT_ASSERT(x <= capacity);
    stores_[id] = std::make_unique<cache::PartitionedStore>(
        capacity, x,
        make_local_partition(
            config_.local_mode, capacity - x,
            config_.seed + 0x51ED2701ULL * (id + 1),
            cache::IndexSpec{config_.cache_index_mode, config_.catalog_size}),
        std::move(plan.assigned[id]));
  }
  rebuild_owner_table();
  // Each epoch restarts the admission-coin stream so replications and
  // repeated provisions are reproducible from the config seed alone.
  strategy_rng_ = Rng(derive_seed(config_.seed, kStrategyRngStream));
  const NetworkMetricHandles& handles = NetworkMetricHandles::get();
  obs::metrics().incr(handles.provision_epochs);
  obs::metrics().incr(handles.provision_messages, assignment_.messages);
  return assignment_.messages;
}

std::uint64_t CcnNetwork::provision_heterogeneous(
    const std::vector<std::size_t>& x) {
  const auto& participants = coordinator_.participants();
  // Explicit per-router quotas bypass the placement strategy; they only
  // make sense under owner-table forwarding.
  CCNOPT_EXPECTS(data_plane_.forwarding ==
                 strategy::ForwardingMode::kOwnerTable);
  CCNOPT_EXPECTS(failed_count() == 0);  // hetero + failures not combined
  CCNOPT_EXPECTS(x.size() == participants.size());
  std::size_t coverage_l = 0;  // L = max_i (c_i - x_i)
  for (std::size_t i = 0; i < participants.size(); ++i) {
    const std::size_t capacity = capacity_of(participants[i]);
    CCNOPT_EXPECTS(x[i] <= capacity);
    coverage_l = std::max(coverage_l, capacity - x[i]);
  }
  provisioned_x_ = 0;  // heterogeneous epochs have no single x

  assignment_ = coordinator_.assign_weighted(
      static_cast<cache::ContentId>(coverage_l) + 1, x);

  std::size_t participant_index = 0;
  for (topology::NodeId id = 0; id < graph_.node_count(); ++id) {
    const std::size_t capacity = capacity_of(id);
    std::size_t coordinated = 0;
    std::vector<cache::ContentId> assigned;
    if (capacity > 0) {
      coordinated = x[participant_index];
      assigned = assignment_.per_router[participant_index];
      ++participant_index;
    }
    stores_[id] = std::make_unique<cache::PartitionedStore>(
        capacity, coordinated,
        make_local_partition(
            config_.local_mode, capacity - coordinated,
            config_.seed + 0x51ED2701ULL * (id + 1),
            cache::IndexSpec{config_.cache_index_mode, config_.catalog_size}),
        std::move(assigned));
  }
  rebuild_owner_table();
  const NetworkMetricHandles& handles = NetworkMetricHandles::get();
  obs::metrics().incr(handles.provision_epochs);
  obs::metrics().incr(handles.provision_messages, assignment_.messages);
  return assignment_.messages;
}

ServeResult CcnNetwork::serve(topology::NodeId first_hop,
                              cache::ContentId content) {
  CCNOPT_EXPECTS(first_hop < graph_.node_count());
  CCNOPT_EXPECTS(!failed_[first_hop]);
  CCNOPT_EXPECTS(content >= 1 && content <= config_.catalog_size);
  // Strategy dispatch is one predictable enum branch — the owner-table
  // fast path below is byte-for-byte the pre-strategy serve body.
  if (data_plane_.forwarding == strategy::ForwardingMode::kOnPath) {
    return serve_on_path(first_hop, content);
  }
  return serve_owner_table(first_hop, content, link_counts_,
                           total_traversals_, topo_);
}

ServeResult CcnNetwork::serve_owner_table(
    topology::NodeId first_hop, cache::ContentId content,
    std::vector<std::uint64_t>& link_counts, std::uint64_t& total_traversals,
    obs::TopoRecorder* topo) {
  cache::PartitionedStore& own = *stores_[first_hop];

  // Placement telemetry reads the local partition's insertion counter
  // around admit(): a delta means the miss actually seeded a copy here
  // (depth 0). Static local partitions never insert, so they truthfully
  // record nothing.
  const bool telemetry = topo != nullptr || record_depths_;
  std::uint64_t insertions_before = 0;
  if (telemetry) insertions_before = own.local().stats().insertions;

  // One load from the owner table answers both coordinated tiers: each
  // store's coordinated partition is exactly the owner table's slice for
  // that router, so the first hop holds `content` there iff it owns it,
  // and any other owner is the peer tier below. The store then probes only
  // its local partition.
  const topology::NodeId owner = owner_of(content);
  const bool own_coordinated = owner == first_hop;
  if (own.admit(content, own_coordinated)) {
    return ServeResult{ServeTier::kLocal, config_.access_latency_d0_ms, 0,
                       first_hop, own_coordinated};
  }
  std::int32_t placement_depth = -1;
  if (telemetry && own.local().stats().insertions > insertions_before) {
    placement_depth = 0;
    if (topo != nullptr) topo->on_placement(first_hop, 0);
  }

  // Coordinated placement lookup (the paper's mid tier), from the owner
  // loaded above. A failed or unreachable owner means the content is lost
  // until repair.
  if (owner != kNoOwner && owner != first_hop && !failed_[owner]) {
    const topology::Route& path = routes_->route(first_hop, owner);
    if (path.latency_ms < topology::kUnreachable) {
      record_path(first_hop, owner, link_counts, total_traversals);
      ServeResult result{ServeTier::kNetwork,
                         config_.access_latency_d0_ms + path.latency_ms,
                         path.hops, owner, false};
      result.placement_depth = placement_depth;
      return result;
    }
  }

  // Optional opportunistic replica lookup in peers' local partitions.
  if (config_.allow_peer_local_fetch) {
    topology::NodeId best_peer = first_hop;
    double best_latency = topology::kUnreachable;
    for (const topology::NodeId peer : coordinator_.participants()) {
      if (peer == first_hop || failed_[peer]) continue;
      if (owner != peer && !stores_[peer]->local().contains(content)) {
        continue;
      }
      const double latency = routes_->route(first_hop, peer).latency_ms;
      if (latency < best_latency) {
        best_latency = latency;
        best_peer = peer;
      }
    }
    if (best_peer != first_hop) {
      record_path(first_hop, best_peer, link_counts, total_traversals);
      ServeResult result{ServeTier::kNetwork,
                         config_.access_latency_d0_ms + best_latency,
                         routes_->route(first_hop, best_peer).hops, best_peer,
                         false};
      result.placement_depth = placement_depth;
      return result;
    }
  }

  // Origin: the gateway hosting this content's origin server.
  ServeResult result = origin_result(first_hop, content);
  record_path(first_hop, result.served_by, link_counts, total_traversals);
  result.placement_depth = placement_depth;
  return result;
}

ServeResult CcnNetwork::origin_result(topology::NodeId first_hop,
                                      cache::ContentId content) const {
  // The gateway must remain reachable from every alive router.
  const NetworkConfig::OriginSpec& origin = origin_of(content);
  const topology::Route& path = routes_->route(first_hop, origin.gateway);
  CCNOPT_ASSERT(path.latency_ms < topology::kUnreachable);
  return ServeResult{
      ServeTier::kOrigin,
      config_.access_latency_d0_ms + path.latency_ms + origin.extra_ms,
      path.hops + origin.extra_hops, origin.gateway, false};
}

CcnNetwork::ShardScratch CcnNetwork::make_shard_scratch(
    obs::TopoRecorder* topo) const {
  ShardScratch scratch;
  scratch.link_counts.assign(graph_.links().size(), 0);
  scratch.topo = topo;
  return scratch;
}

ServeResult CcnNetwork::serve_sharded(topology::NodeId first_hop,
                                      cache::ContentId content,
                                      ShardScratch& scratch) {
  CCNOPT_ASSERT(first_hop < graph_.node_count());
  CCNOPT_ASSERT(!failed_[first_hop]);
  CCNOPT_ASSERT(content >= 1 && content <= config_.catalog_size);
  // The sharded engine only dispatches here under owner-table forwarding
  // without peer-local fetch (sharded_run_disqualifier), where the request
  // mutates nothing but its first-hop store — which this shard owns.
  CCNOPT_ASSERT(data_plane_.forwarding ==
                strategy::ForwardingMode::kOwnerTable);
  CCNOPT_ASSERT(!config_.allow_peer_local_fetch);
  return serve_owner_table(first_hop, content, scratch.link_counts,
                           scratch.total_traversals, scratch.topo);
}

void CcnNetwork::fold_shard_scratch(ShardScratch& scratch) {
  CCNOPT_EXPECTS(scratch.link_counts.size() == link_counts_.size());
  for (std::size_t i = 0; i < link_counts_.size(); ++i) {
    link_counts_[i] += scratch.link_counts[i];
    scratch.link_counts[i] = 0;
  }
  total_traversals_ += scratch.total_traversals;
  scratch.total_traversals = 0;
}

ServeResult CcnNetwork::serve_on_path(topology::NodeId first_hop,
                                      cache::ContentId content) {
  const NetworkConfig::OriginSpec& origin = origin_of(content);
  // Latencies come from the gateway's row, as the walk does: a path's two
  // directions can round differently.
  const std::span<const topology::Route> from_gateway =
      routes_->row(origin.gateway);
  const double first_hop_ms = from_gateway[first_hop].latency_ms;
  CCNOPT_ASSERT(first_hop_ms < topology::kUnreachable);

  // Walk first_hop -> gateway along the gateway-rooted shortest-path tree,
  // consulting each en-route store and counting each link as the walk
  // crosses it; misses are recorded so the insertion rule can seed copies
  // afterwards. The probes stay non-mutating — only the hit node and the
  // rule's chosen nodes admit — and, as in serve_owner_table(), a store's
  // coordinated partition holds `content` iff the owner table names it.
  const bool track = config_.track_link_load;
  const topology::NodeId owner = owner_of(content);
  miss_path_.clear();
  topology::NodeId node = first_hop;
  while (true) {
    cache::PartitionedStore& store = *stores_[node];
    const bool coordinated = owner == node;
    if (coordinated || store.local().contains(content)) {
      // Hit: promote recency/frequency state.
      store.admit(content, coordinated);
      ServeResult result;
      if (node == first_hop) {
        result = ServeResult{ServeTier::kLocal, config_.access_latency_d0_ms,
                             0, node, coordinated};
      } else {
        const double path_ms = first_hop_ms - from_gateway[node].latency_ms;
        result = ServeResult{
            ServeTier::kNetwork, config_.access_latency_d0_ms + path_ms,
            static_cast<std::uint32_t>(miss_path_.size()), node, false};
      }
      result.placement_depth = apply_insertion_rule(content);
      return result;
    }
    miss_path_.push_back(node);
    if (node == origin.gateway) break;
    const std::uint32_t link = from_gateway[node].parent_link;
    if (track) {
      ++link_counts_[link];
      ++total_traversals_;
    }
    node = routes_->across(link, node);
  }

  // Every en-route store missed: the origin serves, and the whole walked
  // path (first hop through gateway) is the miss path.
  ServeResult result{
      ServeTier::kOrigin,
      config_.access_latency_d0_ms + first_hop_ms + origin.extra_ms,
      static_cast<std::uint32_t>(miss_path_.size() - 1) + origin.extra_hops,
      origin.gateway, false};
  result.placement_depth = apply_insertion_rule(content);
  return result;
}

std::int32_t CcnNetwork::apply_insertion_rule(cache::ContentId content) {
  if (miss_path_.empty()) return -1;
  const strategy::InsertionRule& rule = data_plane_.insertion;
  const bool telemetry = placement_telemetry();
  std::int32_t nearest = -1;
  // Admits at miss_path_[depth]; with telemetry on, the local partition's
  // insertion-counter delta distinguishes an actual new copy from a
  // no-op admit (static partitions). Every miss-path store missed, its
  // coordinated partition included, so each admit is a local one. Depths
  // ascend in every rule, so the first recorded insertion is the nearest
  // one.
  const auto admit_at = [&](std::size_t depth) {
    cache::PartitionedStore& store = *stores_[miss_path_[depth]];
    if (!telemetry) {
      store.admit(content, false);
      return;
    }
    const std::uint64_t before = store.local().stats().insertions;
    store.admit(content, false);
    if (store.local().stats().insertions > before) {
      if (nearest < 0) nearest = static_cast<std::int32_t>(depth);
      if (topo_ != nullptr) {
        topo_->on_placement(miss_path_[depth],
                            static_cast<std::uint32_t>(depth));
      }
    }
  };
  switch (rule.kind) {
    case strategy::InsertionKind::kFirstHopOnly:
      admit_at(0);
      break;
    case strategy::InsertionKind::kEveryHop:
      for (std::size_t depth = 0; depth < miss_path_.size(); ++depth) {
        admit_at(depth);
      }
      break;
    case strategy::InsertionKind::kOneHopDown:
      // The serving point is the node (or origin) just past the last miss,
      // so "one hop down" is exactly the last node that missed.
      admit_at(miss_path_.size() - 1);
      break;
    case strategy::InsertionKind::kProbabilistic: {
      double capacity_sum = 0.0;
      if (rule.capacity_weighted) {
        for (const topology::NodeId node : miss_path_) {
          capacity_sum += static_cast<double>(capacity_of(node));
        }
        if (capacity_sum <= 0.0) return -1;  // nothing on the path can cache
      }
      for (std::size_t depth = 0; depth < miss_path_.size(); ++depth) {
        double p = rule.p;
        if (rule.capacity_weighted) {
          // ProbCache-style: weight by the node's share of the path's
          // capacity, so the expected copies per miss path is ~p.
          p *= static_cast<double>(capacity_of(miss_path_[depth])) /
               capacity_sum;
        }
        p = std::min(1.0, std::max(0.0, p));
        if (strategy_rng_.bernoulli(p)) {
          admit_at(depth);
        }
      }
      break;
    }
  }
  return nearest;
}

std::vector<topology::NodeId> CcnNetwork::hop_path(
    topology::NodeId first_hop, cache::ContentId content,
    const ServeResult& result) const {
  CCNOPT_EXPECTS(first_hop < graph_.node_count());
  std::vector<topology::NodeId> path;
  if (result.tier == ServeTier::kLocal) {
    path.push_back(first_hop);
  } else if (data_plane_.forwarding == strategy::ForwardingMode::kOnPath) {
    // The scratch miss path of the preceding serve() is the walked prefix;
    // a network-tier hit stopped one node past it, an origin-tier result
    // walked through the gateway (= miss_path_.back()).
    path = miss_path_;
    if (result.tier == ServeTier::kNetwork) path.push_back(result.served_by);
    CCNOPT_ASSERT(!path.empty() && path.front() == first_hop);
  } else {
    // Walk first_hop's tree from the serving router back: the path
    // record_path() counts link loads on ({first_hop} when the origin
    // hangs off the requester's own gateway).
    for (topology::NodeId v = result.served_by; v != first_hop;
         v = routes_->parent(first_hop, v)) {
      path.push_back(v);
    }
    path.push_back(first_hop);
    std::reverse(path.begin(), path.end());
  }
  // One path per request: its hops are the edges walked, plus the
  // origin's own hops past the gateway.
  const std::uint32_t extra_hops =
      result.tier == ServeTier::kOrigin ? origin_of(content).extra_hops : 0;
  CCNOPT_ASSERT(path.size() - 1 == result.hops - extra_hops);
  return path;
}

void CcnNetwork::prefetch(topology::NodeId first_hop,
                          cache::ContentId content) const {
  stores_[first_hop]->prefetch(content);
  const cache::ContentId offset = content - owner_first_rank_;
  if (offset < owner_by_offset_.size()) {
#if defined(__GNUC__) || defined(__clang__)
    __builtin_prefetch(&owner_by_offset_[offset]);
#endif
  }
}

const cache::PartitionedStore& CcnNetwork::store(topology::NodeId id) const {
  CCNOPT_EXPECTS(id < stores_.size());
  return *stores_[id];
}

CcnNetwork::CacheTotals CcnNetwork::cache_totals() const {
  CacheTotals totals;
  for (std::size_t id = 0; id < stores_.size(); ++id) {
    const cache::PartitionedStore& partitioned = *stores_[id];
    const cache::CacheStats& local_stats = partitioned.local().stats();
    totals.evictions += local_stats.evictions;
    totals.insertions += local_stats.insertions;
    totals.occupancy += partitioned.size();
    totals.capacity += capacity_of(static_cast<topology::NodeId>(id));
  }
  return totals;
}

}  // namespace ccnopt::sim
