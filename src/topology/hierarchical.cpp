#include "topology/hierarchical.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "util/rng.hpp"

namespace emcast::topology {

namespace {

void check_range(const DelayRangeMs& r, const char* what) {
  if (!(r.min_ms > 0) || !(r.max_ms >= r.min_ms)) {
    throw std::invalid_argument(
        std::string("make_hierarchical: bad delay range for ") + what);
  }
}

Time draw_delay(util::Rng& rng, const DelayRangeMs& r) {
  return rng.uniform(r.min_ms, r.max_ms) * 1e-3;
}

}  // namespace

AttachedNetwork make_hierarchical(const HierarchicalConfig& config) {
  if (config.routers == 0) {
    throw std::invalid_argument("make_hierarchical: routers == 0");
  }
  if (!(config.transit_fraction > 0.0) || config.transit_fraction > 1.0) {
    throw std::invalid_argument(
        "make_hierarchical: transit_fraction outside (0, 1]");
  }
  if (config.transit_degree < 2.0 && config.routers > 2) {
    throw std::invalid_argument(
        "make_hierarchical: transit_degree < 2 cannot stay connected");
  }
  check_range(config.transit_delay, "transit");
  check_range(config.stub_delay, "stub");
  check_range(config.access_delay, "access");

  const std::size_t transit = std::clamp<std::size_t>(
      static_cast<std::size_t>(std::llround(
          static_cast<double>(config.routers) * config.transit_fraction)),
      1, config.routers);
  const std::size_t stubs = config.routers - transit;

  util::Rng rng(config.seed);
  Graph g(config.routers);

  // --- transit core: random spanning tree, then density edges ----------
  // Node i > 0 attaches to a uniform earlier node (connectivity by
  // construction), then random non-duplicate pairs are added until the
  // core reaches its target edge count or saturates.  Every draw comes
  // from the single sequential stream, so the edge list is a pure
  // function of the config.
  for (std::size_t i = 1; i < transit; ++i) {
    const auto j = static_cast<NodeId>(
        rng.uniform_int(0, static_cast<std::int64_t>(i) - 1));
    g.add_edge(static_cast<NodeId>(i), j, draw_delay(rng, config.transit_delay),
               config.transit_capacity);
  }
  const std::size_t complete = transit * (transit - 1) / 2;
  const std::size_t target_edges = std::min(
      complete,
      static_cast<std::size_t>(std::llround(
          static_cast<double>(transit) * config.transit_degree / 2.0)));
  // Rejection sampling with a deterministic attempt cap: dense targets
  // near the complete graph could otherwise stall on duplicate draws.
  std::size_t attempts = 0;
  const std::size_t max_attempts = 20 * (target_edges + 1);
  while (g.edge_count() < target_edges && attempts < max_attempts) {
    ++attempts;
    const auto a = static_cast<NodeId>(
        rng.uniform_int(0, static_cast<std::int64_t>(transit) - 1));
    const auto b = static_cast<NodeId>(
        rng.uniform_int(0, static_cast<std::int64_t>(transit) - 1));
    if (a == b || g.has_edge(a, b)) continue;
    g.add_edge(a, b, draw_delay(rng, config.transit_delay),
               config.transit_capacity);
  }

  // --- stub tier: home each stub router onto the core -------------------
  for (std::size_t s = 0; s < stubs; ++s) {
    const auto stub = static_cast<NodeId>(transit + s);
    const auto home = static_cast<NodeId>(
        rng.uniform_int(0, static_cast<std::int64_t>(transit) - 1));
    g.add_edge(stub, home, draw_delay(rng, config.stub_delay),
               config.stub_capacity);
    for (std::size_t u = 0; u < config.stub_extra_uplinks; ++u) {
      const auto extra = static_cast<NodeId>(
          rng.uniform_int(0, static_cast<std::int64_t>(transit) - 1));
      if (extra == home || g.has_edge(stub, extra)) continue;
      g.add_edge(stub, extra, draw_delay(rng, config.stub_delay),
                 config.stub_capacity);
    }
  }

  // --- host tier: attach over stub routers (or the core when pure) ------
  AttachedNetwork net{std::move(g), config.routers, {}, {}, true};
  const std::size_t attach_base = stubs > 0 ? transit : 0;
  const std::size_t attach_span = stubs > 0 ? stubs : transit;
  net.hosts.reserve(config.hosts);
  net.attachment.reserve(config.hosts);
  for (std::size_t i = 0; i < config.hosts; ++i) {
    const NodeId host = net.graph.add_node();
    // u^(1+skew) maps uniform mass towards 0, concentrating hosts on
    // low-index attachment routers; skew = 0 degenerates to uniform.
    const double u = std::pow(rng.uniform(), 1.0 + config.host_skew);
    const auto pick = std::min(
        attach_span - 1,
        static_cast<std::size_t>(u * static_cast<double>(attach_span)));
    const auto router = static_cast<NodeId>(attach_base + pick);
    net.graph.add_edge(host, router, draw_delay(rng, config.access_delay),
                       config.access_capacity);
    net.hosts.push_back(host);
    net.attachment.push_back(router);
  }
  return net;
}

namespace {

// Router-only subgraph (hosts are leaves, so no router-router shortest
// path ever routes through a host — dropping them changes nothing).
Graph router_graph(const AttachedNetwork& net) {
  Graph core(net.router_count);
  for (std::size_t r = 0; r < net.router_count; ++r) {
    for (const Edge& e : net.graph.neighbors(static_cast<NodeId>(r))) {
      if (static_cast<std::size_t>(e.to) < r) continue;  // each edge once
      if (!net.is_router(e.to)) continue;
      core.add_edge(static_cast<NodeId>(r), e.to, e.delay, e.capacity);
    }
  }
  return core;
}

}  // namespace

HostDelayOracle::HostDelayOracle(const AttachedNetwork& net)
    : router_delay_(router_graph(net)) {
  const std::size_t hosts = net.hosts.size();

  // Leaf check + access-delay extraction: the decomposition below is only
  // exact when each host's sole link goes to a router.
  access_.reserve(hosts);
  attach_.reserve(hosts);
  for (std::size_t i = 0; i < hosts; ++i) {
    const NodeId h = net.hosts[i];
    const auto& edges = net.graph.neighbors(h);
    if (edges.size() != 1 || !net.is_router(edges[0].to)) {
      throw std::invalid_argument(
          "HostDelayOracle: host is not a degree-1 leaf on a router");
    }
    access_.push_back(edges[0].delay);
    attach_.push_back(edges[0].to);
  }
}

}  // namespace emcast::topology
