#include "topology/hierarchical.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <tuple>
#include <vector>

#include "topology/generators.hpp"
#include "topology/shortest_path.hpp"

namespace emcast::topology {
namespace {

using EdgeTuple = std::tuple<NodeId, NodeId, Time, Rate>;

std::vector<EdgeTuple> edge_list(const Graph& g) {
  std::vector<EdgeTuple> out;
  for (std::size_t a = 0; a < g.node_count(); ++a) {
    for (const Edge& e : g.neighbors(static_cast<NodeId>(a))) {
      if (e.to > static_cast<NodeId>(a)) {
        out.emplace_back(static_cast<NodeId>(a), e.to, e.delay, e.capacity);
      }
    }
  }
  return out;
}

// Fig. 5 anchor: 19 routers, pure transit core (fraction 1.0) reproduces
// the paper's backbone envelope — connected, mean degree ~3, backbone
// delays in [5, 30] ms — with the usual 665 hosts on [0.5, 5] ms access
// links.
TEST(Hierarchical, Fig5AnchorStatistics) {
  HierarchicalConfig c;
  c.routers = 19;
  c.hosts = 665;
  c.transit_fraction = 1.0;
  const AttachedNetwork net = make_hierarchical(c);

  EXPECT_TRUE(net.graph.connected());
  EXPECT_EQ(net.router_count, 19u);
  EXPECT_EQ(net.hosts.size(), 665u);
  EXPECT_EQ(net.graph.node_count(), 19u + 665u);
  EXPECT_TRUE(net.compact_host_delays);

  // Router tier: mean degree near the Fig. 5 backbone's ~3 (count only
  // router-router edges; access links don't shape the backbone).
  std::size_t router_edge_ends = 0;
  for (std::size_t r = 0; r < net.router_count; ++r) {
    for (const Edge& e : net.graph.neighbors(static_cast<NodeId>(r))) {
      if (net.is_router(e.to)) {
        ++router_edge_ends;
        EXPECT_GE(e.delay, 5.0e-3);
        EXPECT_LE(e.delay, 30.0e-3);
        EXPECT_DOUBLE_EQ(e.capacity, 100e6);
      }
    }
  }
  const double mean_degree =
      static_cast<double>(router_edge_ends) / static_cast<double>(c.routers);
  EXPECT_GE(mean_degree, 2.5);
  EXPECT_LE(mean_degree, 3.5);

  // Host tier: every host is a degree-1 leaf on an access link in the
  // configured delay/capacity envelope.
  for (std::size_t i = 0; i < net.hosts.size(); ++i) {
    const NodeId h = net.hosts[i];
    ASSERT_EQ(net.graph.degree(h), 1u);
    const Edge& access = net.graph.neighbors(h).front();
    EXPECT_EQ(access.to, net.attachment[i]);
    EXPECT_GE(access.delay, 0.5e-3);
    EXPECT_LE(access.delay, 5.0e-3);
    EXPECT_DOUBLE_EQ(access.capacity, 10e6);
  }
}

TEST(Hierarchical, TransitStubShapeConnectedAcrossSeeds) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    HierarchicalConfig c;
    c.routers = 64;
    c.hosts = 500;
    c.transit_fraction = 0.125;
    c.seed = seed;
    const AttachedNetwork net = make_hierarchical(c);
    EXPECT_TRUE(net.graph.connected()) << "seed " << seed;
    for (const NodeId h : net.hosts) EXPECT_EQ(net.graph.degree(h), 1u);
  }
}

TEST(Hierarchical, DeterministicPerSeedByteIdenticalEdgeList) {
  HierarchicalConfig c;
  c.routers = 48;
  c.hosts = 300;
  c.seed = 7;
  const AttachedNetwork a = make_hierarchical(c);
  const AttachedNetwork b = make_hierarchical(c);
  EXPECT_EQ(edge_list(a.graph), edge_list(b.graph));
  EXPECT_EQ(a.attachment, b.attachment);
  EXPECT_EQ(a.hosts, b.hosts);

  c.seed = 8;
  const AttachedNetwork other = make_hierarchical(c);
  EXPECT_NE(edge_list(a.graph), edge_list(other.graph));
}

TEST(Hierarchical, HostSkewConcentratesAttachment) {
  HierarchicalConfig c;
  c.routers = 40;
  c.hosts = 2000;
  c.transit_fraction = 0.2;  // 8 transit, 32 stub routers
  c.host_skew = 4.0;
  const AttachedNetwork net = make_hierarchical(c);
  // u^5 < 1/4 for u < 0.758: roughly three quarters of the hosts should
  // land in the first quarter of the stub index range.
  const auto stubs = static_cast<std::size_t>(40 * 0.2);  // transit count
  std::size_t in_first_quarter = 0;
  for (const NodeId r : net.attachment) {
    const auto stub_index = static_cast<std::size_t>(r) - stubs;
    if (stub_index < (40 - stubs) / 4) ++in_first_quarter;
  }
  EXPECT_GT(in_first_quarter, net.hosts.size() / 2);
}

TEST(Hierarchical, RejectsDegenerateConfigs) {
  {
    HierarchicalConfig c;
    c.routers = 0;
    EXPECT_THROW(make_hierarchical(c), std::invalid_argument);
  }
  {
    HierarchicalConfig c;
    c.transit_fraction = 0.0;
    EXPECT_THROW(make_hierarchical(c), std::invalid_argument);
  }
  {
    HierarchicalConfig c;
    c.transit_fraction = 1.5;
    EXPECT_THROW(make_hierarchical(c), std::invalid_argument);
  }
  {
    HierarchicalConfig c;
    c.transit_delay = {30.0, 5.0};  // min > max
    EXPECT_THROW(make_hierarchical(c), std::invalid_argument);
  }
}

// The oracle is exact, not approximate: against a full-graph Dijkstra
// matrix the only difference is float association order, so the values
// agree to ~ulp.
TEST(HostDelayOracle, MatchesFullGraphDijkstra) {
  HierarchicalConfig c;
  c.routers = 12;
  c.hosts = 40;
  c.transit_fraction = 0.25;
  c.seed = 3;
  const AttachedNetwork net = make_hierarchical(c);
  const HostDelayOracle oracle(net);
  const DelayMatrix full(net.graph);
  for (std::size_t a = 0; a < net.hosts.size(); ++a) {
    for (std::size_t b = 0; b < net.hosts.size(); ++b) {
      EXPECT_NEAR(oracle.between_hosts(a, b),
                  full.at(net.hosts[a], net.hosts[b]), 1e-12)
          << "hosts " << a << "," << b;
    }
  }
  EXPECT_DOUBLE_EQ(oracle.between_hosts(5, 5), 0.0);
}

// Router to router, the oracle must equal a per-router dijkstra() over the
// whole network bit for bit (EXPECT_EQ on doubles, not within an epsilon).
// Single-homed stub routers are leaves of the router graph; with extra
// uplinks they are not, and every router is a Dijkstra source.
TEST(HostDelayOracle, RouterDelaysEqualDijkstraExactly) {
  for (const std::size_t extra_uplinks : {0u, 2u}) {
    HierarchicalConfig c;
    c.routers = 48;
    c.hosts = 300;
    c.stub_extra_uplinks = extra_uplinks;
    c.seed = 17;
    const AttachedNetwork net = make_hierarchical(c);
    const HostDelayOracle oracle(net);
    std::size_t leaf_routers = 0;
    for (std::size_t r = 0; r < c.routers; ++r) {
      std::size_t router_links = 0;
      for (const Edge& e : net.graph.neighbors(static_cast<NodeId>(r))) {
        if (net.is_router(e.to)) ++router_links;
      }
      if (router_links == 1) ++leaf_routers;
    }
    if (extra_uplinks == 0) {
      EXPECT_GT(leaf_routers, c.routers / 2);
    } else {
      EXPECT_LT(leaf_routers, c.routers / 4);
    }
    for (std::size_t a = 0; a < c.routers; ++a) {
      const ShortestPathTree tree = dijkstra(net.graph, static_cast<NodeId>(a));
      for (std::size_t b = 0; b < c.routers; ++b) {
        EXPECT_EQ(oracle.between_routers(static_cast<NodeId>(a),
                                         static_cast<NodeId>(b)),
                  tree.distance[b])
            << "uplinks " << extra_uplinks << ", routers " << a << "," << b;
      }
    }
  }
}

// The oracle works for any leaf-attached network, not just hierarchical
// output — the legacy Waxman + attach_hosts path qualifies too.
TEST(HostDelayOracle, WorksOnLegacyAttachedNetworks) {
  WaxmanConfig wc;
  wc.nodes = 15;
  wc.seed = 4;
  HostAttachmentConfig hc;
  hc.host_count = 30;
  const AttachedNetwork net = attach_hosts(make_waxman(wc), hc);
  const HostDelayOracle oracle(net);
  const DelayMatrix full(net.graph);
  for (std::size_t a = 0; a < net.hosts.size(); ++a) {
    for (std::size_t b = a + 1; b < net.hosts.size(); ++b) {
      EXPECT_NEAR(oracle.between_hosts(a, b),
                  full.at(net.hosts[a], net.hosts[b]), 1e-12);
    }
  }
}

TEST(HostDelayOracle, RejectsNonLeafHosts) {
  Graph g(3);
  g.add_edge(0, 1, 1e-3, 100e6);
  g.add_edge(2, 0, 1e-3, 10e6);
  g.add_edge(2, 1, 1e-3, 10e6);  // host 2 is dual-homed: not a leaf
  AttachedNetwork net;
  net.graph = g;
  net.router_count = 2;
  net.hosts = {2};
  net.attachment = {0};
  EXPECT_THROW(HostDelayOracle{net}, std::invalid_argument);
}

// The reason the oracle exists: R² + O(M) instead of (R+M)².  Even at
// this toy size the footprint must beat the full matrix.
TEST(HostDelayOracle, CompactFootprint) {
  HierarchicalConfig c;
  c.routers = 32;
  c.hosts = 2000;
  const AttachedNetwork net = make_hierarchical(c);
  const HostDelayOracle oracle(net);
  EXPECT_EQ(oracle.router_count(), 32u);
  EXPECT_EQ(oracle.host_count(), 2000u);
  const std::size_t full_matrix_bytes =
      net.graph.node_count() * net.graph.node_count() * sizeof(Time);
  EXPECT_LT(oracle.memory_bytes(), full_matrix_bytes / 10);
}

}  // namespace
}  // namespace emcast::topology
