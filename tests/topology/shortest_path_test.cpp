#include "topology/shortest_path.hpp"

#include <vector>

#include <gtest/gtest.h>

#include "topology/backbone.hpp"
#include "topology/hierarchical.hpp"
#include "topology/host_attachment.hpp"

namespace emcast::topology {
namespace {

// Small weighted graph with a known shortest-path structure:
//   0 -1ms- 1 -1ms- 2
//   0 ---------5ms--- 2
Graph make_triangle() {
  Graph g(3);
  g.add_edge(0, 1, 0.001, 1e6);
  g.add_edge(1, 2, 0.001, 1e6);
  g.add_edge(0, 2, 0.005, 1e6);
  return g;
}

TEST(Dijkstra, PrefersMultiHopWhenCheaper) {
  const auto g = make_triangle();
  const auto tree = dijkstra(g, 0);
  EXPECT_DOUBLE_EQ(tree.distance[0], 0.0);
  EXPECT_DOUBLE_EQ(tree.distance[1], 0.001);
  EXPECT_DOUBLE_EQ(tree.distance[2], 0.002);  // via node 1, not direct
  EXPECT_EQ(tree.predecessor[2], 1);
}

TEST(Dijkstra, UnreachableIsInfinity) {
  Graph g(3);
  g.add_edge(0, 1, 0.001, 1e6);
  const auto tree = dijkstra(g, 0);
  EXPECT_EQ(tree.distance[2], kTimeInfinity);
  EXPECT_EQ(tree.predecessor[2], kInvalidNode);
}

TEST(ExtractPath, ReconstructsNodeSequence) {
  const auto g = make_triangle();
  const auto tree = dijkstra(g, 0);
  const auto path = extract_path(tree, 0, 2);
  EXPECT_EQ(path, (std::vector<NodeId>{0, 1, 2}));
}

TEST(ExtractPath, SourceToItself) {
  const auto g = make_triangle();
  const auto tree = dijkstra(g, 0);
  const auto path = extract_path(tree, 0, 0);
  EXPECT_EQ(path, (std::vector<NodeId>{0}));
}

TEST(ExtractPath, EmptyWhenUnreachable) {
  Graph g(2);
  const auto tree = dijkstra(g, 0);
  EXPECT_TRUE(extract_path(tree, 0, 1).empty());
}

TEST(DelayMatrix, SymmetricAndConsistentWithDijkstra) {
  const auto g = make_triangle();
  DelayMatrix m(g);
  EXPECT_EQ(m.size(), 3u);
  for (NodeId a = 0; a < 3; ++a) {
    const auto tree = dijkstra(g, a);
    for (NodeId b = 0; b < 3; ++b) {
      EXPECT_DOUBLE_EQ(m.at(a, b), tree.distance[static_cast<std::size_t>(b)]);
      EXPECT_DOUBLE_EQ(m.at(a, b), m.at(b, a));
    }
  }
}

TEST(DelayMatrix, RttIsTwiceOneWay) {
  const auto g = make_triangle();
  DelayMatrix m(g);
  EXPECT_DOUBLE_EQ(m.rtt(0, 2), 0.004);
}

TEST(DelayMatrix, DiagonalIsZero) {
  const auto g = make_triangle();
  DelayMatrix m(g);
  for (NodeId a = 0; a < 3; ++a) EXPECT_DOUBLE_EQ(m.at(a, a), 0.0);
}

TEST(Dijkstra, TriangleInequalityHoldsOnBackbone) {
  // Property check on a bigger graph: d(a,c) <= d(a,b) + d(b,c).
  Graph g(6);
  g.add_edge(0, 1, 0.010, 1e6);
  g.add_edge(1, 2, 0.012, 1e6);
  g.add_edge(2, 3, 0.007, 1e6);
  g.add_edge(3, 4, 0.009, 1e6);
  g.add_edge(4, 5, 0.011, 1e6);
  g.add_edge(5, 0, 0.013, 1e6);
  g.add_edge(1, 4, 0.02, 1e6);
  DelayMatrix m(g);
  for (NodeId a = 0; a < 6; ++a) {
    for (NodeId b = 0; b < 6; ++b) {
      for (NodeId c = 0; c < 6; ++c) {
        EXPECT_LE(m.at(a, c), m.at(a, b) + m.at(b, c) + 1e-12);
      }
    }
  }
}

// Every row of the matrix against a per-source dijkstra(), compared with
// exact double equality: the leaf-peeled build must not move a bit.
void expect_rows_match_dijkstra(const Graph& g) {
  const DelayMatrix m(g);
  const std::size_t n = g.node_count();
  ASSERT_EQ(m.size(), n);
  std::vector<Time> row(n);
  for (std::size_t s = 0; s < n; ++s) {
    for (std::size_t t = 0; t < n; ++t) {
      row[t] = m.at(static_cast<NodeId>(s), static_cast<NodeId>(t));
    }
    EXPECT_EQ(row, dijkstra(g, static_cast<NodeId>(s)).distance)
        << "row of source " << s;
  }
}

TEST(DelayMatrix, LeafPeelingMatchesDijkstraExactly) {
  // Routers 0-3 with delays whose sums round differently by association.
  Graph g(15);
  g.add_edge(0, 1, 0.1, 1e6);
  g.add_edge(1, 2, 0.2, 1e6);
  g.add_edge(2, 3, 0.7, 1e6);
  g.add_edge(2, 3, 0.05, 1e6);  // parallel router edges: cheaper twin
  g.add_edge(3, 0, 0.3, 1e6);
  g.add_edge(4, 0, 0.3, 1e6);   // leaf 4 on router 0
  g.add_edge(5, 1, 0.1, 1e6);   // leaves 5 and 6 share router 1
  g.add_edge(6, 1, 0.2, 1e6);
  g.add_edge(7, 3, 0.0, 1e6);   // zero-delay access link
  g.add_edge(8, 2, 0.06, 1e6);  // host 8 dual-linked to router 2: two
  g.add_edge(8, 2, 0.04, 1e6);  // parallel edges make it core, not leaf
  g.add_edge(9, 10, 0.4, 1e6);  // two-node component: neither is a leaf
  // Node 11 stays isolated (unreachable from everything).  Router 12
  // carries leaves 13 and 14 in a component of its own.
  g.add_edge(13, 12, 0.15, 1e6);
  g.add_edge(14, 12, 0.25, 1e6);
  expect_rows_match_dijkstra(g);

  const DelayMatrix m(g);
  EXPECT_EQ(m.at(4, 4), 0.0) << "a leaf source's own entry";
  EXPECT_EQ(m.at(5, 6), (0.0 + 0.1) + 0.2) << "two leaves on one router";
  EXPECT_EQ(m.at(3, 2), 0.05) << "the cheaper parallel edge wins";
  EXPECT_EQ(m.at(9, 10), 0.4);
  EXPECT_EQ(m.at(0, 11), kTimeInfinity);
  EXPECT_EQ(m.at(11, 0), kTimeInfinity);
  EXPECT_EQ(m.at(4, 13), kTimeInfinity);
  EXPECT_EQ(m.at(13, 14), (0.0 + 0.15) + 0.25);
}

TEST(DelayMatrix, LeafPeelingMatchesDijkstraOnPaperNetworks) {
  // The Fig. 5 attachments the 665-host experiments build, at three
  // topology seeds, plus a small hierarchical underlay whose stubs are
  // dual-homed (routers of every degree, hosts as leaves).
  const Graph backbone = make_fig5_backbone();
  for (const std::uint64_t seed : {42u, 7u, 1234u}) {
    SCOPED_TRACE(seed);
    HostAttachmentConfig hc;
    hc.seed = seed;
    expect_rows_match_dijkstra(attach_hosts(backbone, hc).graph);
  }
  HierarchicalConfig hier;
  hier.routers = 48;
  hier.hosts = 400;
  hier.stub_extra_uplinks = 1;
  expect_rows_match_dijkstra(make_hierarchical(hier).graph);
}

}  // namespace
}  // namespace emcast::topology
