#include "topology/shortest_path.hpp"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <queue>
#include <utility>

namespace emcast::topology {

ShortestPathTree dijkstra(const Graph& g, NodeId source) {
  const std::size_t n = g.node_count();
  ShortestPathTree tree;
  tree.distance.assign(n, kTimeInfinity);
  tree.predecessor.assign(n, kInvalidNode);

  using Item = std::pair<Time, NodeId>;  // (distance, node)
  std::priority_queue<Item, std::vector<Item>, std::greater<>> pq;
  tree.distance[static_cast<std::size_t>(source)] = 0.0;
  pq.emplace(0.0, source);

  while (!pq.empty()) {
    const auto [dist, u] = pq.top();
    pq.pop();
    if (dist > tree.distance[static_cast<std::size_t>(u)]) continue;  // stale
    for (const Edge& e : g.neighbors(u)) {
      const Time candidate = dist + e.delay;
      auto& best = tree.distance[static_cast<std::size_t>(e.to)];
      if (candidate < best) {
        best = candidate;
        tree.predecessor[static_cast<std::size_t>(e.to)] = u;
        pq.emplace(candidate, e.to);
      }
    }
  }
  return tree;
}

std::vector<NodeId> extract_path(const ShortestPathTree& tree, NodeId source,
                                 NodeId target) {
  std::vector<NodeId> path;
  if (tree.distance[static_cast<std::size_t>(target)] == kTimeInfinity) {
    return path;
  }
  for (NodeId v = target; v != kInvalidNode; v = tree.predecessor[static_cast<std::size_t>(v)]) {
    path.push_back(v);
    if (v == source) break;
  }
  std::reverse(path.begin(), path.end());
  if (path.empty() || path.front() != source) return {};
  return path;
}

DelayMatrix::DelayMatrix(const Graph& g) : n_(g.node_count()), data_(n_ * n_) {
  // Leaf peeling.  A leaf — a node whose one edge reaches a node of
  // degree > 1, e.g. an end host on its access link — is never interior
  // to a shortest path, so Dijkstra runs over the core (every other
  // node) only.  From a leaf source, dijkstra() first settles the attach
  // router at exactly 0.0 + access and continues over the core; a leaf
  // target's distance is exactly dist[attach] + access.  Float addition
  // is monotone, so dijkstra() returns the same minimum over path sums
  // whichever order it settles nodes in, and every entry here is
  // bit-identical to a per-source dijkstra() row.
  constexpr std::uint32_t kNotCore = ~std::uint32_t{0};
  std::vector<std::uint32_t> core_of(n_, kNotCore);
  std::vector<std::size_t> leaves;
  std::vector<std::size_t> core;
  for (std::size_t v = 0; v < n_; ++v) {
    const auto& out = g.neighbors(static_cast<NodeId>(v));
    if (out.size() == 1 && g.degree(out[0].to) > 1) {
      leaves.push_back(v);
    } else {
      core_of[v] = static_cast<std::uint32_t>(core.size());
      core.push_back(v);
    }
  }
  // Core adjacency in CSR form; edges into leaves are dropped.
  std::vector<std::size_t> first(core.size() + 1, 0);
  std::vector<std::uint32_t> to;
  std::vector<Time> delay;
  for (std::size_t c = 0; c < core.size(); ++c) {
    for (const Edge& e : g.neighbors(static_cast<NodeId>(core[c]))) {
      const std::uint32_t t = core_of[static_cast<std::size_t>(e.to)];
      if (t == kNotCore) continue;
      to.push_back(t);
      delay.push_back(e.delay);
    }
    first[c + 1] = to.size();
  }
  // A leaf's attach point (a core index) and access delay.
  std::vector<std::uint32_t> attach(leaves.size());
  std::vector<Time> access(leaves.size());
  for (std::size_t l = 0; l < leaves.size(); ++l) {
    const Edge& e = g.neighbors(static_cast<NodeId>(leaves[l])).front();
    attach[l] = core_of[static_cast<std::size_t>(e.to)];
    access[l] = e.delay;
  }

  std::vector<Time> dist(core.size());
  using Item = std::pair<Time, std::uint32_t>;  // (distance, core index)
  std::vector<Item> heap;
  auto core_dijkstra = [&](std::uint32_t seed, Time seed_dist) {
    std::fill(dist.begin(), dist.end(), kTimeInfinity);
    heap.clear();
    if (!(seed_dist < kTimeInfinity)) return;  // dijkstra() never reaches it
    dist[seed] = seed_dist;
    heap.emplace_back(seed_dist, seed);
    while (!heap.empty()) {
      std::pop_heap(heap.begin(), heap.end(), std::greater<>());
      const auto [d, u] = heap.back();
      heap.pop_back();
      if (d > dist[u]) continue;  // stale
      for (std::size_t i = first[u]; i < first[u + 1]; ++i) {
        const Time candidate = d + delay[i];
        if (candidate < dist[to[i]]) {
          dist[to[i]] = candidate;
          heap.emplace_back(candidate, to[i]);
          std::push_heap(heap.begin(), heap.end(), std::greater<>());
        }
      }
    }
  };
  auto fill_row = [&](std::size_t s) {
    Time* row = &data_[s * n_];
    for (std::size_t c = 0; c < core.size(); ++c) row[core[c]] = dist[c];
    for (std::size_t l = 0; l < leaves.size(); ++l) {
      row[leaves[l]] = dist[attach[l]] + access[l];
    }
    row[s] = 0.0;
  };
  for (std::size_t c = 0; c < core.size(); ++c) {
    core_dijkstra(static_cast<std::uint32_t>(c), 0.0);
    fill_row(core[c]);
  }
  for (std::size_t l = 0; l < leaves.size(); ++l) {
    core_dijkstra(attach[l], 0.0 + access[l]);
    fill_row(leaves[l]);
  }
}

}  // namespace emcast::topology
