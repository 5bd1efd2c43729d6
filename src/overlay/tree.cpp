#include "overlay/tree.hpp"

#include <algorithm>
#include <queue>
#include <stdexcept>

namespace emcast::overlay {

MulticastTree::MulticastTree(std::vector<Member> members,
                             std::vector<std::size_t> parent, std::size_t root,
                             int hierarchy_layers)
    : members_(std::move(members)),
      parent_(std::move(parent)),
      root_(root),
      hierarchy_layers_(hierarchy_layers) {
  const std::size_t n = members_.size();
  if (parent_.size() != n) {
    throw std::invalid_argument("MulticastTree: parent size mismatch");
  }
  if (root >= n || parent_[root] != npos) {
    throw std::invalid_argument("MulticastTree: bad root");
  }
  children_.resize(n);
  std::size_t root_count = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (parent_[i] == npos) {
      ++root_count;
      continue;
    }
    if (parent_[i] >= n || parent_[i] == i) {
      throw std::invalid_argument("MulticastTree: bad parent pointer");
    }
    children_[parent_[i]].push_back(i);
  }
  if (root_count != 1) {
    throw std::invalid_argument("MulticastTree: must have exactly one root");
  }
  // Reachability check: BFS must visit all members (also rejects cycles);
  // parents precede children in BFS order, so it fills the depths too.
  const std::vector<std::size_t> order = bfs_order();
  if (order.size() != n) {
    throw std::invalid_argument("MulticastTree: not a spanning tree");
  }
  depth_.assign(n, 0);
  for (std::size_t u : order) {
    for (std::size_t c : children(u)) depth_[c] = depth_[u] + 1;
  }
}

int MulticastTree::height_hops() const {
  return *std::max_element(depth_.begin(), depth_.end());
}

int MulticastTree::depth(std::size_t i) const { return depth_[i]; }

std::vector<std::size_t> MulticastTree::path_from_root(std::size_t i) const {
  std::vector<std::size_t> path;
  for (std::size_t v = i;; v = parent_[v]) {
    path.push_back(v);
    if (v == root_) break;
  }
  std::reverse(path.begin(), path.end());
  return path;
}

std::size_t MulticastTree::max_fanout() const {
  std::size_t best = 0;
  for (const auto& c : children_) best = std::max(best, c.size());
  return best;
}

std::vector<std::size_t> MulticastTree::bfs_order() const {
  std::vector<std::size_t> order;
  order.reserve(members_.size());
  std::queue<std::size_t> frontier;
  frontier.push(root_);
  while (!frontier.empty()) {
    const std::size_t u = frontier.front();
    frontier.pop();
    order.push_back(u);
    for (std::size_t c : children(u)) frontier.push(c);
  }
  return order;
}

}  // namespace emcast::overlay
