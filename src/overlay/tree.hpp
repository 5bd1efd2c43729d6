#pragma once
// Overlay multicast tree over a set of group members.  Members are indexed
// 0..n−1 within the group; each carries the underlay node it attaches to so
// overlay edges can be priced by underlay propagation delay.

#include <cstddef>
#include <span>
#include <vector>

#include "util/types.hpp"

namespace emcast::overlay {

/// A group member: position `index` in the group, living at underlay node
/// `node` (an end-host node of the attached network).
struct Member {
  std::size_t index = 0;
  NodeId node = kInvalidNode;
};

class MulticastTree {
 public:
  /// Build from a parent vector (parent[i] = member index of i's parent,
  /// npos for the root).  Validates that the structure is a single rooted
  /// spanning tree.
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);
  MulticastTree(std::vector<Member> members, std::vector<std::size_t> parent,
                std::size_t root, int hierarchy_layers);

  std::size_t size() const { return members_.size(); }
  std::size_t root() const { return root_; }
  const Member& member(std::size_t i) const { return members_[i]; }
  std::size_t parent(std::size_t i) const { return parent_[i]; }
  /// Member i's children, in ascending member order.
  std::span<const std::size_t> children(std::size_t i) const {
    return children_[i];
  }

  /// Number of layers in the cluster hierarchy that produced the tree —
  /// the "tree layer number" reported by the paper's Tables I–III.
  int hierarchy_layers() const { return hierarchy_layers_; }

  /// Height in overlay hops (edges) from the root to the deepest member.
  int height_hops() const;

  /// Depth in hops of member i (0 for the root).
  int depth(std::size_t i) const;

  /// Member indices on the path root → i (inclusive).
  std::vector<std::size_t> path_from_root(std::size_t i) const;

  /// Maximum number of children over all members (forwarding fan-out).
  std::size_t max_fanout() const;

  /// Members in breadth-first (top-down) order — forwarding order.
  std::vector<std::size_t> bfs_order() const;

 private:
  std::vector<Member> members_;
  std::vector<std::size_t> parent_;
  std::vector<std::vector<std::size_t>> children_;
  std::vector<int> depth_;
  std::size_t root_;
  int hierarchy_layers_;
};

}  // namespace emcast::overlay
