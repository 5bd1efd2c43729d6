#pragma once
// Membership churn: repairing a multicast tree when members leave or join
// without rebuilding the whole hierarchy.  EMcast systems must survive
// churn (hosts are end users, not routers); the paper defers churn to the
// underlying DSCT/NICE protocols, so this module implements the standard
// local-repair rules those protocols use:
//
//   leave  — the departed member's children are re-parented onto its own
//            parent (grandparent splice).  If the root leaves, its closest
//            child is promoted to root and adopts its siblings; if the
//            LAST member leaves, the tree becomes empty (root() == npos)
//            instead of throwing — mid-simulation churn schedules must
//            never abort the run on a legal membership sequence.
//   join   — the newcomer attaches to the RTT-closest member whose fanout
//            is below a configurable cap (NICE's "join the nearest
//            non-full cluster" in tree form), the lowest index among
//            equally close ones.  Joining an empty tree makes the
//            newcomer the root.
//
// join comes in two forms that pick the same member.  The reference form
// scans every member through an RTT callback.  The router-level form
// serves overlays whose members are end hosts, each a degree-1 leaf on an
// attachment router: there the delay from the newcomer i to member b is
// x_i[router(b)] + access(b) bit for bit (both delay providers evaluate
// exactly that sum), so a RejoinIndex buckets the members by router in
// (access, index) order and the search touches one bucket front per
// router.  Float addition is monotone, so a bucket's first eligible
// member has the bucket's smallest delay; members after it whose sum
// rounds to the same value may carry lower indices, and a short walk over
// them keeps the lowest-index tie rule.
//
// Repairs operate on the member-index space of the original group;
// removed members get a tombstone (alive() == false) so flow wiring stays
// index-stable across a simulation.
//
// The in-simulation fault-injection path (experiments/churn_schedule)
// keeps one ChurnTree replica per kernel and replays the same repair
// sequence on each, so every mutation here is a pure function of the
// current tree state and the RTT metric, and the steady-state mutation
// path performs no heap allocation once the arenas are warm: leave()
// stages orphans in a reusable scratch buffer (not a moved-out vector),
// and reset() rebinds to a base tree inside the retained capacities.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "overlay/cluster_builder.hpp"
#include "overlay/tree.hpp"

namespace emcast::overlay {

/// Members bucketed by attachment router for the router-level join: one
/// bucket per router that has members, ascending by router id, each
/// listing its members in (access delay, index) order.
class RejoinIndex {
 public:
  struct Entry {
    NodeId router;         ///< the member's attachment router
    std::uint32_t member;  ///< member index
    Time access;           ///< the member's access-link delay
  };

  /// Rebuild over members [0, members), where locate(m) returns member
  /// m's Entry.  The arenas are reused: rebuilding an index of the same
  /// shape allocates nothing.
  template <class Locate>
  void build(std::size_t members, Locate&& locate) {
    entries_.resize(members);
    for (std::size_t m = 0; m < members; ++m) entries_[m] = locate(m);
    std::sort(entries_.begin(), entries_.end(),
              [](const Entry& a, const Entry& b) {
                if (a.router != b.router) return a.router < b.router;
                if (a.access != b.access) return a.access < b.access;
                return a.member < b.member;
              });
    routers_.clear();
    first_.clear();
    for (std::size_t k = 0; k < entries_.size(); ++k) {
      if (k == 0 || entries_[k].router != entries_[k - 1].router) {
        routers_.push_back(entries_[k].router);
        first_.push_back(k);
      }
    }
    first_.push_back(entries_.size());
  }

  std::size_t buckets() const { return routers_.size(); }
  NodeId router(std::size_t bucket) const { return routers_[bucket]; }
  /// Bucket `bucket`'s members, in (access, index) order.
  std::span<const Entry> members(std::size_t bucket) const {
    return {entries_.data() + first_[bucket],
            first_[bucket + 1] - first_[bucket]};
  }

 private:
  std::vector<Entry> entries_;       ///< sorted by (router, access, member)
  std::vector<NodeId> routers_;      ///< one per bucket
  std::vector<std::size_t> first_;   ///< bucket b = [first_[b], first_[b+1])
};

class ChurnTree {
 public:
  /// Wrap a freshly-built tree for incremental repair.
  explicit ChurnTree(const MulticastTree& tree);

  /// Warm rewind for another run: re-adopt `tree`'s structure with every
  /// member alive again.  Reuses the existing arenas — after a first run
  /// grew them, a reset + identical churn sequence allocates nothing.
  void reset(const MulticastTree& tree);

  std::size_t size() const { return parent_.size(); }
  std::size_t alive_count() const { return alive_count_; }
  bool alive(std::size_t i) const { return alive_[i]; }
  /// Current root; MulticastTree::npos when every member has departed.
  std::size_t root() const { return root_; }
  std::size_t parent(std::size_t i) const { return parent_[i]; }
  const std::vector<std::size_t>& children(std::size_t i) const {
    return children_[i];
  }

  /// Member `i` leaves; its children are spliced to its parent.  Root
  /// departure promotes the child with the smallest RTT to the root's
  /// parent position; the last member's departure empties the tree
  /// (root() == npos, alive_count() == 0).  Returns the number of
  /// re-parented members.
  std::size_t leave(std::size_t i, const RttFn& rtt);

  /// Previously-departed member `i` re-joins, attaching to the closest
  /// alive member with fewer than `max_fanout` children.  Joining an
  /// empty tree promotes `i` to root.
  void join(std::size_t i, const RttFn& rtt, std::size_t max_fanout);

  /// Router-level join: the same choice as join(i, rtt, max_fanout) when
  /// rtt(i, b) == router_delay[k] + access(b) for the bucket k holding
  /// member b (router_delay[k] is i's delay to index.router(k)).  Calls
  /// no callback and allocates nothing beyond the parent's child list.
  void join(std::size_t i, const RejoinIndex& index,
            std::span<const Time> router_delay, std::size_t max_fanout);

  /// Depth of member i in hops from the root (alive members only).
  int depth(std::size_t i) const;

  /// Max depth over alive members (0 for an empty tree).
  int height_hops() const;

  /// Consistency check: every alive member reaches the root through alive
  /// ancestors, with no cycles.  The empty tree is valid.
  bool valid() const;

 private:
  void detach_from_parent(std::size_t i);
  /// Mark departed member i alive again as a child of `parent`, or as
  /// the root of an emptied tree when `parent` is npos.
  void attach(std::size_t i, std::size_t parent);
  /// The alive member with fewer than max_fanout children closest to the
  /// newcomer (lowest index among equal delays); npos if none.
  std::size_t nearest(const RejoinIndex& index,
                      std::span<const Time> router_delay,
                      std::size_t max_fanout) const;

  std::vector<std::size_t> parent_;
  std::vector<std::vector<std::size_t>> children_;
  std::vector<bool> alive_;
  std::size_t root_;
  std::size_t alive_count_;
  /// Orphan staging for leave(): reused so repeated repairs do not churn
  /// the allocator (the moved-out-vector idiom lost the capacity of
  /// children_[i] on every departure).
  std::vector<std::size_t> scratch_orphans_;
};

}  // namespace emcast::overlay
