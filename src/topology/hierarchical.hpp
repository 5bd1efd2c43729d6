#pragma once
// Hierarchical transit-stub topology generation: the million-host scale
// path.  The paper's experiments run 665 hosts over the fixed 19-router
// Fig. 5 backbone; this generator grows that same backbone/attachment-
// domain model to N routers x M hosts while keeping every property the
// rest of the stack depends on:
//
//   - three tiers, like the classic transit-stub model (GT-ITM): a small
//     transit core of well-connected routers, stub routers homed onto the
//     core, and end hosts attached to stub routers by access links;
//   - hosts are always degree-1 leaves, so host-to-host shortest-path
//     delay decomposes EXACTLY as access(a) + router_delay(r(a), r(b)) +
//     access(b) — which is what lets HostDelayOracle replace the O(V^2)
//     all-pairs DelayMatrix (8 TB at 10^6 nodes) with an R x R router
//     matrix plus one access delay per host;
//   - always connected, and deterministic per seed: one sequential RNG
//     stream drives the whole build, so the edge list is byte-identical
//     across runs and platforms;
//   - Fig. 5 statistics as the small-N sanity anchor: routers=19 with
//     transit_fraction=1 reproduces the Fig. 5 envelope (mean degree ~3,
//     transit delays in [5,30] ms, 100 Mbit/s links), pinned by test.
//
// Attachment domains (the stub router a host hangs off) stay the unit of
// locality: DSCT clusters within domains and overlay::derive_partition
// keeps domains whole, so at 1M hosts the router count also controls the
// clustering cost (mean domain size = hosts / stub routers).

#include <cstdint>
#include <vector>

#include "topology/host_attachment.hpp"
#include "topology/shortest_path.hpp"
#include "util/types.hpp"

namespace emcast::topology {

/// Uniform delay range in milliseconds (stored as ms to match the paper's
/// figures; edges are added in seconds).
struct DelayRangeMs {
  double min_ms = 0;
  double max_ms = 0;
};

struct HierarchicalConfig {
  std::size_t routers = 19;    ///< total routers (transit + stub)
  std::size_t hosts = 665;     ///< end hosts attached to stub routers
  /// Fraction of routers in the transit core (at least 1 router).  1.0
  /// makes a pure backbone with no stub tier — the Fig. 5 anchor shape.
  double transit_fraction = 0.125;
  /// Target mean degree of the transit core (Fig. 5's backbone averages
  /// ~2.9); extra edges beyond the spanning tree are sampled until the
  /// core reaches round(T * degree / 2) edges or saturates.
  double transit_degree = 3.0;
  /// Each stub router homes onto 1 + stub_extra_uplinks distinct transit
  /// routers (0 = single-homed tree of domains, >0 adds redundancy).
  std::size_t stub_extra_uplinks = 0;
  DelayRangeMs transit_delay{5.0, 30.0};  ///< Fig. 5 backbone range
  DelayRangeMs stub_delay{1.0, 10.0};     ///< stub->transit uplinks
  DelayRangeMs access_delay{0.5, 5.0};    ///< host access links
  Rate transit_capacity = 100e6;
  Rate stub_capacity = 100e6;
  Rate access_capacity = 10e6;
  /// Host placement over stub routers: 0 = uniform; larger values skew
  /// attachment towards low-index stub routers (host index drawn as
  /// floor(S * u^(1+skew))), modelling unequal domain populations.
  double host_skew = 0.0;
  std::uint64_t seed = 42;
};

/// Generate the three-tier network.  The result's compact_host_delays
/// flag is set: consumers should use HostDelayOracle, not a full
/// DelayMatrix.  Throws std::invalid_argument on degenerate configs
/// (routers == 0, empty delay ranges, fraction outside (0, 1]).
AttachedNetwork make_hierarchical(const HierarchicalConfig& config);

/// Compact host-to-host delay oracle.  Exact — not an approximation —
/// because every host is a degree-1 leaf: the unique shortest path
/// between distinct hosts is access(a) + shortest router path + access(b)
/// (and 0 for a == b).  The router part is a leaf-peeled DelayMatrix over
/// the router-only graph, whose leaves are the single-homed stub routers,
/// so Dijkstra runs over the transit core only; every entry equals a
/// per-router dijkstra() bit for bit.  Memory is R^2 doubles + one access
/// delay per host instead of (R + M)^2: at 4096 routers and 10^6 hosts
/// that is ~134 MB + 12 MB against 8 TB.
///
/// Works for ANY AttachedNetwork whose hosts are leaves (the Fig. 5 +
/// attach_hosts output qualifies too); the legacy path keeps the full
/// matrix only to preserve bit-exact historical delay values, which sum
/// the same terms in a different float order.
class HostDelayOracle {
 public:
  /// Validates the leaf property and throws std::invalid_argument if any
  /// host is not attached to exactly one router.
  explicit HostDelayOracle(const AttachedNetwork& net);

  /// One-way delay between host indices a, b (indices into net.hosts).
  Time between_hosts(std::size_t a, std::size_t b) const {
    if (a == b) return 0.0;
    return access_[a] + router_delay_.at(attach_[a], attach_[b]) + access_[b];
  }

  /// One-way delay between two routers.
  Time between_routers(NodeId a, NodeId b) const {
    return router_delay_.at(a, b);
  }

  std::size_t router_count() const { return router_delay_.size(); }
  std::size_t host_count() const { return access_.size(); }
  /// Host h's access-link delay and attachment router.
  Time access(std::size_t h) const { return access_[h]; }
  NodeId attach(std::size_t h) const { return attach_[h]; }

  std::size_t memory_bytes() const {
    return sizeof(*this) +
           router_count() * router_count() * sizeof(Time) +
           access_.capacity() * sizeof(Time) +
           attach_.capacity() * sizeof(NodeId);
  }

 private:
  DelayMatrix router_delay_;    ///< R x R one-way delays
  std::vector<Time> access_;    ///< per-host access-link delay
  std::vector<NodeId> attach_;  ///< per-host attachment router
};

}  // namespace emcast::topology
