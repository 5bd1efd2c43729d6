// Differential tests for the churn timeline's incremental mechanisms,
// each against the brute-force form it replaces:
//
//   - the router-level rejoin search (ChurnTree::join over a RejoinIndex,
//     driven by ChurnState) against the reference member scan
//     ChurnTree::join(i, rtt, fanout) with rtt = member_delay, on every
//     JoinComplete of the shared churn slice, on the every-member-full
//     fallback and on hand-built exact ties;
//   - the counted multiset of cross-shard edge delays (CrossShardEdges)
//     against a rescan of every tree edge after every action;
//   - the leaf decomposition both rest on, over all host pairs.

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "churn_slice.hpp"
#include "experiments/churn_schedule.hpp"
#include "overlay/multigroup.hpp"
#include "overlay/repair.hpp"
#include "topology/host_attachment.hpp"

namespace emcast::experiments {
namespace {

constexpr std::size_t npos = overlay::MulticastTree::npos;

/// Router a host attaches to (its one neighbour).
NodeId attach_router(const overlay::MultiGroupNetwork& mg, std::size_t h) {
  const topology::AttachedNetwork& net = mg.network();
  return net.graph.neighbors(net.hosts[h]).front().to;
}

TEST(LeafDelayDecomposition, HoldsOnAllHostPairs) {
  for (const churn_slice::Network& net : churn_slice::networks()) {
    const overlay::MultiGroupNetwork& mg = *net.mg;
    const std::size_t n = mg.host_count();
    std::vector<NodeId> router(n);
    std::vector<Time> access(n);
    for (std::size_t b = 0; b < n; ++b) {
      router[b] = attach_router(mg, b);
      access[b] = mg.host_access_delay(b);
    }
    std::size_t mismatches = 0;
    for (std::size_t a = 0; a < n; ++a) {
      for (std::size_t b = 0; b < n; ++b) {
        if (a == b) continue;
        if (mg.member_delay(a, b) !=
            mg.host_router_delay(a, router[b]) + access[b]) {
          ++mismatches;
        }
      }
    }
    EXPECT_EQ(mismatches, 0u) << net.name << ": " << n * (n - 1) << " pairs";
  }
}

/// Replays `actions` through a ChurnState and, in lockstep, through
/// reference trees repaired by the member-scan join.  After every
/// JoinComplete each tree must hold the subject under the same parent.
/// Returns the number of joins compared.
std::size_t expect_joins_match(const overlay::MultiGroupNetwork& mg,
                               const ChurnConfig& cfg,
                               const std::vector<sim::FaultEvent>& actions,
                               const std::string& what) {
  ChurnState state;
  state.reset(mg, cfg);
  std::vector<overlay::ChurnTree> ref;
  for (int g = 0; g < mg.groups(); ++g) ref.emplace_back(mg.tree(g));
  const overlay::RttFn rtt = [&mg](std::size_t a, std::size_t b) {
    return mg.member_delay(a, b);
  };
  std::size_t joins = 0;
  for (const sim::FaultEvent& ev : actions) {
    const auto h = static_cast<std::size_t>(ev.subject);
    switch (static_cast<ChurnAction>(ev.kind)) {
      case ChurnAction::HostDown:
        break;
      case ChurnAction::Splice:
      case ChurnAction::LeaveComplete:
        for (overlay::ChurnTree& t : ref) {
          if (t.alive(h)) t.leave(h, rtt);
        }
        break;
      case ChurnAction::JoinComplete:
        for (overlay::ChurnTree& t : ref) {
          if (!t.alive(h)) t.join(h, rtt, cfg.repair_fanout);
        }
        break;
    }
    state.apply(ev, ev.at);
    if (static_cast<ChurnAction>(ev.kind) != ChurnAction::JoinComplete) {
      continue;
    }
    for (int g = 0; g < mg.groups(); ++g) {
      const std::size_t want = ref[static_cast<std::size_t>(g)].parent(h);
      const std::size_t got = state.tree(g).parent(h);
      if (got != want) {
        ADD_FAILURE() << what << ": join of host " << h << " at t=" << ev.at
                      << " in group " << g << " picked parent " << got
                      << ", the member scan picks " << want;
        return joins;
      }
      ++joins;
    }
  }
  return joins;
}

TEST(RouterLevelRejoin, MatchesTheMemberScanOnEveryJoinOfTheSlice) {
  for (const churn_slice::Network& net : churn_slice::networks()) {
    std::vector<ChurnConfig> configs = churn_slice::configs(net);
    // Fanout 1: only leaves are eligible, so most members are full.
    configs.push_back(churn_slice::config(1, 1, net.horizon, 0));
    configs.push_back(churn_slice::config(2, 1, net.horizon, net.flash_count));
    std::size_t joins = 0;
    for (const ChurnConfig& c : configs) {
      const ChurnSchedule s = churn_slice::schedule(net, c);
      joins += expect_joins_match(
          *net.mg, c, s.actions,
          std::string(net.name) + " seed " + std::to_string(c.seed) +
              " fanout " + std::to_string(c.repair_fanout) + " flash " +
              std::to_string(c.flash_join_count));
    }
    EXPECT_GT(joins, 1000u) << net.name;
  }
}

TEST(RouterLevelRejoin, EveryMemberFullFallbackMatches) {
  // With fanout 0 every member is full, so each join takes the fallback:
  // the closest alive member regardless of fanout.  Depart every fifth
  // host that is no group source, then rejoin them in reverse order.
  for (const churn_slice::Network& net : churn_slice::networks()) {
    const overlay::MultiGroupNetwork& mg = *net.mg;
    ChurnConfig cfg;
    cfg.repair_fanout = 0;
    std::vector<std::uint8_t> source(mg.host_count(), 0);
    for (int g = 0; g < mg.groups(); ++g) source[mg.source(g)] = 1;
    std::vector<std::int32_t> leaving;
    for (std::size_t h = 3; h < mg.host_count(); h += 5) {
      if (!source[h]) leaving.push_back(static_cast<std::int32_t>(h));
    }
    std::vector<sim::FaultEvent> actions;
    Time t = 0.0;
    for (const std::int32_t h : leaving) {
      actions.push_back(sim::FaultEvent{
          t += 1e-3, static_cast<std::uint32_t>(ChurnAction::Splice), h});
    }
    for (auto it = leaving.rbegin(); it != leaving.rend(); ++it) {
      actions.push_back(sim::FaultEvent{
          t += 1e-3, static_cast<std::uint32_t>(ChurnAction::JoinComplete),
          *it});
    }
    const std::size_t joins =
        expect_joins_match(mg, cfg, actions, net.name);
    EXPECT_EQ(joins, leaving.size() * static_cast<std::size_t>(mg.groups()))
        << net.name;
  }
}

/// Two routers joined at 0.5 s (plus a third on router 0's other side),
/// host 0 the joiner on router 0, and hosts 1 and 2 at exactly equal
/// delay from host 0 with host 1 (the lower index) ordered second:
///   - same_router: both on router 1; host 1's access (2e-17 s) is larger
///     than host 2's (1e-17 s), but both sums round to 0.501;
///   - otherwise host 1 sits on router 2 and host 2 on router 1, whose
///     bucket is searched first, at identical access delays.
/// Host 3 is far away on router 0.
topology::AttachedNetwork tie_network(bool same_router, bool compact) {
  topology::AttachedNetwork net;
  net.router_count = 3;
  net.graph = topology::Graph(3 + 4);
  net.graph.add_edge(0, 1, 0.5, 100e6);
  net.graph.add_edge(0, 2, 0.5, 100e6);
  const auto host = [&net](NodeId router, Time access) {
    const auto id = static_cast<NodeId>(3 + net.hosts.size());
    net.graph.add_edge(id, router, access, 10e6);
    net.hosts.push_back(id);
    net.attachment.push_back(router);
  };
  host(0, 0.001);
  if (same_router) {
    host(1, 2e-17);
    host(1, 1e-17);
  } else {
    host(2, 0.01);
    host(1, 0.01);
  }
  host(0, 0.9);
  net.compact_host_delays = compact;
  return net;
}

TEST(RouterLevelRejoin, ExactTieKeepsTheLowestIndex) {
  for (const bool same_router : {true, false}) {
    for (const bool compact : {false, true}) {
      const std::string what =
          std::string(same_router ? "tie inside one router bucket"
                                  : "tie across router buckets") +
          (compact ? ", compact oracle" : ", dense matrix");
      const topology::AttachedNetwork underlay =
          tie_network(same_router, compact);
      overlay::MultiGroupConfig mc;
      mc.groups = 2;
      const overlay::MultiGroupNetwork mg(underlay, mc);
      ASSERT_EQ(mg.compact_delays(), compact);
      ASSERT_EQ(mg.member_delay(0, 1), mg.member_delay(0, 2)) << what;
      ASSERT_LT(mg.member_delay(0, 1), mg.member_delay(0, 3)) << what;
      ChurnConfig cfg;
      const std::vector<sim::FaultEvent> actions{
          {0.1, static_cast<std::uint32_t>(ChurnAction::Splice), 0},
          {0.2, static_cast<std::uint32_t>(ChurnAction::JoinComplete), 0}};
      EXPECT_EQ(expect_joins_match(mg, cfg, actions, what), 2u);
      ChurnState state;
      state.reset(mg, cfg);
      for (const sim::FaultEvent& ev : actions) state.apply(ev, ev.at);
      for (int g = 0; g < mg.groups(); ++g) {
        EXPECT_EQ(state.tree(g).parent(0), 1u) << what << ", group " << g;
      }
    }
  }
}

TEST(RouterLevelRejoin, RejectsHostsThatAreNotLeaves) {
  topology::AttachedNetwork underlay = tie_network(true, false);
  // A second link makes host 3 (node 6) a transit node.
  underlay.graph.add_edge(6, 2, 0.2, 10e6);
  const overlay::MultiGroupNetwork mg(underlay, overlay::MultiGroupConfig{});
  ChurnState state;
  EXPECT_THROW(state.reset(mg, ChurnConfig{}), std::invalid_argument);
}

TEST(RouterLevelRejoin, JoinIntoAnEmptiedTreeRestartsItAsRoot) {
  std::vector<overlay::Member> members(3);
  for (std::size_t i = 0; i < 3; ++i) {
    members[i] = overlay::Member{i, static_cast<NodeId>(i)};
  }
  overlay::ChurnTree t(overlay::MulticastTree(members, {npos, 0, 0}, 0, 3));
  overlay::RejoinIndex index;
  index.build(3, [](std::size_t m) {
    return overlay::RejoinIndex::Entry{0, static_cast<std::uint32_t>(m),
                                       0.001};
  });
  const std::vector<Time> router_delay{0.0};
  const overlay::RttFn rtt = [](std::size_t, std::size_t) { return 1.0; };
  t.leave(1, rtt);
  t.leave(2, rtt);
  t.leave(0, rtt);
  ASSERT_EQ(t.root(), npos);
  t.join(2, index, router_delay, 8);
  EXPECT_EQ(t.root(), 2u);
  EXPECT_EQ(t.parent(2), npos);
  t.join(0, index, router_delay, 8);
  EXPECT_EQ(t.parent(0), 2u);
  EXPECT_TRUE(t.valid());
}

/// The oracle: the minimum delay over every alive cross-shard tree edge,
/// by a rescan of every tree.
Time cross_min_rescan(const ChurnState& state,
                      const overlay::MultiGroupNetwork& mg,
                      const std::vector<std::uint32_t>& shard_of) {
  Time m = kTimeInfinity;
  for (int g = 0; g < mg.groups(); ++g) {
    const overlay::ChurnTree& t = state.tree(g);
    for (std::size_t h = 0; h < t.size(); ++h) {
      if (!t.alive(h)) continue;
      for (std::size_t c : t.children(h)) {
        if (shard_of[h] != shard_of[c]) {
          m = std::min(m, mg.member_delay(h, c));
        }
      }
    }
  }
  return m;
}

/// Number of actions after which the multiset minimum and the rescan
/// disagree (reports the first).
std::size_t min_mismatches(const churn_slice::Network& net,
                           const ChurnConfig& c,
                           const churn_slice::ShardMap& map,
                           std::size_t& checked) {
  const ChurnSchedule s = churn_slice::schedule(net, c);
  ChurnState state;
  state.reset(*net.mg, c);
  CrossShardEdges cross(state, *net.mg, map.shard_of);
  std::size_t bad = cross.min() != cross_min_rescan(state, *net.mg,
                                                    map.shard_of);
  for (const sim::FaultEvent& ev : s.actions) {
    cross.apply(ev);
    ++checked;
    const Time want = cross_min_rescan(state, *net.mg, map.shard_of);
    if (cross.min() != want && bad++ == 0) {
      ADD_FAILURE() << net.name << " seed " << c.seed << " fanout "
                    << c.repair_fanout << ", " << map.shards
                    << " shards: after the action at t=" << ev.at
                    << " (kind " << ev.kind << ", host " << ev.subject
                    << ") the multiset says " << cross.min()
                    << ", the rescan " << want;
    }
  }
  return bad;
}

TEST(CrossShardEdges, MinimumMatchesARescanAfterEveryAction) {
  const std::vector<churn_slice::Network> nets = churn_slice::networks();
  std::size_t checked = 0;
  // Fig. 5: the seed-1 configs of the slice on every shard count.
  const auto fig5_maps = churn_slice::shard_maps(*nets[0].mg);
  for (const ChurnConfig& c : churn_slice::configs(nets[0])) {
    if (c.seed != 1) continue;
    for (const churn_slice::ShardMap& m : fig5_maps) {
      EXPECT_EQ(min_mismatches(nets[0], c, m, checked), 0u);
    }
  }
  // Hierarchical: a rescan costs every tree edge, so one config on 4
  // shards.
  const ChurnConfig c =
      churn_slice::config(1, 2, nets[1].horizon, nets[1].flash_count);
  EXPECT_EQ(min_mismatches(nets[1], c, churn_slice::shard_maps(*nets[1].mg)[1],
                           checked),
            0u);
  EXPECT_GT(checked, 20000u);
}

TEST(CrossShardEdges, EmptyWhenNoEdgeCrosses) {
  const overlay::MultiGroupNetwork& mg = churn_slice::fig5_network();
  const std::vector<std::uint32_t> one_shard(mg.host_count(), 0);
  ChurnState state;
  state.reset(mg, ChurnConfig{});
  const CrossShardEdges cross(state, mg, one_shard);
  EXPECT_EQ(cross.min(), kTimeInfinity);
}

}  // namespace
}  // namespace emcast::experiments
