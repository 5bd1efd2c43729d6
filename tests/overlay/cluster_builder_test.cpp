#include "overlay/cluster_builder.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <set>

#include <gtest/gtest.h>

namespace emcast::overlay {
namespace {

// Members on a line: RTT = |a-b|.
RttFn line_rtt() {
  return [](std::size_t a, std::size_t b) {
    return a > b ? static_cast<Time>(a - b) : static_cast<Time>(b - a);
  };
}

std::vector<std::size_t> iota_ids(std::size_t n) {
  std::vector<std::size_t> ids(n);
  std::iota(ids.begin(), ids.end(), 0);
  return ids;
}

TEST(ClusterOnce, PartitionIsExactCover) {
  util::Rng rng(1);
  ClusterConfig cfg{3, 8, false};
  const auto clusters = cluster_once(iota_ids(50), line_rtt(), cfg, rng);
  std::set<std::size_t> seen;
  for (const auto& c : clusters) {
    for (std::size_t m : c.members) {
      EXPECT_TRUE(seen.insert(m).second) << "duplicate member " << m;
    }
  }
  EXPECT_EQ(seen.size(), 50u);
}

TEST(ClusterOnce, SizesWithinRange) {
  util::Rng rng(2);
  ClusterConfig cfg{3, 8, false};
  const auto clusters = cluster_once(iota_ids(100), line_rtt(), cfg, rng);
  for (const auto& c : clusters) {
    EXPECT_GE(c.members.size(), 2u);
    // The final/adjusted cluster may exceed max by one (orphan avoidance).
    EXPECT_LE(c.members.size(), 9u);
  }
}

TEST(ClusterOnce, CoreIsClusterMember) {
  util::Rng rng(3);
  ClusterConfig cfg{3, 8, false};
  const auto clusters = cluster_once(iota_ids(30), line_rtt(), cfg, rng);
  for (const auto& c : clusters) {
    EXPECT_NE(std::find(c.members.begin(), c.members.end(), c.core),
              c.members.end());
  }
}

TEST(ClusterOnce, ClustersAreLocalOnALine) {
  // With ordered seeds on a line metric, clusters pick nearest neighbours,
  // so the span of each cluster is far below the line length.
  util::Rng rng(4);
  ClusterConfig cfg{3, 8, false};
  const auto clusters = cluster_once(iota_ids(100), line_rtt(), cfg, rng);
  for (const auto& c : clusters) {
    const auto [lo, hi] = std::minmax_element(c.members.begin(), c.members.end());
    EXPECT_LE(*hi - *lo, 20u);
  }
}

TEST(ClusterOnce, NeverLeavesSingleOrphan) {
  util::Rng rng(5);
  ClusterConfig cfg{3, 3, false};  // fixed size 3, n=10 -> 3+3+4 or similar
  const auto clusters = cluster_once(iota_ids(10), line_rtt(), cfg, rng);
  for (const auto& c : clusters) EXPECT_GE(c.members.size(), 2u);
}

TEST(ClusterOnce, SmallGroupSingleCluster) {
  util::Rng rng(6);
  ClusterConfig cfg{3, 8, false};
  const auto clusters = cluster_once(iota_ids(5), line_rtt(), cfg, rng);
  ASSERT_EQ(clusters.size(), 1u);
  EXPECT_EQ(clusters[0].members.size(), 5u);
}

TEST(ClusterOnce, RejectsBadSizeRange) {
  util::Rng rng(7);
  ClusterConfig cfg{1, 8, false};
  EXPECT_THROW(cluster_once(iota_ids(5), line_rtt(), cfg, rng),
               std::invalid_argument);
  ClusterConfig cfg2{5, 3, false};
  EXPECT_THROW(cluster_once(iota_ids(5), line_rtt(), cfg2, rng),
               std::invalid_argument);
}

// The straightforward clustering pass cluster_once() must reproduce
// exactly: per cluster, copy the remaining members minus the seed and
// partial_sort them with a comparator that calls the RTT oracle on both
// sides.  Kept here, verbatim in behaviour, as the reference the faster
// pass is held to bit for bit.
std::size_t reference_elect_core(const std::vector<std::size_t>& members,
                                 const RttFn& rtt,
                                 const std::vector<std::size_t>* budget) {
  const std::size_t need = members.size() - 1;
  std::size_t best = members.front();
  Time best_cost = kTimeInfinity;
  bool found = false;
  for (std::size_t candidate : members) {
    if (budget != nullptr && (*budget)[candidate] < need) continue;
    Time cost = 0;
    for (std::size_t other : members) {
      if (other != candidate) cost += rtt(candidate, other);
    }
    if (cost < best_cost) {
      best_cost = cost;
      best = candidate;
      found = true;
    }
  }
  if (!found && budget != nullptr) {
    best = *std::max_element(members.begin(), members.end(),
                             [&](std::size_t a, std::size_t b) {
                               return (*budget)[a] < (*budget)[b];
                             });
  }
  return best;
}

std::vector<Cluster> reference_cluster_once(const std::vector<std::size_t>& ids,
                                            const RttFn& rtt,
                                            const ClusterConfig& cfg,
                                            util::Rng& rng) {
  std::vector<std::size_t> unassigned = ids;
  std::vector<Cluster> clusters;
  while (!unassigned.empty()) {
    std::size_t want;
    if (unassigned.size() <= cfg.max_size) {
      want = unassigned.size();
    } else {
      want = static_cast<std::size_t>(rng.uniform_int(
          static_cast<std::int64_t>(cfg.min_size),
          static_cast<std::int64_t>(cfg.max_size)));
      if (unassigned.size() - want == 1) ++want;
    }
    std::size_t seed_pos = 0;
    if (cfg.random_seeds && unassigned.size() > 1) {
      seed_pos = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(unassigned.size()) - 1));
    }
    const std::size_t seed = unassigned[seed_pos];
    std::vector<std::size_t> rest;
    rest.reserve(unassigned.size() - 1);
    for (std::size_t i = 0; i < unassigned.size(); ++i) {
      if (i != seed_pos) rest.push_back(unassigned[i]);
    }
    const std::size_t take = std::min(want - 1, rest.size());
    std::partial_sort(rest.begin(),
                      rest.begin() + static_cast<std::ptrdiff_t>(take),
                      rest.end(), [&](std::size_t a, std::size_t b) {
                        return rtt(seed, a) < rtt(seed, b);
                      });
    Cluster c;
    c.members.push_back(seed);
    c.members.insert(c.members.end(), rest.begin(),
                     rest.begin() + static_cast<std::ptrdiff_t>(take));
    c.core = reference_elect_core(c.members, rtt, cfg.budget);
    if (cfg.budget != nullptr) {
      auto& left = (*cfg.budget)[c.core];
      left -= std::min(left, c.members.size() - 1);
    }
    clusters.push_back(std::move(c));
    unassigned.assign(rest.begin() + static_cast<std::ptrdiff_t>(take),
                      rest.end());
  }
  return clusters;
}

// Random member orders under tie-heavy metrics (the line, a handful of
// integer positions, a constant RTT), ordered and random seeds, with and
// without a fan-out budget: every cluster's members in order, every core,
// the budget left behind and the RNG stream position must equal the
// reference's.  Ties are where a selection that is not partial_sort's
// exact move sequence would pick different members.
TEST(ClusterOnce, MatchesReferencePassExactly) {
  constexpr std::size_t kUniverse = 160;
  util::Rng gen(20240917);
  for (int trial = 0; trial < 3000; ++trial) {
    const std::size_t n = static_cast<std::size_t>(gen.uniform_int(1, 70));
    std::vector<std::size_t> ids(kUniverse);
    std::iota(ids.begin(), ids.end(), 0);
    std::shuffle(ids.begin(), ids.end(), gen);
    ids.resize(n);

    std::vector<Time> pos(kUniverse);
    for (Time& p : pos) p = static_cast<Time>(gen.uniform_int(0, 5));
    RttFn rtt;
    switch (trial % 3) {
      case 0: rtt = line_rtt(); break;
      case 1:
        rtt = [&pos](std::size_t a, std::size_t b) {
          return std::abs(pos[a] - pos[b]);
        };
        break;
      default: rtt = [](std::size_t, std::size_t) { return 1.0; }; break;
    }

    ClusterConfig cfg;
    cfg.min_size = static_cast<std::size_t>(gen.uniform_int(2, 4));
    cfg.max_size =
        cfg.min_size + static_cast<std::size_t>(gen.uniform_int(0, 6));
    cfg.random_seeds = (trial / 3) % 2 == 1;
    const bool budgeted = (trial / 6) % 2 == 1;
    std::vector<std::size_t> budget(kUniverse), ref_budget;
    for (std::size_t& b : budget) {
      b = static_cast<std::size_t>(gen.uniform_int(0, 10));
    }
    ref_budget = budget;

    const std::uint64_t seed = gen.next();
    util::Rng rng(seed), ref_rng(seed);
    ClusterConfig ref_cfg = cfg;
    cfg.budget = budgeted ? &budget : nullptr;
    ref_cfg.budget = budgeted ? &ref_budget : nullptr;
    const auto got = cluster_once(ids, rtt, cfg, rng);
    const auto want = reference_cluster_once(ids, rtt, ref_cfg, ref_rng);

    SCOPED_TRACE(::testing::Message()
                 << "trial " << trial << ", n " << n << ", metric "
                 << trial % 3 << ", random seeds " << cfg.random_seeds
                 << ", budget " << budgeted);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t c = 0; c < got.size(); ++c) {
      ASSERT_EQ(got[c].members, want[c].members) << "cluster " << c;
      ASSERT_EQ(got[c].core, want[c].core) << "cluster " << c;
    }
    ASSERT_EQ(budget, ref_budget);
    ASSERT_EQ(rng.next(), ref_rng.next());
  }
}

TEST(Hierarchy, TerminatesAtSingleTop) {
  util::Rng rng(8);
  ClusterConfig cfg{3, 8, false};
  const auto h = build_hierarchy(iota_ids(200), line_rtt(), cfg, rng);
  EXPECT_GE(h.layers.size(), 2u);
  EXPECT_EQ(h.layers.back().size(), 1u);
  EXPECT_EQ(h.layers.back()[0].core, h.top);
}

TEST(Hierarchy, LayerSizesShrinkGeometrically) {
  util::Rng rng(9);
  ClusterConfig cfg{3, 8, false};
  const auto h = build_hierarchy(iota_ids(500), line_rtt(), cfg, rng);
  std::size_t prev = 500;
  for (const auto& layer : h.layers) {
    std::size_t members = 0;
    for (const auto& c : layer) members += c.members.size();
    EXPECT_EQ(members, prev);  // each layer clusters the previous cores
    prev = layer.size();
  }
}

TEST(Hierarchy, LayerCountWithinLemma2StyleBound) {
  // With min cluster size k the hierarchy can have at most
  // ceil(log_k n) + 1 layers.
  util::Rng rng(10);
  ClusterConfig cfg{3, 8, false};
  for (std::size_t n : {10u, 50u, 200u, 665u}) {
    const auto h = build_hierarchy(iota_ids(n), line_rtt(), cfg, rng);
    int bound = 1;
    std::size_t cover = 1;
    while (cover < n) { cover *= cfg.min_size; ++bound; }
    EXPECT_LE(h.layer_count(), bound + 1) << "n=" << n;
  }
}

TEST(Hierarchy, SingletonInput) {
  util::Rng rng(11);
  ClusterConfig cfg{3, 8, false};
  const auto h = build_hierarchy({42}, line_rtt(), cfg, rng);
  EXPECT_TRUE(h.layers.empty());
  EXPECT_EQ(h.top, 42u);
  EXPECT_EQ(h.layer_count(), 1);
}

TEST(HierarchyToParents, ProducesValidTree) {
  util::Rng rng(12);
  ClusterConfig cfg{3, 8, false};
  const std::size_t n = 120;
  const auto h = build_hierarchy(iota_ids(n), line_rtt(), cfg, rng);
  std::vector<std::size_t> parent(n, MulticastTree::npos);
  hierarchy_to_parents(h, parent);
  std::vector<Member> members(n);
  for (std::size_t i = 0; i < n; ++i) members[i] = Member{i, static_cast<NodeId>(i)};
  // Constructor validates spanning-tree structure.
  MulticastTree tree(std::move(members), parent, h.top, h.layer_count());
  EXPECT_EQ(tree.size(), n);
}

TEST(HierarchyToParents, EveryNonTopHasParent) {
  util::Rng rng(13);
  ClusterConfig cfg{3, 8, false};
  const std::size_t n = 77;
  const auto h = build_hierarchy(iota_ids(n), line_rtt(), cfg, rng);
  std::vector<std::size_t> parent(n, MulticastTree::npos);
  hierarchy_to_parents(h, parent);
  for (std::size_t i = 0; i < n; ++i) {
    if (i == h.top) {
      EXPECT_EQ(parent[i], MulticastTree::npos);
    } else {
      EXPECT_NE(parent[i], MulticastTree::npos) << i;
    }
  }
}

TEST(Hierarchy, RandomSeedsStillCoverEverything) {
  util::Rng rng(14);
  ClusterConfig cfg{3, 8, true};  // NICE-style random seeds
  const std::size_t n = 150;
  const auto h = build_hierarchy(iota_ids(n), line_rtt(), cfg, rng);
  std::vector<std::size_t> parent(n, MulticastTree::npos);
  hierarchy_to_parents(h, parent);
  std::size_t with_parent = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (parent[i] != MulticastTree::npos) ++with_parent;
  }
  EXPECT_EQ(with_parent, n - 1);
}

}  // namespace
}  // namespace emcast::overlay
