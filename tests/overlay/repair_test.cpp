#include "overlay/repair.hpp"

#include <gtest/gtest.h>

#include "overlay/dsct.hpp"
#include "util/rng.hpp"

namespace emcast::overlay {
namespace {

// Line-metric geometry for deterministic repairs.
RttFn line_rtt() {
  return [](std::size_t a, std::size_t b) {
    return a > b ? static_cast<Time>(a - b) : static_cast<Time>(b - a);
  };
}

MulticastTree small_tree() {
  // Root on the left:
  //
  //   0 -+- 1 -+- 3
  //      |     `- 4
  //      `- 2 --- 5
  constexpr auto npos = MulticastTree::npos;
  std::vector<Member> members(6);
  for (std::size_t i = 0; i < 6; ++i) members[i] = Member{i, static_cast<NodeId>(i)};
  return MulticastTree(members, {npos, 0, 0, 1, 1, 2}, 0, 3);
}

TEST(ChurnTree, WrapsTreeFaithfully) {
  ChurnTree t(small_tree());
  EXPECT_EQ(t.size(), 6u);
  EXPECT_EQ(t.alive_count(), 6u);
  EXPECT_EQ(t.root(), 0u);
  EXPECT_TRUE(t.valid());
  EXPECT_EQ(t.height_hops(), 2);
}

TEST(ChurnTree, LeafLeaveIsTrivial) {
  ChurnTree t(small_tree());
  EXPECT_EQ(t.leave(5, line_rtt()), 0u);
  EXPECT_FALSE(t.alive(5));
  EXPECT_EQ(t.alive_count(), 5u);
  EXPECT_TRUE(t.valid());
}

TEST(ChurnTree, InternalLeaveSplicesChildrenToGrandparent) {
  ChurnTree t(small_tree());
  EXPECT_EQ(t.leave(1, line_rtt()), 2u);  // 3 and 4 re-parented
  EXPECT_EQ(t.parent(3), 0u);
  EXPECT_EQ(t.parent(4), 0u);
  EXPECT_TRUE(t.valid());
  EXPECT_EQ(t.height_hops(), 2);
}

TEST(ChurnTree, RootLeavePromotesClosestChild) {
  ChurnTree t(small_tree());
  t.leave(0, line_rtt());
  // Children of 0 were {1, 2}; 1 is closer on the line metric.
  EXPECT_EQ(t.root(), 1u);
  EXPECT_EQ(t.parent(2), 1u);
  EXPECT_TRUE(t.valid());
}

TEST(ChurnTree, JoinAttachesToClosestNonFull) {
  ChurnTree t(small_tree());
  t.leave(5, line_rtt());
  t.join(5, line_rtt(), 2);
  EXPECT_TRUE(t.alive(5));
  // Closest member to 5 with < 2 children: 4 (distance 1, leaf).
  EXPECT_EQ(t.parent(5), 4u);
  EXPECT_TRUE(t.valid());
}

TEST(ChurnTree, JoinRespectsFanoutCap) {
  ChurnTree t(small_tree());
  t.leave(3, line_rtt());
  // Host 2 already has one child (5); with cap 1 the newcomer must go
  // elsewhere even if 2 were closest.
  t.join(3, line_rtt(), 1);
  EXPECT_NE(t.parent(3), 2u);
  EXPECT_TRUE(t.valid());
}

TEST(ChurnTree, RejectsBadOperations) {
  ChurnTree t(small_tree());
  EXPECT_THROW(t.leave(99, line_rtt()), std::invalid_argument);
  EXPECT_THROW(t.join(3, line_rtt(), 3), std::invalid_argument);  // alive
  t.leave(3, line_rtt());
  EXPECT_THROW(t.leave(3, line_rtt()), std::invalid_argument);  // departed
}

TEST(ChurnTree, LastMemberLeaveEmptiesTree) {
  // Mid-simulation churn can drain a group entirely; that must be a
  // well-defined empty state, not an exception or UB.
  ChurnTree t(small_tree());
  const auto rtt = line_rtt();
  for (const std::size_t h : {3u, 4u, 5u, 1u, 2u, 0u}) t.leave(h, rtt);
  EXPECT_EQ(t.alive_count(), 0u);
  EXPECT_EQ(t.root(), MulticastTree::npos);
  EXPECT_TRUE(t.valid()) << "empty tree must count as valid";
}

TEST(ChurnTree, JoinIntoEmptyTreeBecomesRoot) {
  ChurnTree t(small_tree());
  const auto rtt = line_rtt();
  for (const std::size_t h : {3u, 4u, 5u, 1u, 2u, 0u}) t.leave(h, rtt);
  t.join(4, rtt, 8);
  EXPECT_EQ(t.alive_count(), 1u);
  EXPECT_EQ(t.root(), 4u);
  EXPECT_TRUE(t.alive(4));
  EXPECT_TRUE(t.valid());
}

TEST(ChurnTree, DrainAndRefillStaysSpanning) {
  ChurnTree t(small_tree());
  const auto rtt = line_rtt();
  for (const std::size_t h : {0u, 1u, 2u, 3u, 4u, 5u}) t.leave(h, rtt);
  for (const std::size_t h : {5u, 0u, 3u, 1u, 4u, 2u}) {
    t.join(h, rtt, 2);
    ASSERT_TRUE(t.valid()) << "after rejoining " << h;
  }
  EXPECT_EQ(t.alive_count(), 6u);
  EXPECT_EQ(t.root(), 5u) << "first member back became the root";
}

TEST(ChurnTree, ResetRebindsToTreeSnapshot) {
  ChurnTree t(small_tree());
  const auto rtt = line_rtt();
  t.leave(1, rtt);
  t.leave(5, rtt);
  ASSERT_EQ(t.alive_count(), 4u);
  t.reset(small_tree());
  EXPECT_EQ(t.alive_count(), 6u);
  EXPECT_EQ(t.root(), 0u);
  EXPECT_EQ(t.parent(3), 1u);
  EXPECT_TRUE(t.valid());
}

TEST(ChurnTree, SurvivesHeavyChurnOnLargeTree) {
  // Property: random interleaved leaves/joins never break validity and the
  // height stays within a constant factor of the original.
  std::vector<Member> members(200);
  std::vector<int> domain(200);
  for (std::size_t i = 0; i < 200; ++i) {
    members[i] = Member{i, static_cast<NodeId>(i)};
    domain[i] = static_cast<int>(i % 8);
  }
  auto rtt = line_rtt();
  DsctConfig cfg;
  cfg.seed = 3;
  const auto base = build_dsct(members, domain, rtt, 0, cfg);
  ChurnTree t(base);
  const int base_height = t.height_hops();

  util::Rng rng(99);
  std::vector<std::size_t> departed;
  for (int step = 0; step < 300; ++step) {
    const bool do_leave = departed.empty() ||
                          (t.alive_count() > 20 && rng.uniform() < 0.55);
    if (do_leave) {
      std::size_t victim;
      do {
        victim = static_cast<std::size_t>(rng.uniform_int(0, 199));
      } while (!t.alive(victim));
      t.leave(victim, rtt);
      departed.push_back(victim);
    } else {
      const auto pick = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(departed.size()) - 1));
      const std::size_t member = departed[pick];
      departed.erase(departed.begin() + static_cast<std::ptrdiff_t>(pick));
      t.join(member, rtt, 8);
    }
    ASSERT_TRUE(t.valid()) << "step " << step;
  }
  EXPECT_LE(t.height_hops(), 4 * base_height + 8);
}

}  // namespace
}  // namespace emcast::overlay
