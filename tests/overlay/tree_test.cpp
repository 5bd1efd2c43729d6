#include "overlay/tree.hpp"

#include <gtest/gtest.h>

namespace emcast::overlay {
namespace {

std::vector<Member> make_members(std::size_t n) {
  std::vector<Member> m(n);
  for (std::size_t i = 0; i < n; ++i) m[i] = Member{i, static_cast<NodeId>(i)};
  return m;
}

// Balanced tree, root on the left:
//
//   0 -+- 1 -+- 3
//      |     `- 4
//      `- 2
MulticastTree make_sample() {
  constexpr auto npos = MulticastTree::npos;
  return MulticastTree(make_members(5), {npos, 0, 0, 1, 1}, 0, 3);
}

TEST(MulticastTree, BasicAccessors) {
  const auto t = make_sample();
  EXPECT_EQ(t.size(), 5u);
  EXPECT_EQ(t.root(), 0u);
  EXPECT_EQ(t.parent(3), 1u);
  EXPECT_EQ(t.children(0).size(), 2u);
  EXPECT_EQ(t.children(1).size(), 2u);
  EXPECT_TRUE(t.children(3).empty());
  EXPECT_EQ(t.hierarchy_layers(), 3);
}

TEST(MulticastTree, DepthsAndHeight) {
  const auto t = make_sample();
  EXPECT_EQ(t.depth(0), 0);
  EXPECT_EQ(t.depth(2), 1);
  EXPECT_EQ(t.depth(4), 2);
  EXPECT_EQ(t.height_hops(), 2);
}

TEST(MulticastTree, PathFromRoot) {
  const auto t = make_sample();
  EXPECT_EQ(t.path_from_root(4), (std::vector<std::size_t>{0, 1, 4}));
  EXPECT_EQ(t.path_from_root(0), (std::vector<std::size_t>{0}));
}

TEST(MulticastTree, MaxFanout) {
  const auto t = make_sample();
  EXPECT_EQ(t.max_fanout(), 2u);
}

TEST(MulticastTree, BfsVisitsAllTopDown) {
  const auto t = make_sample();
  const auto order = t.bfs_order();
  EXPECT_EQ(order.size(), 5u);
  EXPECT_EQ(order[0], 0u);
  // Parents precede children.
  std::vector<int> pos(5);
  for (int i = 0; i < 5; ++i) pos[order[static_cast<std::size_t>(i)]] = i;
  for (std::size_t v = 1; v < 5; ++v) EXPECT_LT(pos[t.parent(v)], pos[v]);
}

TEST(MulticastTree, SingletonTree) {
  MulticastTree t(make_members(1), {MulticastTree::npos}, 0, 1);
  EXPECT_EQ(t.height_hops(), 0);
  EXPECT_EQ(t.bfs_order().size(), 1u);
}

TEST(MulticastTree, RejectsTwoRoots) {
  constexpr auto npos = MulticastTree::npos;
  EXPECT_THROW(MulticastTree(make_members(3), {npos, npos, 0}, 0, 1),
               std::invalid_argument);
}

TEST(MulticastTree, RejectsCycle) {
  // 1 -> 2 -> 1 cycle detached from root 0.
  constexpr auto npos = MulticastTree::npos;
  EXPECT_THROW(MulticastTree(make_members(3), {npos, 2, 1}, 0, 1),
               std::invalid_argument);
}

TEST(MulticastTree, RejectsSelfParent) {
  constexpr auto npos = MulticastTree::npos;
  EXPECT_THROW(MulticastTree(make_members(2), {npos, 1}, 0, 1),
               std::invalid_argument);
}

TEST(MulticastTree, RejectsBadRootIndex) {
  constexpr auto npos = MulticastTree::npos;
  EXPECT_THROW(MulticastTree(make_members(2), {npos, 0}, 5, 1),
               std::invalid_argument);
}

TEST(MulticastTree, RejectsSizeMismatch) {
  constexpr auto npos = MulticastTree::npos;
  EXPECT_THROW(MulticastTree(make_members(3), {npos, 0}, 0, 1),
               std::invalid_argument);
}

}  // namespace
}  // namespace emcast::overlay
