#include "overlay/multigroup.hpp"

#include <cstdint>
#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "topology/backbone.hpp"
#include "topology/hierarchical.hpp"

namespace emcast::overlay {
namespace {

const topology::AttachedNetwork& test_network() {
  static const topology::AttachedNetwork net = [] {
    const auto backbone = topology::make_fig5_backbone();
    topology::HostAttachmentConfig hc;
    hc.host_count = 120;
    hc.seed = 9;
    return topology::attach_hosts(backbone, hc);
  }();
  return net;
}

TEST(MultiGroup, BuildsOneTreePerGroup) {
  MultiGroupConfig cfg;
  cfg.groups = 3;
  MultiGroupNetwork mg(test_network(), cfg);
  EXPECT_EQ(mg.groups(), 3);
  EXPECT_EQ(mg.host_count(), 120u);
  for (int g = 0; g < 3; ++g) {
    EXPECT_EQ(mg.tree(g).size(), 120u);
    EXPECT_EQ(mg.tree(g).root(), mg.source(g));
  }
}

TEST(MultiGroup, SourcesAreValidHosts) {
  MultiGroupConfig cfg;
  MultiGroupNetwork mg(test_network(), cfg);
  for (int g = 0; g < mg.groups(); ++g) {
    EXPECT_LT(mg.source(g), mg.host_count());
  }
}

TEST(MultiGroup, TreesDifferAcrossGroups) {
  MultiGroupConfig cfg;
  MultiGroupNetwork mg(test_network(), cfg);
  // Different sources (with high probability under the fixed seed).
  EXPECT_TRUE(mg.source(0) != mg.source(1) || mg.source(1) != mg.source(2));
}

TEST(MultiGroup, MemberDelayIsSymmetricPositive) {
  MultiGroupConfig cfg;
  MultiGroupNetwork mg(test_network(), cfg);
  EXPECT_DOUBLE_EQ(mg.member_delay(3, 3), 0.0);
  EXPECT_GT(mg.member_delay(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(mg.member_delay(0, 1), mg.member_delay(1, 0));
}

TEST(MultiGroup, AllSchemesBuild) {
  for (auto scheme :
       {TreeScheme::Dsct, TreeScheme::Nice, TreeScheme::CapacityAwareDsct,
        TreeScheme::CapacityAwareNice}) {
    MultiGroupConfig cfg;
    cfg.scheme = scheme;
    cfg.utilization = 0.6;
    MultiGroupNetwork mg(test_network(), cfg);
    for (int g = 0; g < mg.groups(); ++g) {
      EXPECT_EQ(mg.tree(g).bfs_order().size(), 120u)
          << to_string(scheme) << " group " << g;
    }
  }
}

TEST(MultiGroup, DeterministicForSeed) {
  MultiGroupConfig cfg;
  cfg.seed = 1234;
  MultiGroupNetwork a(test_network(), cfg);
  MultiGroupNetwork b(test_network(), cfg);
  for (int g = 0; g < a.groups(); ++g) {
    EXPECT_EQ(a.source(g), b.source(g));
    for (std::size_t i = 0; i < a.tree(g).size(); ++i) {
      EXPECT_EQ(a.tree(g).parent(i), b.tree(g).parent(i));
    }
  }
}

TEST(MultiGroup, RejectsBadConfig) {
  MultiGroupConfig cfg;
  cfg.groups = 0;
  EXPECT_THROW(MultiGroupNetwork(test_network(), cfg), std::invalid_argument);
}

TEST(MultiGroup, SchemeNames) {
  EXPECT_STREQ(to_string(TreeScheme::Dsct), "DSCT");
  EXPECT_STREQ(to_string(TreeScheme::Nice), "NICE");
  EXPECT_STREQ(to_string(TreeScheme::CapacityAwareDsct), "cap-aware DSCT");
  EXPECT_STREQ(to_string(TreeScheme::CapacityAwareNice), "cap-aware NICE");
}

// FNV-1a over a tree's parent vector, then each member's children in
// order, as hex: one value pins the shape and the forwarding order.
std::string tree_hash(const MulticastTree& t) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](std::uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (word >> (8 * byte)) & 0xffU;
      h *= 0x100000001b3ULL;
    }
  };
  for (std::size_t i = 0; i < t.size(); ++i) mix(t.parent(i));
  for (std::size_t i = 0; i < t.size(); ++i) {
    mix(t.children(i).size());
    for (std::size_t c : t.children(i)) mix(c);
  }
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(h));
  return hex;
}

constexpr TreeScheme kSchemes[] = {
    TreeScheme::Dsct, TreeScheme::Nice, TreeScheme::CapacityAwareDsct,
    TreeScheme::CapacityAwareNice};

void expect_pinned_trees(const topology::AttachedNetwork& net,
                         const char* const (&pins)[4][3]) {
  for (std::size_t s = 0; s < 4; ++s) {
    MultiGroupConfig cfg;
    cfg.scheme = kSchemes[s];
    const MultiGroupNetwork mg(net, cfg);
    for (int g = 0; g < 3; ++g) {
      EXPECT_EQ(tree_hash(mg.tree(g)), pins[s][g])
          << to_string(kSchemes[s]) << " group " << g;
    }
  }
}

// Golden trees: every builder on the paper's 665-host Fig. 5 network
// (topology seed 42, dense DelayMatrix) and on a 10^4-host hierarchical
// network (HostDelayOracle).  Set-up optimisations must leave every
// parent pointer and every children order exactly as pinned here.
TEST(MultiGroup, TreesMatchGoldenOnFig5Network) {
  const auto net = topology::attach_hosts(topology::make_fig5_backbone(),
                                          topology::HostAttachmentConfig{});
  const char* const pins[4][3] = {
      {"ff672546525b2759", "ce4d2a5a05feb1a1", "a50d6e10686275a6"},
      {"0a39650e76acf3d6", "6c51cf61f470c7dd", "09d9f7ee9006cb40"},
      {"c4ffefe3101b9569", "69d8d7333835d9dc", "2058a6ed84b0f2b4"},
      {"f41cc92c37bd7445", "5168302bf2ef0c4f", "2483dc5e07a46c89"}};
  expect_pinned_trees(net, pins);
}

TEST(MultiGroup, TreesMatchGoldenOnHierarchicalNetwork) {
  topology::HierarchicalConfig hc;
  hc.hosts = 10000;
  hc.routers = 40;
  const auto net = topology::make_hierarchical(hc);
  const char* const pins[4][3] = {
      {"28342bbe15ec5271", "f19023e2eabdee6f", "1f03c196e4964377"},
      {"747573bbaede5f05", "71f13f17d29da5a1", "7ff5d4fd426ad9eb"},
      {"d8710cc68fea7ddc", "e493f5a81075757a", "11fa82a5eab40515"},
      {"17e9015c2626da35", "eb827699ced59fbf", "ae5e84c9014f850c"}};
  expect_pinned_trees(net, pins);
}

}  // namespace
}  // namespace emcast::overlay
