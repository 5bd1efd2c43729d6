#pragma once
// The fixed churn slice shared by the cross-commit churn pins
// (GoldenTrace.ChurnTimeline*) and the churn differential tests: the
// process-churn ladder workload's crash-heavy knobs (per-host leaves and
// rejoins plus correlated whole-domain failures), resolved over churn
// seeds x repair_fanout {2, 8} x flash join off/on, and planned for
// 2, 4 and 8 shards, on two overlays that reach member_delay through the
// two delay providers:
//
//   - the Fig. 5 665-host network, dense all-pairs DelayMatrix;
//   - a 4096-host hierarchical network (routers = hosts / 256), compact
//     HostDelayOracle.

#include <cstdint>
#include <vector>

#include "experiments/churn_schedule.hpp"
#include "experiments/multigroup_sim.hpp"
#include "overlay/multigroup.hpp"

namespace emcast::experiments::churn_slice {

struct Network {
  const char* name;
  const overlay::MultiGroupNetwork* mg;
  Time horizon;             ///< schedule horizon [s]
  std::size_t flash_count;  ///< flash-join cohort when flash is on
};

inline const overlay::MultiGroupNetwork& fig5_network() {
  static const overlay::MultiGroupNetwork mg(default_network(665, 42),
                                             overlay::MultiGroupConfig{});
  return mg;
}

inline const overlay::MultiGroupNetwork& hierarchical_network() {
  static const overlay::MultiGroupNetwork mg(
      default_hierarchical_network(4096 / 256, 4096, 42),
      overlay::MultiGroupConfig{});
  return mg;
}

inline std::vector<Network> networks() {
  return {{"fig5-665", &fig5_network(), 4.0, 24},
          {"hierarchical-4096", &hierarchical_network(), 1.0, 64}};
}

/// The process-churn knobs with the given seed, fanout and flash cohort
/// (flash_count 0 = no flash join).
inline ChurnConfig config(std::uint64_t seed, std::size_t fanout,
                          Time horizon, std::size_t flash_count) {
  ChurnConfig c;
  c.enabled = true;
  c.leave_rate = 0.25;
  c.crash_fraction = 0.9;
  c.rejoin_rate = 2.0;
  c.domain_failure_rate = 1.0;
  c.detection_timeout = 0.05;
  c.settle_window = 0.2;
  c.repair_fanout = fanout;
  c.seed = seed;
  if (flash_count > 0) {
    c.flash_join_at = horizon / 2;
    c.flash_join_count = flash_count;
  }
  return c;
}

/// Every churn config of the slice for one network.
inline std::vector<ChurnConfig> configs(const Network& net) {
  std::vector<ChurnConfig> out;
  for (const std::uint64_t seed : {1u, 2u}) {
    for (const std::size_t fanout : {2u, 8u}) {
      for (const bool flash : {false, true}) {
        out.push_back(config(seed, fanout, net.horizon,
                             flash ? net.flash_count : 0));
      }
    }
  }
  return out;
}

inline std::vector<std::size_t> protected_hosts(
    const overlay::MultiGroupNetwork& mg) {
  std::vector<std::size_t> s;
  for (int g = 0; g < mg.groups(); ++g) s.push_back(mg.source(g));
  return s;
}

inline ChurnSchedule schedule(const Network& net, const ChurnConfig& c) {
  return make_churn_schedule(c, *net.mg, protected_hosts(*net.mg),
                             ChurnCostModel{}, net.horizon);
}

/// A rounds-engine partition as run_multigroup derives it, with the
/// fallback minimum delay it hands churn_lookahead_plan.
struct ShardMap {
  std::size_t shards;
  std::vector<std::uint32_t> shard_of;
  Time fallback_min_delay;
};

inline std::vector<ShardMap> shard_maps(const overlay::MultiGroupNetwork& mg) {
  std::vector<ShardMap> out;
  for (const std::size_t shards : {2u, 4u, 8u}) {
    topology::HostPartition part = overlay::derive_partition(mg, shards);
    const overlay::PartitionStats ps =
        overlay::evaluate_partition(mg, part.shard_of);
    out.push_back({shards, std::move(part.shard_of),
                   ps.cross_edges != 0 ? ps.min_cross_delay : 0.0});
  }
  return out;
}

}  // namespace emcast::experiments::churn_slice
