#pragma once
// Multi-group overlay assembly: the Simulation-II setting.  All hosts of an
// attached network join all K groups ("665 end hosts ... who join in 3
// groups"); each group gets its own tree built by the selected scheme, and
// every host therefore terminates K̂ = K flows.

#include <cstdint>
#include <memory>
#include <vector>

#include "overlay/capacity_aware.hpp"
#include "overlay/dsct.hpp"
#include "overlay/nice.hpp"
#include "overlay/tree.hpp"
#include "topology/hierarchical.hpp"
#include "topology/host_attachment.hpp"
#include "topology/partition.hpp"
#include "topology/shortest_path.hpp"

namespace emcast::overlay {

enum class TreeScheme {
  Dsct,               ///< DSCT with fixed [k, 3k−1] clusters (regulated)
  Nice,               ///< NICE with fixed [k, 3k−1] clusters (regulated)
  CapacityAwareDsct,  ///< DSCT with load-driven fan-out bound
  CapacityAwareNice,  ///< NICE with load-driven fan-out bound
};

const char* to_string(TreeScheme scheme);

struct MultiGroupConfig {
  int groups = 3;
  TreeScheme scheme = TreeScheme::Dsct;
  std::size_t k = 3;
  /// Only used by the capacity-aware schemes.
  double utilization = 0.5;
  double host_capacity_factor = 1.75;
  std::uint64_t seed = 11;
};

class MultiGroupNetwork {
 public:
  /// Build trees for `config.groups` groups over the hosts of `net`.
  /// Every host joins every group; sources are distinct random hosts.
  MultiGroupNetwork(const topology::AttachedNetwork& net,
                    const MultiGroupConfig& config);

  int groups() const { return static_cast<int>(trees_.size()); }
  std::size_t host_count() const { return net_->hosts.size(); }
  const MulticastTree& tree(int group) const { return trees_[static_cast<std::size_t>(group)]; }
  std::size_t source(int group) const { return sources_[static_cast<std::size_t>(group)]; }
  const topology::AttachedNetwork& network() const { return *net_; }

  /// One-way underlay propagation delay between two member indices (host
  /// indices; identical across groups since everyone joins everything).
  /// Backed by one of two providers, chosen by the network's
  /// compact_host_delays marker:
  ///   - legacy: full all-pairs DelayMatrix over routers + hosts — keeps
  ///     the bit-exact delay values every existing trace test pins;
  ///   - compact: HostDelayOracle (access + RxR router matrix + access)
  ///     — exact too, but a different float-addition order, and the only
  ///     provider that fits in memory at 10^6 hosts.
  Time member_delay(std::size_t a, std::size_t b) const {
    return oracle_ ? oracle_->between_hosts(a, b)
                   : delays_->at(net_->hosts[a], net_->hosts[b]);
  }

  /// One-way delay from host `a` to router `r`, and host `a`'s access
  /// delay (hosts must be degree-1 leaves on routers).  They decompose
  /// member_delay bit for bit on both providers: for distinct hosts a, b
  /// with b attached to router r,
  ///   member_delay(a, b) == host_router_delay(a, r) + host_access_delay(b)
  /// (the dense matrix fills a leaf target as dist[attach] + access; the
  /// oracle sums (access(a) + R) + access(b)).
  Time host_router_delay(std::size_t a, NodeId r) const {
    return oracle_ ? oracle_->access(a) +
                         oracle_->between_routers(oracle_->attach(a), r)
                   : delays_->at(net_->hosts[a], r);
  }
  Time host_access_delay(std::size_t a) const {
    return oracle_ ? oracle_->access(a)
                   : net_->graph.neighbors(net_->hosts[a]).front().delay;
  }

  /// True when the compact router-level oracle backs member_delay.
  bool compact_delays() const { return oracle_ != nullptr; }

  /// Bytes held by the delay provider (matrix or oracle) — the dominant
  /// per-network memory term, reported into the scale memory budget.
  std::size_t delay_memory_bytes() const;

  const MultiGroupConfig& config() const { return config_; }

 private:
  const topology::AttachedNetwork* net_;
  std::shared_ptr<topology::DelayMatrix> delays_;        ///< legacy provider
  std::shared_ptr<topology::HostDelayOracle> oracle_;    ///< compact provider
  MultiGroupConfig config_;
  std::vector<MulticastTree> trees_;
  std::vector<std::size_t> sources_;
};

/// Quality of a host partition with respect to the K overlay trees: how
/// many tree edges cross shards, and the minimum underlay delay over the
/// crossing edges — the quantity the sharded simulator's conservative
/// lookahead is derived from.
struct PartitionStats {
  std::size_t cross_edges = 0;
  std::size_t total_edges = 0;
  /// min over cross-shard tree edges of member_delay(parent, child);
  /// kTimeInfinity when no edge crosses (single shard).
  Time min_cross_delay = kTimeInfinity;
  std::size_t max_shard_hosts = 0;
  /// Number of shards the evaluated map names (max entry + 1).
  std::size_t shards = 0;
  /// Per ordered shard pair, min over (parent in src, child in dst) tree
  /// edges of member_delay(parent, child) — flattened row-major
  /// [src * shards + dst], kTimeInfinity where no edge crosses that pair.
  /// The per-pair analogue of min_cross_delay: the sharded engine derives
  /// its pair lookahead matrix from it to widen conservative windows.
  std::vector<Time> pair_min_delay;
};

PartitionStats evaluate_partition(const MultiGroupNetwork& mg,
                                  const std::vector<std::uint32_t>& shard_of);

/// Derive a sharding partition for a built multigroup overlay: attachment
/// domains stay whole (locality / large lookahead), weighted by each
/// host's forwarding fan-out across the K trees (balance of the actual
/// event load, not just host counts).
topology::HostPartition derive_partition(const MultiGroupNetwork& mg,
                                         std::size_t shards);

}  // namespace emcast::overlay
