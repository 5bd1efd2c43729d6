#pragma once
// Sharded multigroup dissemination: the scale experiment for the
// ShardedSimulator.  K single-source groups multicast over their overlay
// trees across N hosts; every forwarding host replicates copies through a
// serialised uplink (classic store-and-forward: copy j departs at
// max(now, uplink-free) + size/C) and each hop pays the app-layer
// forwarding overhead plus the underlay propagation delay.
//
// The model is written once against sim::SimContext (every handoff is a
// single location-transparent deliver()) and runs on either backend of a
// sim::Engine:
//   - single-threaded reference: one Simulator executes everything;
//   - sharded: hosts are partitioned (attachment domains kept whole,
//     weighted by forwarding fan-out), each shard simulates its hosts on
//     its own kernel, and parent->child handoffs that cross shards ride
//     the mailbox/window machinery with lookahead = forwarding overhead
//     + minimum cross-shard edge propagation.
//
// Both ways compute every delivery time from the same float operands in
// the same order, so the canonical delivery trace — all (time, group,
// packet, host) records sorted by (time image, group, packet, host) — is
// byte-identical between the reference, and every shard count, and every
// worker-thread count.  The differential tests pin exactly that.
//
// (The model keeps per-host mutable state — the uplink-free time — so
// window synchronisation is load-bearing: a message delivered into the
// wrong window would reorder uplink serialisation and change delivery
// times, not just their interleaving.  Event times are tie-free by
// construction — sources are phase-randomised per group — so within-shard
// tie-breaking never influences the canonical trace.)

#include <cstdint>
#include <vector>

#include "experiments/delivery_trace.hpp"
#include "experiments/scenarios.hpp"
#include "util/types.hpp"

namespace emcast::experiments {

struct ShardedMultigroupConfig {
  TrafficKind kind = TrafficKind::Audio;
  int groups = 3;
  std::size_t hosts = 665;
  std::size_t cluster_k = 3;
  double utilization = 0.5;  ///< sizes the per-host uplink capacity
  Time duration = 4.0;
  Time warmup = 1.0;
  std::uint64_t seed = 11;
  Time fwd_overhead = 250e-6;  ///< app-layer per-packet constant [s]
  Rate fwd_cpu_rate = 200e6;   ///< app-layer copy rate [bit/s]

  std::size_t shards = 1;   ///< model partitions (1 = degenerate sharding)
  std::size_t threads = 0;  ///< worker threads; 0 = auto (throughput only)
  /// Reference mode: one plain Simulator, no shard layer at all.
  bool single_threaded = false;
  bool collect_trace = false;  ///< record every delivery (tests)
  std::size_t mailbox_capacity = 4096;
  std::uint64_t topology_seed = 42;
  /// Underlay: 0 = the fixed Fig. 5 backbone (legacy, bit-exact); > 0 =
  /// hierarchical transit-stub underlay with that many routers and the
  /// compact host-delay oracle (the only provider that fits at 10^6
  /// hosts) — see experiments/multigroup_sim.hpp.
  std::size_t routers = 0;
  /// Bounded deterministic k-min delivery sample (scale stand-in for
  /// collect_trace; byte-identical across shard/thread counts).  0 = off.
  std::size_t sample_deliveries = 0;
};

/// One delivery, exact to the bit (see experiments/delivery_trace.hpp).
using ShardedDeliveryRecord = DeliveryRecord;

struct ShardedMultigroupResult {
  Time worst_case_delay = 0;
  Time mean_delay = 0;
  std::uint64_t deliveries = 0;       ///< all deliveries (warm-up included)
  std::uint64_t events_executed = 0;
  double run_seconds = 0;             ///< wall time of the run() alone
  // Sharding telemetry (zeros in single-threaded mode).
  std::size_t shards = 1;
  std::size_t threads = 1;
  std::uint64_t rounds = 0;
  std::uint64_t messages = 0;         ///< cross-shard packets staged
  std::uint64_t messages_spilled = 0;
  std::size_t cross_edges = 0;
  std::size_t total_edges = 0;
  Time lookahead = 0;
  Time horizon = 0;  ///< simulated span of the run (duration + drain tail)
  /// Canonical trace, sorted by (time_key, group, packet, host); empty
  /// unless collect_trace.
  DeliveryTrace trace;

  // Scale telemetry (see topology/host_table.hpp).
  std::size_t host_state_bytes = 0;  ///< lanes + side tables
  double bytes_per_host = 0;         ///< host_state_bytes / hosts
  std::size_t delay_provider_bytes = 0;  ///< DelayMatrix or compact oracle
  Time delay_p50 = 0;  ///< mergeable-sketch quantiles (shard-count stable)
  Time delay_p99 = 0;
  /// k-min delivery sample; empty unless sample_deliveries > 0.
  DeliveryTrace sample;
};

ShardedMultigroupResult run_sharded_multigroup(
    const ShardedMultigroupConfig& config);

}  // namespace emcast::experiments
