#pragma once
// Simulation II (Fig. 5/6, Tables I–III): 665 end hosts attached to the
// 19-router backbone join 3 single-source groups.  Each group's flow is
// multicast down the group's overlay tree; every forwarding host runs the
// configured regulation scheme on its output.  We measure the worst-case
// multicast delay (source emission → last receiver) across all groups.
//
// Per-hop cost model (see DESIGN.md):
//   regulated MUX service at C  +  app-layer forwarding overhead
//   (constant + size/cpu_rate)  +  replication serialisation
//   (the j-th child copy waits j·size/C)  +  underlay propagation delay.
//
// RegulationScheme::None is the same overlay before the paper's
// regulators (plain end-host multicast, the scale model): no per-host
// pipeline, and every forwarder sends its copies one after another
// through its own uplink of max(C, carried load / ρ̄) (copy j departs at
// max(now, uplink free) + size/uplink), each hop then paying the
// forwarding overhead and the underlay propagation.

#include <cstdint>
#include <memory>

#include "core/adaptive_host.hpp"
#include "experiments/churn_schedule.hpp"
#include "experiments/delivery_trace.hpp"
#include "experiments/scenarios.hpp"
#include "overlay/multigroup.hpp"
#include "sim/context.hpp"
#include "topology/host_attachment.hpp"
#include "util/types.hpp"

namespace emcast::traffic {
class TraceBuffer;
class TraceRecorder;
}  // namespace emcast::traffic

namespace emcast::experiments {

enum class RegulationScheme {
  None,            ///< no regulators; serialised per-host uplinks, plain tree
  CapacityAware,   ///< no regulators; capacity-aware (degree-bounded) tree
  SigmaRho,        ///< (σ, ρ)-regulated MUXs on the fixed tree
  SigmaRhoLambda,  ///< (σ, ρ, λ)-regulated MUXs on the fixed tree
  Adaptive,        ///< the paper's algorithm (switches at ρ*)
};

const char* to_string(RegulationScheme scheme);

/// Tree family (the regulation scheme decides whether the capacity-aware
/// variant of the family is used).
enum class TreeFamily { Dsct, Nice };

const char* to_string(TreeFamily family);

struct MultiGroupSimConfig {
  TrafficKind kind = TrafficKind::Audio;
  TreeFamily family = TreeFamily::Dsct;
  RegulationScheme regulation = RegulationScheme::SigmaRho;
  /// ρ̄: Σ flow rates / C at every host; run_multigroup rejects values
  /// outside (0, 1] (and NaN) with std::invalid_argument.
  double utilization = 0.5;
  int groups = 3;
  std::size_t hosts = 665;
  std::size_t cluster_k = 3;    ///< DSCT/NICE k
  /// Underlay selection: 0 keeps the paper's fixed 19-router Fig. 5
  /// backbone (the default, bit-exact with every historical run); > 0
  /// generates a hierarchical transit-stub underlay with that many
  /// routers (topology/hierarchical.hpp) whose compact delay oracle is
  /// what makes 10^5..10^6-host runs fit in memory.  Router count also
  /// sets the mean attachment-domain size (hosts / stub routers), the
  /// knob that keeps DSCT's per-domain clustering tractable at scale.
  std::size_t routers = 0;
  std::uint64_t topology_seed = 42;  ///< seed of the underlay build
  Time duration = 8.0;
  Time warmup = 2.0;
  std::uint64_t seed = 11;
  double headroom = 0.04;
  Time fwd_overhead = 250e-6;   ///< app-layer per-packet constant [s]
  Rate fwd_cpu_rate = 200e6;    ///< app-layer copy rate [bit/s]
  /// Failure injection: stationary packet-loss rate on overlay hops
  /// (0 = lossless).  Losses follow a Gilbert-Elliott bursty process with
  /// `loss_burst` mean consecutive drops, independently per overlay edge.
  /// run_multigroup rejects loss_rate outside [0, 1] and loss_burst < 1
  /// with std::invalid_argument.
  double loss_rate = 0.0;
  double loss_burst = 3.0;

  /// Mid-run churn: joins, leaves, crashes and in-simulation tree repair
  /// (see experiments/churn_schedule.hpp).  Disabled by default; when
  /// enabled the knobs are validated up front.  Works on both engines —
  /// the sharded backend installs the schedule's lookahead-epoch plan so
  /// repairs that change the minimum cross-shard delay remap the window
  /// width at a window boundary.
  ChurnConfig churn;

  /// Trace-driven workload (record/compress/replay, see
  /// docs/workloads.md).  When `replay` is set, each group's source is a
  /// traffic::TraceSource over this buffer (filtered to the group's
  /// records) instead of the scenario's live synthetic source.  Scenario
  /// construction — the regulator (σ, ρ) specs, envelope calibration and
  /// the capacity derived from the utilisation — is unchanged, so a trace
  /// recorded from an identically-configured live run replays it with a
  /// byte-identical canonical DeliveryTrace on every engine.  Non-owning;
  /// must outlive the run.
  const traffic::TraceBuffer* replay = nullptr;
  /// Source-boundary recorder hook: every live (or replayed) source
  /// emission is captured into lane `group` of this recorder — the
  /// recorder must have at least `groups` lanes.  run_multigroup stamps
  /// the recorder's identity (config seed + workload fingerprint) before
  /// the run.  Non-owning; must outlive the run.
  traffic::TraceRecorder* record = nullptr;

  /// Which kernel runs the model.  The model is written against
  /// sim::SimContext, so the choice is purely a scale knob: Sharded
  /// partitions the hosts along attachment domains (weighted by
  /// forwarding fan-out), owns each host's AdaptiveHost/MUX pipeline on
  /// exactly one shard, and produces byte-identical canonical traces to
  /// Single for every shard and worker-thread count (the regulated
  /// differential suite pins this).  Process reuses the same partition
  /// and lookahead derivation but runs the shard blocks in forked worker
  /// processes (sim/process_backend.hpp): measurement state is carried
  /// back through per-shard result blobs, so traces, summaries and
  /// telemetry stay byte-identical to the in-process engines.  One
  /// restriction: `record` is rejected on Process (the recorder would
  /// capture in the workers and be lost at _exit); `replay` is fine —
  /// the trace buffer is read-only and fork-shared.
  sim::EngineKind engine = sim::EngineKind::Single;
  std::size_t shards = 1;        ///< Sharded/Process: model partitions
  std::size_t threads = 0;       ///< Sharded: workers; 0 = auto
  std::size_t processes = 0;     ///< Process: workers; 0 = auto
  /// Selects nothing: shared memory is the process backend's only
  /// transport.
  sim::TransportKind transport = sim::TransportKind::Shm;
  /// Process: the run fails once this long passes with no barrier
  /// advance and no frame from any worker.
  double process_timeout_seconds = 30.0;
  std::size_t mailbox_capacity = 4096;
  bool collect_trace = false;    ///< record every delivery (tests)
  /// Bounded deterministic delivery sample (scale runs, where
  /// collect_trace is infeasible): keep the k records whose hashed
  /// (time_key, packet, group, host) key is smallest.  The winning set is
  /// a pure function of the delivered multiset, so it is byte-identical
  /// across shard counts, thread counts and merge orders — the canonical
  /// trace's determinism contract, at O(k) memory.  0 disables.
  std::size_t sample_deliveries = 0;
};

struct MultiGroupSimResult {
  double utilization = 0;
  Time worst_case_delay = 0;    ///< WDB estimate: max end-to-end delay [s]
  Time mean_delay = 0;
  std::uint64_t deliveries = 0;  ///< post-warm-up deliveries
  std::uint64_t losses = 0;     ///< copies dropped by injected loss
  /// deliveries / (deliveries + losses); 1.0 when loss injection is off.
  double delivery_ratio = 1.0;
  int max_layers = 0;           ///< max hierarchy layers over the K trees
  int max_height_hops = 0;      ///< max tree height in hops
  std::uint64_t mode_switches = 0;  ///< Σ over hosts (Adaptive only)

  // Churn telemetry (defaults when churn is disabled).
  std::uint64_t churn_events = 0;   ///< accepted crashes + leaves + rejoins
  std::uint64_t churn_repairs = 0;  ///< completed splices/handoffs/joins
  /// Copies dropped because the receiving host was down (dead subtree) —
  /// counted separately from the Gilbert-Elliott `losses`.
  std::uint64_t churn_losses = 0;
  /// Post-warmup deliveries whose end-to-end delay exceeded `delay_bound`,
  /// split by whether a repair's settle window was open at arrival.
  std::uint64_t violations_in_repair = 0;
  std::uint64_t violations_steady = 0;
  /// The bound the violation counters compare against (config override or
  /// the derived Remark-2 multicast WDB plus per-hop forwarding costs).
  Time delay_bound = 0;
  /// Adaptive re-convergence after repairs: time from repair completion
  /// to the controller's next mode switch inside the settle window.
  Time reconvergence_max = 0;
  double reconvergence_mean = 0;
  std::uint64_t reconvergence_samples = 0;

  // Sharding telemetry (defaults when engine == Single).
  std::size_t shards = 1;
  std::size_t threads = 1;
  std::size_t processes = 0;  ///< Process-engine workers (0 otherwise)
  std::uint64_t rounds = 0;
  std::uint64_t messages = 0;        ///< cross-shard packets staged
  std::uint64_t messages_spilled = 0;
  std::size_t cross_edges = 0;
  std::size_t total_edges = 0;
  Time lookahead = 0;
  std::size_t lookahead_epochs = 0;  ///< plan epochs (0 = uniform lookahead)
  /// Canonical delivery trace (warm-up included); empty unless
  /// collect_trace.
  DeliveryTrace trace;

  // Run cost.
  std::uint64_t events_executed = 0;
  double run_seconds = 0;  ///< wall time of the engine run alone
  Time horizon = 0;        ///< simulated span (duration + drain tail)

  // Scale telemetry (topology/host_table.hpp budget + streaming stats).
  std::size_t host_state_bytes = 0;  ///< lanes + pipelines + loss models
  double bytes_per_host = 0;         ///< host_state_bytes / hosts
  std::size_t delay_provider_bytes = 0;  ///< DelayMatrix or oracle
  /// End-to-end delay quantiles from the mergeable log-binned sketch
  /// (identical across shard counts; ~2% relative resolution).
  Time delay_p50 = 0;
  Time delay_p99 = 0;
  /// k-min delivery sample, ascending hash order; empty unless
  /// sample_deliveries > 0.  Byte-identical across shard/thread counts.
  DeliveryTrace sample;
};

MultiGroupSimResult run_multigroup(const MultiGroupSimConfig& config);

/// Fingerprint of the knobs that define the source emissions (traffic
/// kind, group count, seed, duration) — stamped into recorded trace
/// headers so a replay's provenance is checkable against the config that
/// produced it.
std::uint64_t workload_fingerprint(const MultiGroupSimConfig& config);

/// Warm-reuse entry point: `engine_slot` caches a sim::Engine across
/// calls.  An empty slot (or one whose kind/shards/threads/
/// mailbox_capacity no longer match the config) is (re)built; a
/// compatible slot is Engine::reset() between runs — rebinding the
/// partition-derived host->shard map and lookahead on the sharded
/// backend — so every kernel/mailbox arena stays warm and the run
/// performs zero steady-state allocations inside the engine.  Results
/// are byte-identical to the fresh-engine overload (the differential
/// suite pins the canonical traces).  The slot must not be shared
/// between threads; sweeps keep one per worker lane.
MultiGroupSimResult run_multigroup(const MultiGroupSimConfig& config,
                                   std::unique_ptr<sim::Engine>& engine_slot);

/// Process-wide cache of attached networks so sweeps share one topology
/// (thread-safe; keyed by host count and seed).
const topology::AttachedNetwork& default_network(std::size_t hosts = 665,
                                                 std::uint64_t seed = 42);

/// Scale analogue of default_network: hierarchical transit-stub underlay
/// with `routers` routers (compact host delays; thread-safe cache keyed by
/// (routers, hosts, seed)).  Remaining generator knobs stay at the
/// HierarchicalConfig defaults, so the underlay is a pure function of the
/// three cache keys.
const topology::AttachedNetwork& default_hierarchical_network(
    std::size_t routers, std::size_t hosts, std::uint64_t seed = 42);

/// Tree-structure-only evaluation (Tables I–III): build the K trees for a
/// scheme at a given ρ̄ and report layer counts without running traffic.
struct TreeStructureResult {
  int max_layers = 0;
  int max_height_hops = 0;
  std::size_t max_fanout = 0;
};
TreeStructureResult evaluate_trees(const MultiGroupSimConfig& config);

}  // namespace emcast::experiments
