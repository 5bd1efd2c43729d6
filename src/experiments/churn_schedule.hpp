#pragma once
// Deterministic churn schedules and the in-simulation repair state — the
// experiments' half of the fault-injection subsystem (the model-agnostic
// event plumbing lives in sim/fault_injector.{hpp,cpp}).
//
// Determinism story (what lets churn run on the sharded engine with
// byte-identical traces): membership state is REPLICATED per kernel.
// Every kernel holds its own ChurnState — one overlay::ChurnTree per
// group plus the down/up flags — and the fault injector replays the same
// pre-resolved action timeline on every kernel.  Each repair (grandparent
// splice, closest-non-full rejoin) is a pure function of the replica's
// tree state and the RTT metric, so the replicas stay bit-identical with
// zero cross-shard communication; a forwarding event at time t reads its
// own kernel's replica, which agrees with every other replica's state at
// t by construction.
//
// The timeline itself is resolved OFFLINE by make_churn_schedule: raw
// seeded churn (per-host Poisson leave/rejoin, correlated whole-domain
// failures, flash joins) is replayed against the initial trees, invalid
// events are dropped or deferred, and every repair is priced with the
// paper's forwarding-overhead cost model — a crashed host's subtree stays
// dark for detection_timeout plus one control message per orphan before
// the splice applies; a graceful leave keeps forwarding until the handoff
// (same per-orphan price) completes; a rejoin pays one control message.
// The resolved actions are what the FaultInjector schedules; at run time
// ChurnState::apply only ever mutates trees, so online and offline
// evolution agree exactly.
//
// For EngineKind::Sharded the resolved timeline also yields the
// lookahead-epoch plan (churn_lookahead_plan): repairs re-parent members,
// so the set of tree edges — and with it the minimum cross-shard delay
// the conservative window width derives from — is a step function of
// simulated time.  Most repairs resolve inside the owning partition
// (DSCT clusters by attachment domain and the partition keeps domains
// whole), leaving the plan with few epochs; when a repair does create a
// shorter cross-shard edge, the plan remaps the window width at a window
// boundary (see RoundsCore::set_lookahead_plan).
//
// Cost: every pass pays for what an action changes, not for the size of
// the overlay.  A rejoin fills the joiner's delay to each attachment
// router once and searches the router buckets of a RejoinIndex in every
// tree (overlay/repair.hpp); the plan keeps the alive cross-shard edge
// delays in a counted multiset (CrossShardEdges) updated with the edges
// each action adds or removes.

#include <cstdint>
#include <map>
#include <vector>

#include "overlay/multigroup.hpp"
#include "overlay/repair.hpp"
#include "sim/fault_injector.hpp"
#include "util/types.hpp"

namespace emcast::experiments {

/// Churn knobs (nested in MultiGroupSimConfig as `churn`).
struct ChurnConfig {
  bool enabled = false;

  /// Per-host Poisson departure rate [1/s] (0 = no individual churn).
  double leave_rate = 0.0;
  /// Fraction of departures that are crashes (silent, detected after
  /// detection_timeout) rather than graceful leaves (children handed off
  /// before going dark).
  double crash_fraction = 0.7;
  /// Per-departed-host Poisson rejoin rate [1/s] (0 = departures final).
  double rejoin_rate = 0.5;
  /// Time until a crashed host's parent notices and repair begins.
  Time detection_timeout = 0.15;
  /// Rate of correlated whole-attachment-domain failures [1/s] — every
  /// non-protected host of one random access domain crashes at once.
  double domain_failure_rate = 0.0;
  /// Flash crowd: at this time (< 0 disables) `flash_join_count` hosts
  /// that left earlier all rejoin within a few hundred microseconds.
  Time flash_join_at = -1.0;
  std::size_t flash_join_count = 0;
  /// Fanout cap for repair joins (NICE closest-non-full rule).
  std::size_t repair_fanout = 8;
  /// Size of one repair control message [bits]; each orphan handoff pays
  /// fwd_overhead + control_bits / fwd_cpu_rate of simulated time.
  double control_bits = 2048.0;
  /// Telemetry window after each completed repair: delay-bound violations
  /// inside it are attributed to the repair, and the adaptive controller's
  /// re-convergence is measured against it.
  Time settle_window = 0.5;
  /// Delay bound for the violation counters; 0 derives the paper's
  /// multicast WDB (Remark 2) plus the per-hop forwarding costs.
  Time delay_bound = 0.0;
  std::uint64_t seed = 1;

  /// Throws std::invalid_argument on out-of-range knobs.
  void validate() const;
};

/// Resolved churn actions, carried in sim::FaultEvent::kind.
enum class ChurnAction : std::uint32_t {
  HostDown = 0,       ///< crash instant: subject silently drops packets
  Splice = 1,         ///< crash repair done: subject leaves every tree
  LeaveComplete = 2,  ///< graceful handoff done: leave + go dark
  JoinComplete = 3,   ///< (re)join done: subject attaches in every tree
};

/// A fully-resolved churn timeline plus the counters the result reports.
struct ChurnSchedule {
  std::vector<sim::FaultEvent> actions;  ///< sorted by time
  std::uint64_t raw_events = 0;  ///< crashes + leaves + rejoins that took
  std::uint64_t crashes = 0;
  std::uint64_t leaves = 0;      ///< graceful departures
  std::uint64_t rejoins = 0;
  std::uint64_t repairs = 0;     ///< Splice + LeaveComplete + JoinComplete
  std::uint64_t dropped_raw = 0;  ///< generated but invalid (e.g. already down)
};

/// Repair-cost model: one control message costs
/// fwd_overhead + control_bits / fwd_cpu_rate of simulated time (the same
/// app-layer price a forwarded packet pays).
struct ChurnCostModel {
  Time fwd_overhead = 250e-6;
  Rate fwd_cpu_rate = 200e6;
};

/// Resolve a seeded churn timeline against `mg`'s trees.  Hosts in
/// `protected_hosts` (the group sources) never churn; domain failures
/// draw from mg.network().attachment.  Deterministic: same inputs, same
/// schedule.
ChurnSchedule make_churn_schedule(const ChurnConfig& cfg,
                                  const overlay::MultiGroupNetwork& mg,
                                  const std::vector<std::size_t>& protected_hosts,
                                  const ChurnCostModel& cost, Time horizon);

/// Per-kernel replica of membership and tree state (see the header
/// comment).  reset() rebinds to the run's trees inside retained arenas;
/// apply() is the runtime FaultFn's workhorse and allocates nothing once
/// warm.
class ChurnState {
 public:
  ChurnState() = default;

  /// (Re)bind to the run's trees; pass the same mg on every kernel.
  /// Builds the rejoin index over mg's hosts and throws
  /// std::invalid_argument if a host is not a degree-1 leaf on a router.
  void reset(const overlay::MultiGroupNetwork& mg, const ChurnConfig& cfg);

  bool down(std::size_t host) const { return down_[host] != 0; }
  const overlay::ChurnTree& tree(int group) const {
    return trees_[static_cast<std::size_t>(group)];
  }
  /// True while a completed repair's settle window is still open at `now`.
  bool in_repair_window(Time now) const {
    return now <= repair_active_until_;
  }
  std::uint64_t applied() const { return applied_; }
  std::uint64_t reparented() const { return reparented_; }

  /// Apply one resolved action at its event time.  Pure function of the
  /// replica state — every kernel applying the same timeline holds the
  /// same replica.
  void apply(const sim::FaultEvent& ev, Time now);

 private:
  std::vector<overlay::ChurnTree> trees_;
  std::vector<std::uint8_t> down_;
  const overlay::MultiGroupNetwork* mg_ = nullptr;
  overlay::RttFn rtt_;  ///< leave(): root promotion
  overlay::RejoinIndex rejoin_;
  std::vector<Time> router_delay_;  ///< the joiner's delay per rejoin_ bucket
  std::size_t fanout_ = 8;
  Time settle_window_ = 0;
  Time repair_active_until_ = -kTimeInfinity;
  std::uint64_t applied_ = 0;
  std::uint64_t reparented_ = 0;
};

/// The alive cross-shard tree edges of a ChurnState replica, as a counted
/// multiset of their delays (member_delay(parent, child)).  Actions go
/// through apply(), which updates the multiset with only the edges the
/// action changes: the subject's parent and child edges, and its orphans'
/// new parent edges.
class CrossShardEdges {
 public:
  /// Index the alive cross-shard edges of `state`'s current trees.  All
  /// three referents must outlive this object.
  CrossShardEdges(ChurnState& state, const overlay::MultiGroupNetwork& mg,
                  const std::vector<std::uint32_t>& shard_of);

  /// state.apply(ev, ev.at), keeping the multiset current.
  void apply(const sim::FaultEvent& ev);

  /// Minimum delay over the alive cross-shard edges; kTimeInfinity when
  /// no edge crosses.
  Time min() const {
    return delays_.empty() ? kTimeInfinity : delays_.begin()->first;
  }

 private:
  void add(std::size_t parent, std::size_t child);
  void remove(std::size_t parent, std::size_t child);

  ChurnState& state_;
  const overlay::MultiGroupNetwork& mg_;
  const std::vector<std::uint32_t>& shard_of_;
  std::map<Time, std::size_t> delays_;  ///< delay -> alive edge count
  /// Per group, the subject's children before the action.
  std::vector<std::vector<std::size_t>> orphans_;
};

/// Replay `schedule` offline against `mg`'s trees and derive the
/// piecewise lookahead plan for a sharded run partitioned by `shard_of`:
/// one epoch per maximal interval with a constant cross-shard edge set,
/// each epoch's lookahead being fwd_overhead plus the minimum cross-shard
/// edge propagation alive during it (boundary instants count towards both
/// neighbouring epochs, so same-instant forward/repair ties stay safe).
/// `fallback_min_delay` prices epochs with no cross-shard edges (no post
/// can happen, any positive value is safe).  Returns an empty plan when
/// the minimum never changes — uniform lookahead already covers the run.
std::vector<sim::LookaheadEpoch> churn_lookahead_plan(
    const ChurnSchedule& schedule, const overlay::MultiGroupNetwork& mg,
    const ChurnConfig& cfg, const std::vector<std::uint32_t>& shard_of,
    Time fwd_overhead, Time fallback_min_delay);

}  // namespace emcast::experiments
