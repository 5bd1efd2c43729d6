#pragma once
// Sharded parallel simulation: N shards — each a full single-threaded
// discrete-event kernel over its own calendar-queue pending set — advanced
// in lockstep rounds under conservative time-window synchronisation.
//
// The classic conservative-PDES argument (cf. UNISON-for-ns-3): if every
// cross-shard interaction takes at least `lookahead` of simulated time,
// then during the window [T, T + lookahead) — T the global minimum next
// event time — no shard can affect another *within* the window, so all
// shards may execute their window events concurrently with no rollback.
// Cross-shard handoffs are staged in per-(source, destination) SPSC
// mailboxes and drained at the window barrier, sorted into deterministic
// (deliver_at, source shard, seq) order before local scheduling.
//
// A round is two spin-barrier phases:
//
//   drain:    each shard merges its incoming mailboxes into its kernel,
//             then contributes its next-event time to a shared atomic
//             min-reduction (over the order-preserving integer time image)
//   barrier   -- all drains complete; the reduction is final
//   process:  every thread reads the same reduced minimum T, derives the
//             same window end W = min(T + lookahead, horizon), and runs
//             its shards' kernels over events strictly before W
//   barrier   -- all windows complete; mailboxes quiescent again
//
// Shards and worker threads are independent axes: S shards multiplex over
// T <= S workers in fixed contiguous blocks.  The schedule — windows,
// drain order, local event order — is a pure function of the model and
// the partition, so the same sharding produces byte-identical traces for
// ANY worker count, including T = 1.  That is the property the
// differential tests pin: single-threaded reference == 1 shard == K
// shards, for every thread count.
//
// Determinism vs. the unsharded Simulator holds at the model level: event
// *times* are computed identically (same float operands in the same
// order), so the set of (time, payload) tuples matches bit-for-bit;
// within-shard tie order at equal times follows local scheduling order,
// which model-level canonical trace ordering (sort by time image + stable
// payload key) makes irrelevant — see experiments/delivery_trace.hpp.

#include <atomic>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <vector>

#include "sim/shard.hpp"
#include "sim/window_policy.hpp"
#include "util/barrier.hpp"
#include "util/types.hpp"

namespace emcast::sim {

struct ShardedConfig {
  std::size_t shards = 2;
  /// Worker threads; 0 = min(shards, hardware_concurrency).  Purely a
  /// throughput knob — results are identical for every value.
  std::size_t threads = 0;
  /// Conservative lookahead: a strict lower bound on the simulated-time
  /// delay of any cross-shard interaction (derive it from the minimum
  /// cross-shard link latency).  Must be > 0.
  Time lookahead = 0;
  /// Per-(source, destination) mailbox ring capacity (messages staged in
  /// one window beyond this spill into a vector — correct but amortised).
  std::size_t mailbox_capacity = 4096;
  /// Pin worker t to core t (best-effort; Linux only).
  bool pin_threads = false;
  /// Optional per-shard-pair lookahead matrix, flattened row-major
  /// ([src * shards + dst]): a strict lower bound on the simulated-time
  /// delay of any cross-shard interaction from src into dst.  +infinity
  /// declares the ordered pair edge-free (no src->dst messages ever).
  /// Empty = the uniform scalar above bounds every pair.  See
  /// ShardedSimulator::set_lookahead_matrix for the full contract.
  std::vector<Time> lookahead_matrix;
};

class ShardedSimulator {
 public:
  explicit ShardedSimulator(const ShardedConfig& config);
  ~ShardedSimulator();
  ShardedSimulator(const ShardedSimulator&) = delete;
  ShardedSimulator& operator=(const ShardedSimulator&) = delete;

  std::size_t shard_count() const { return shards_.size(); }
  std::size_t thread_count() const { return threads_; }
  Time lookahead() const { return config_.lookahead; }
  Shard& shard(std::size_t i) { return *shards_[i]; }
  const Shard& shard(std::size_t i) const { return *shards_[i]; }

  /// Install the model's cross-shard message handler (required before
  /// run() whenever shard_count() > 1 and any post() can happen).
  void set_message_handler(ShardMsgHandler handler);

  /// Advance every shard until all queues drain or the global clock
  /// passes `until` (events at exactly `until` are executed, matching
  /// Simulator::run).  Returns the number of events executed this call.
  std::uint64_t run(Time until = kTimeInfinity);

  /// Rewind every shard for another simulation, keeping all arenas warm:
  /// per-shard kernels (reset_discarding — beyond-horizon leftovers are
  /// expected after a bounded run), mailbox rings/spill vectors, drain
  /// buffers.  Telemetry (rounds, events, messages) restarts at zero; the
  /// message handler and the shard/thread topology are retained —
  /// shard count, worker count and mailbox capacity are construction-time
  /// choices.  `lookahead` <= 0 keeps the current value; a positive value
  /// re-derives the conservative window width for the next run (it must
  /// be finite, or std::invalid_argument).  Only callable between runs
  /// (run() is synchronous; a reset issued from inside a model event
  /// lands on a mid-run kernel and throws std::logic_error).  Never
  /// allocates.
  void reset(Time lookahead = 0.0);

  /// Install a piecewise-constant lookahead plan for subsequent runs —
  /// the epoch-based remap used by churn experiments whose cross-shard
  /// edge set changes mid-run (tree repairs add and remove edges, so the
  /// minimum cross-shard delay is a step function of simulated time).
  ///
  /// Contract: during epoch e (from plan[e].from until plan[e+1].from),
  /// every cross-shard post() issued at time u has deliver_at >=
  /// u + plan[e].lookahead; before plan.front().from the construction
  /// lookahead applies.  The window scheduler then derives each window as
  ///
  ///   w = min(tmin + L(tmin),  min over epoch starts b in (tmin, w) of
  ///                            b + L(b))
  ///
  /// — a pure function of (tmin, plan), so the remap happens at a window
  /// boundary, identically on every worker thread, and determinism across
  /// shard/thread counts is untouched.  Safety: any post at u < w
  /// satisfies deliver_at >= u + L(u) >= w by the clamping above.
  ///
  /// Epochs must be sorted by strictly increasing `from`, with every
  /// lookahead finite and > 0.  Each shard's post()-assert floor becomes
  /// min(construction lookahead, min over plan) while the plan is
  /// installed.  An empty plan restores uniform-lookahead behaviour.
  /// reset() with an explicit (positive) lookahead — the rebind seam the
  /// Engine's remap overload drives — clears the plan, since it was
  /// derived for the old routing; a keep-current reset(0) retains it, so
  /// warm re-runs of the same schedule re-install nothing.
  void set_lookahead_plan(std::vector<LookaheadEpoch> plan);
  const std::vector<LookaheadEpoch>& lookahead_plan() const {
    return policy_.plan();
  }

  /// Install a per-shard-pair lookahead matrix, flattened row-major
  /// ([src * shards + dst]; shards² entries): matrix[src][dst] is a strict
  /// lower bound on (deliver_at − post time) for every src→dst post, with
  /// +infinity declaring the ordered pair edge-free (the scheduler then
  /// derives no bound from it, and any src→dst post is a contract
  /// violation).  The window scheduler widens each shard's window from
  /// the uniform  w = tmin + L  to the per-shard
  ///
  ///   w_i = min over src j != i with a finite next-event time t_j of
  ///         pair_window_end(t_j, j, i)
  ///
  /// — still conservative (any post from j at u >= t_j arrives at
  /// >= u + L_eff[j][i] >= w_i; a drained shard executes nothing this
  /// round, so it posts nothing and contributes no bound), still a pure
  /// function of the shard time image + plan + matrix, so byte-identical
  /// determinism across worker-thread counts is untouched.  Composition
  /// with an installed lookahead plan is by min: the effective src→dst
  /// bound at time u is min(matrix[src][dst], L_plan(u)) — always safe,
  /// because the plan's epoch scalar is itself a valid global bound even
  /// where churn has invalidated the static matrix.  Without a plan the
  /// matrix entry applies alone (that is the whole widening).
  ///
  /// Off-diagonal entries must be > 0 (finite or +infinity); diagonal
  /// entries are ignored.  An empty matrix restores the uniform scalar.
  /// reset() with an explicit (positive) lookahead — the rebind seam —
  /// clears the matrix along with the plan: both were derived for the
  /// previous routing, and the explicit scalar rebuilds the uniform
  /// bound (equivalent to a uniform matrix of that scalar).  A
  /// keep-current reset(0) retains it.
  void set_lookahead_matrix(std::vector<Time> matrix);
  const std::vector<Time>& lookahead_matrix() const {
    return policy_.matrix();
  }

  // -- telemetry ----------------------------------------------------------
  std::uint64_t rounds() const { return rounds_; }
  std::uint64_t events_executed() const;
  std::uint64_t messages_posted() const;
  std::uint64_t messages_spilled() const;

 private:
  void worker(std::size_t t, Time until);
  void worker_rounds(std::size_t t, Time until);
  void record_error() noexcept;
  void apply_shard_floor();

  /// One cache line per shard: its next-event time key, published by the
  /// owning worker during the drain phase and read by every worker at the
  /// window decision.  A SINGLE buffer suffices (unlike min_key_'s round
  /// parity): round r's writes and reads are separated by the drain
  /// barrier, and the next writes (round r+1's drain) sit behind the
  /// process barrier — two barrier edges bracket every read.
  struct alignas(64) PaddedKey {
    std::atomic<std::uint64_t> key{0};
  };

  ShardedConfig config_;
  /// The window math (scalar + epoch plan + closed pair matrix) — shared
  /// with the process backend, so both derive identical windows from the
  /// same published time keys.  Immutable while run() is in flight;
  /// workers only read it.
  WindowPolicy policy_;
  std::size_t threads_ = 1;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::unique_ptr<PaddedKey[]> shard_key_;  ///< per-shard time image
  ShardMsgHandler handler_;
  util::SpinBarrier barrier_;

  /// Double-buffered min-reduction over next-event time keys, indexed by
  /// round parity: while round r reduces into slot r&1, every thread
  /// resets slot (r+1)&1 — reads of a slot are separated from the next
  /// writes by two barrier edges.  A worker that caught a model exception
  /// votes the reserved kAbortKey (below every real key) instead, so the
  /// abort decision is read at the same aligned point as the window.
  alignas(64) std::atomic<std::uint64_t> min_key_[2];
  std::mutex error_mutex_;
  std::exception_ptr first_error_;
  std::uint64_t rounds_ = 0;
  std::uint64_t events_before_run_ = 0;
};

}  // namespace emcast::sim
