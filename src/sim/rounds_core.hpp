#pragma once
// The conservative-rounds core: everything the two rounds backends share.
// ShardedSimulator runs the rounds on worker threads, ProcessSimulator on
// forked worker processes; both derive from RoundsCore, which owns the
// shards, their mailbox graph, the lookahead state and the round loop.
// One piece of code therefore computes every window on both backends,
// and the same partition gives the same rounds on both.
//
// The classic conservative-PDES argument (cf. UNISON-for-ns-3): if every
// cross-shard interaction takes at least `lookahead` of simulated time,
// then during the window [T, T + lookahead) — T the global minimum next
// event time — no shard can affect another *within* the window, so all
// shards may execute their window events concurrently with no rollback.
// Cross-shard handoffs are staged in per-(source, destination) mailboxes
// and drained between windows, sorted into deterministic
// (deliver_at, source shard, seq) order before local scheduling.
//
// The round loop (worker_rounds) exists once, here; a backend supplies
// only the synchronisation between its steps (RoundSync) and the key
// image, one next-event time key per shard.  Each worker, each round:
//
//   drain:    merge its shards' incoming mailboxes into their kernels and
//             write each shard's next-event time key into the key image
//             (a failed worker writes the abort vote instead)
//   barrier   -- every drain complete, the key image final
//   decide:   kmin = the minimum over the key image; stop on the abort
//             vote or once finished(kmin, until)
//   window:   run_window derives each shard's window end from the key
//             image and the lookahead state and runs the kernel over the
//             events strictly before it
//   exchange  -- every window complete, every post in its destination's
//             mailbox, the key image free for the next round
//
// and, once the rounds end, every kernel clock advances to the horizon.
// Threads implement both synchronisation steps as one spin barrier over
// shared mailboxes; processes implement the exchange as egress, barrier,
// ingest over shared-memory rings.

// Shards and workers are independent axes: S shards multiplex over
// W <= S workers (threads or processes) in fixed contiguous blocks
// (block_begin).  The schedule — windows, drain order, local event order
// — is a pure function of the model and the partition, so the same
// sharding produces byte-identical traces for ANY worker count on either
// backend, including W = 1.
//
// Determinism vs. the unsharded Simulator holds at the model level: event
// *times* are computed identically (same float operands in the same
// order), so a model whose event times are tie-free across hosts yields
// the same canonical trace on every engine (see docs/engine.md).  Events
// of different hosts that share one instant may fire in a different
// order on a shard than on the single kernel, since a cross-shard
// arrival is drain-scheduled; a decision that depends on that order
// changes the trace.

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "sim/pending_entry.hpp"
#include "sim/shard.hpp"
#include "util/types.hpp"

namespace emcast::sim {

/// One epoch of a piecewise-constant lookahead plan (see
/// RoundsCore::set_lookahead_plan): from simulated time `from` onwards —
/// until the next epoch — every cross-shard interaction takes at least
/// `lookahead` of simulated time.
struct LookaheadEpoch {
  Time from = 0;
  Time lookahead = 0;

  friend bool operator==(const LookaheadEpoch& a, const LookaheadEpoch& b) {
    return a.from == b.from && a.lookahead == b.lookahead;
  }
};

/// All pending times are finite (push rejects non-finite), so the key of
/// +infinity is a safe "empty" sentinel in the key image.
inline const std::uint64_t kInfTimeKey = time_key(kTimeInfinity);

/// Abort vote: sorts below every real time key in the key image (keys of
/// finite times are never 0 — non-negative times set the sign bit and the
/// all-ones pattern that complements to 0 is a NaN, which push rejects).
/// A failed worker writes this instead of its shards' next-event times;
/// every worker then observes the abort at the same aligned decision point
/// it reads the window from.
inline constexpr std::uint64_t kAbortTimeKey = 0;

/// The configuration both rounds backends share.
struct RoundsConfig {
  std::size_t shards = 2;
  /// Conservative lookahead: a strict lower bound on the simulated-time
  /// delay of any cross-shard interaction (derive it from the minimum
  /// cross-shard link latency).  Must be finite and > 0.
  Time lookahead = 0;
  /// Per-(source, destination) mailbox ring capacity (messages staged in
  /// one window beyond this spill into a vector — correct but amortised).
  std::size_t mailbox_capacity = 4096;
  /// Optional per-shard-pair lookahead matrix, flattened row-major
  /// ([src * shards + dst]); empty = the uniform scalar above bounds
  /// every pair.  See RoundsCore::set_lookahead_matrix for the contract.
  std::vector<Time> lookahead_matrix;
};

/// Model events executed and cross-shard messages posted and spilled.
struct RoundsCounts {
  std::uint64_t events = 0;
  std::uint64_t posted = 0;
  std::uint64_t spilled = 0;
};

class RoundsCore {
 public:
  RoundsCore(const RoundsCore&) = delete;
  RoundsCore& operator=(const RoundsCore&) = delete;

  std::size_t shard_count() const { return shards_.size(); }
  Time lookahead() const { return scalar_; }
  Shard& shard(std::size_t i) { return *shards_[i]; }
  const Shard& shard(std::size_t i) const { return *shards_[i]; }

  /// Install the model's cross-shard message handler (required before
  /// run() whenever shard_count() > 1 and any post() can happen).  The
  /// process backend's workers capture it at fork time.
  void set_message_handler(ShardMsgHandler handler);

  /// Rewind every shard for another simulation, keeping all arenas warm:
  /// per-shard kernels (reset_discarding — beyond-horizon leftovers are
  /// expected after a bounded run), mailbox rings/spill vectors, drain
  /// buffers.  Telemetry (rounds, events, messages) restarts at zero; the
  /// message handler and the shard/worker topology are retained — shard
  /// count, worker count and mailbox capacity are construction-time
  /// choices.  `lookahead` <= 0 keeps the current value; a positive value
  /// re-derives the conservative window width for the next run (it must
  /// be finite, or std::invalid_argument) and clears the installed plan
  /// and matrix, which were derived for the previous routing (the
  /// explicit scalar rebuilds the uniform bound).  A keep-current
  /// reset(0) retains both, so warm re-runs of the same schedule
  /// re-install nothing.  Only callable between runs (a reset issued
  /// from inside a model event lands on a mid-run kernel and throws
  /// std::logic_error).  Never allocates.
  void reset(Time lookahead = 0.0);

  /// Install a piecewise-constant lookahead plan for subsequent runs —
  /// the epoch-based remap used by churn experiments whose cross-shard
  /// edge set changes mid-run (tree repairs add and remove edges, so the
  /// minimum cross-shard delay is a step function of simulated time).
  ///
  /// Contract: during epoch e (from plan[e].from until plan[e+1].from),
  /// every cross-shard post() issued at time u has deliver_at >=
  /// u + plan[e].lookahead; before plan.front().from the scalar
  /// lookahead applies.  The window step then derives each window as
  ///
  ///   w = min(tmin + L(tmin),  min over epoch starts b in (tmin, w) of
  ///                            b + L(b))
  ///
  /// — a pure function of (tmin, plan), so the remap happens at a window
  /// boundary, identically on every worker, and determinism across
  /// shard/worker counts is untouched.  Safety: any post at u < w
  /// satisfies deliver_at >= u + L(u) >= w by the clamping above.
  ///
  /// Epochs must be sorted by strictly increasing finite `from`, with
  /// every lookahead finite and > 0 (std::invalid_argument otherwise).
  /// Each shard's post()-assert floor becomes min(scalar, min over plan)
  /// while the plan is installed.  An empty plan restores uniform
  /// behaviour.  A plan and a pair matrix are never in force together:
  /// installing a non-empty plan while a matrix is installed throws
  /// std::logic_error.
  void set_lookahead_plan(std::vector<LookaheadEpoch> plan);
  const std::vector<LookaheadEpoch>& lookahead_plan() const { return plan_; }

  /// Install a per-shard-pair lookahead matrix, flattened row-major
  /// ([src * shards + dst]; shards² entries): matrix[src][dst] is a strict
  /// lower bound on (deliver_at − post time) for every src→dst post, with
  /// +infinity declaring the ordered pair edge-free (any src→dst post is
  /// then a contract violation).  A matrix of another size or with an
  /// off-diagonal entry that is not > 0 throws std::invalid_argument;
  /// diagonal entries are ignored.
  ///
  /// The stored matrix is the min-plus TRANSITIVE CLOSURE D of the input,
  /// including the diagonal (minimum feedback-cycle cost): the caller's
  /// entries bound DIRECT posts only, but a message can reach dst through
  /// an intermediary after just L[src][k] + L[k][dst], and a shard's own
  /// executions can reflect off a neighbour and return.  The window step
  /// widens each shard's window from the uniform  w = tmin + L  to
  ///
  ///   w_i = min over shards j with a finite next-event time t_j of
  ///         t_j + D[j][i]
  ///
  /// — still conservative (any causal chain from j at u >= t_j reaches i
  /// at >= t_j + D[j][i] >= w_i; a drained shard executes nothing this
  /// round, so it posts nothing and contributes no bound), still a pure
  /// function of the key image, so determinism across worker counts is
  /// untouched.  Each shard's per-destination post-assert floor becomes
  /// its row of D.  An empty matrix restores the uniform scalar.
  /// Installing a non-empty matrix while a plan is installed throws
  /// std::logic_error: the static matrix is not valid under the churn
  /// the plan describes.
  void set_lookahead_matrix(std::vector<Time> matrix);
  const std::vector<Time>& lookahead_matrix() const { return matrix_; }

  // -- telemetry of the runs since the last reset -------------------------
  std::uint64_t rounds() const { return rounds_; }
  std::uint64_t events_executed() const { return counts_.events; }
  std::uint64_t messages_posted() const { return counts_.posted; }
  std::uint64_t messages_spilled() const { return counts_.spilled; }

 protected:
  /// Builds the shards and wires the mailbox graph; installs
  /// config.lookahead_matrix when it is non-empty.  std::invalid_argument
  /// on a lookahead that is not finite and > 0.
  explicit RoundsCore(const RoundsConfig& config);
  ~RoundsCore();

  /// Workers for a requested count: 0 means hardware_concurrency, and
  /// never more workers than shards or fewer than one.
  std::size_t worker_count(std::size_t requested) const;

  /// First shard of worker `w`'s block when `workers` workers split the
  /// shards into fixed contiguous blocks; block_begin(w + 1, workers) is
  /// the end of the block.
  std::size_t block_begin(std::size_t w, std::size_t workers) const {
    return w * shards_.size() / workers;
  }

  /// The synchronisation a backend gives one worker's round loop.
  class RoundSync {
   public:
    /// Return once every worker has arrived.
    virtual void barrier() = 0;
    /// End the round's windows: on return, every message any worker
    /// posted in them sits in its destination's mailbox, and no worker
    /// still reads the key image.
    virtual void exchange() = 0;
    /// Keep the model exception in flight; called from a catch block.
    virtual void record_error() noexcept = 0;

   protected:
    ~RoundSync() = default;
  };

  /// Worker `w` of `workers` runs its shard block's rounds to `until` (see
  /// the header comment).  `keys` is the key image every worker reads, one
  /// slot per shard; the worker writes only its own block's slots.  A
  /// model exception is handed to sync.record_error() and turns into the
  /// abort vote.  Returns false when the rounds ended on an abort vote;
  /// true when they reached the horizon, with the block's clocks advanced
  /// to it.  Worker 0 counts the rounds.
  bool worker_rounds(std::size_t w, std::size_t workers,
                     std::span<std::uint64_t> keys, RoundSync& sync,
                     Time until);

  /// Drain shard s's mailboxes into its kernel and return its next-event
  /// time key.  Runs the model's message handler, so it throws what the
  /// model throws.
  std::uint64_t drain(std::size_t s);

  /// The (src -> dst) mailbox, src != dst.
  ShardMailbox& mailbox(std::size_t src, std::size_t dst) {
    return *shards_[dst]->incoming_[src];
  }

  /// Counts of the shard block [begin, end): events its kernels executed
  /// and messages its shards posted, read from the producer's copy of
  /// each mailbox (producer ownership partitions the pairs, so block
  /// counts never overlap).
  RoundsCounts block_counts(std::size_t begin, std::size_t end) const;

  /// Telemetry: rounds_ counted by worker 0's round loop (on processes
  /// the worker reports it back), counts_ kept by the backend when a run
  /// ends (block_counts over every shard on threads, the sum of the
  /// workers' reports on processes).  reset() zeroes both.
  std::uint64_t rounds_ = 0;
  RoundsCounts counts_;

 private:
  /// True when the rounds are over: every shard drained (kmin is the
  /// empty sentinel) or the minimum next-event time is past the horizon.
  static bool finished(std::uint64_t kmin, Time until) {
    return kmin == kInfTimeKey || key_time(kmin) > until;
  }

  /// Run shard s's window for the round whose minimum next-event time is
  /// tmin: derive the window end from the key image and the lookahead
  /// state, floor it just past tmin (arrivals from any source land
  /// strictly after tmin, so events at <= tmin are always safe and the
  /// global-min shard always advances), clamp it one ulp past `until`
  /// (events at exactly `until` execute, Simulator::run parity), then
  /// execute the kernel's events strictly before it.  Throws what the
  /// model throws.
  void run_window(std::size_t s, std::span<const std::uint64_t> keys,
                  Time tmin, Time until);

  /// Uniform window end for the round anchored at tmin: tmin + L(tmin),
  /// clamped at every epoch boundary b inside the window to b + L(b).
  Time window_end(Time tmin) const;
  /// Re-derive every shard's post-assert floors from the lookahead state.
  void apply_floors();

  std::vector<std::unique_ptr<Shard>> shards_;
  ShardMsgHandler handler_;
  Time scalar_ = 0;
  std::vector<LookaheadEpoch> plan_;  ///< empty = uniform scalar
  std::vector<Time> matrix_;          ///< closed; empty = uniform scalar
};

}  // namespace emcast::sim
