#pragma once
// Process-per-shard-group backend: the conservative-rounds protocol of
// RoundsCore executed by OS processes instead of threads, with the
// threaded backend's atomic min-reduction and spin barriers (and the
// mailboxes of pairs that straddle two processes) replaced by a
// hub-and-spoke message protocol over a transport Channel
// (sim/transport.hpp) carrying versioned wire frames (sim/wire_codec.hpp).
// This class adds only fork, the hub relay, the wire frames and the
// result hooks.
//
// Topology.  The constructing (parent) process is a PURE HUB: it owns no
// shards and executes no model events.  run() forks P workers — each
// inheriting the fully built model via copy-on-write — and worker w runs
// the contiguous shard block [w*S/P, (w+1)*S/P), exactly the block thread
// w would own on the in-process backend.
//
// One round, hub protocol (the steps of RoundsCore, which owns the
// shards, mailboxes and lookahead state; see sim/rounds_core.hpp):
//
//   1. each worker drains its shards' incoming mailboxes (native posts
//      from same-process shards + injected cross-process handoffs, merged
//      into the SAME (deliver_at, source shard, seq) sort), then sends
//      Keys{round, per-shard next-event time keys};
//   2. the hub assembles the full key image, takes the min, and
//      broadcasts Window{verdict, keys}: kAbort if any key is the abort
//      vote, kDone if the rounds are finished, else kRun;
//   3. every worker loads the broadcast image and runs each of its
//      shards' windows through RoundsCore::run_window — the same code
//      the threaded backend runs, so the windows are the same;
//   4. cross-PROCESS posts were staged in this process's copy-on-write
//      copies of the destinations' mailboxes; the worker drains those
//      copies into Handoff frames (seq stamps intact), sends them plus
//      RoundDone; the hub forwards each Handoff to the destination's
//      owner and, once every RoundDone is in, broadcasts DrainGo.
//
// Same-process cross-shard posts go through the real destination mailbox
// exactly as on the in-process backend; only pairs that straddle a
// process boundary ride the wire.  Because windows, drain order and seq
// stamps are all preserved, the canonical traces and merged summaries are
// byte-identical to Single and Sharded — the property the cross-engine
// conformance suite pins.
//
// Completion.  On kDone every worker advances its shards' clocks to the
// horizon (the no-events epilogue), serialises each shard's model results
// through the installed ShardResultWriter into Result frames, sends
// Bye{telemetry} and _exit(0)s; the hub reaps, replays the blobs through
// the ShardResultReader in ascending shard order, and returns.  _exit —
// never a normal return from run()'s child branch — so a worker never
// runs the parent's static destructors or flushes inherited stdio.
//
// Failure semantics (what the robustness tests pin):
//   - a model exception in a worker sends Error{what()} and votes the
//     abort key in its next Keys frame; the hub broadcasts kAbort and
//     run() throws std::runtime_error carrying the worker's message (the
//     original exception TYPE cannot cross a process boundary — the one
//     documented difference from the in-process backend's rethrow);
//   - a worker that DIES mid-protocol (crash, SIGKILL) is detected by the
//     hub's waitpid probe while blocked on its channel: run() kills the
//     remaining workers, reaps everything, and throws std::runtime_error
//     with the wait-status diagnostic — a clean abort, never a hang
//     (every blocking channel operation also carries timeout_seconds);
//   - a worker whose hub vanishes sees getppid() change and exits.
//
// Lifecycle: channels and child processes exist only inside run(); a
// returned (or thrown) run leaves no fd, mapping or zombie behind, which
// the 100-reset leak test counts.  reset() is RoundsCore::reset.

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/rounds_core.hpp"
#include "sim/transport.hpp"

namespace emcast::sim {

struct ProcessConfig : RoundsConfig {
  /// Worker processes; 0 = min(shards, hardware_concurrency).  Purely a
  /// throughput knob — results are identical for every value (same
  /// S-over-P contiguous blocks as the in-process backend's threads).
  std::size_t processes = 0;
  /// Shared-memory rings or stream sockets between hub and workers.
  TransportKind transport = TransportKind::Shm;
  /// Deadline for every blocking channel operation; a protocol stall
  /// (peer wedged, not dead) surfaces as a runtime_error after this long.
  double timeout_seconds = 30.0;
};

/// Serialise shard `shard`'s model-side results (tracer state, summary
/// sketches, counters) into `blob` — runs IN THE WORKER at the end of a
/// run.  The blob format is the model's own (util/bytes.hpp writers).
using ShardResultWriter =
    std::function<void(std::size_t shard, std::vector<std::uint8_t>& blob)>;

/// Replay one worker-produced blob into the parent's model state — runs
/// IN THE HUB after all workers completed, in ascending shard order.
using ShardResultReader = std::function<void(
    std::size_t shard, const std::uint8_t* data, std::size_t size)>;

class ProcessSimulator : public RoundsCore {
 public:
  explicit ProcessSimulator(const ProcessConfig& config);
  ~ProcessSimulator();

  std::size_t process_count() const { return processes_; }

  /// Install the result marshalling hooks (both may be empty: results are
  /// then simply not carried back — telemetry still is, via Bye frames).
  void set_result_hooks(ShardResultWriter writer, ShardResultReader reader);

  /// Fork the workers, run the round protocol to `until` (events at
  /// exactly `until` execute), reap, and return the number of model
  /// events executed across all workers.  Single-shot per model build:
  /// the hub's copy of the model still holds the INITIAL events (it never
  /// executes), so reset() + a model rebuild precede the next run.  The
  /// message handler is captured by the workers at fork time, so install
  /// it before run().
  std::uint64_t run(Time until = kTimeInfinity);

 private:
  struct WorkerProc;  // pid + channel + reap bookkeeping (in the .cpp)

  /// Collect every child, bounded: WNOHANG-poll up to `timeout` seconds,
  /// then SIGKILL and wait for real.  `kill_first` short-circuits
  /// straight to SIGKILL (the error-unwind path).
  static void reap_all(std::vector<WorkerProc>& workers, bool kill_first,
                       double timeout);

  std::size_t owner_of(std::size_t shard) const;

  /// Child-side round loop; never returns (ends in _exit).
  [[noreturn]] void worker_main(std::size_t w, Channel& ch, Time until);
  /// Hub-side protocol; returns aggregate events executed.
  std::uint64_t hub_main(std::vector<WorkerProc>& workers, Time until);

  std::size_t processes_ = 1;
  TransportKind transport_ = TransportKind::Shm;
  double timeout_seconds_ = 30.0;
  ShardResultWriter result_writer_;
  ShardResultReader result_reader_;
};

}  // namespace emcast::sim
