#pragma once
// Process-per-shard-group backend: the round loop of RoundsCore
// (sim/rounds_core.hpp) run by forked worker processes on one host.  This
// class adds only fork, the synchronisation the loop asks for, placed in
// shared memory, the parent's supervision and the result hooks.
//
// Topology.  run() maps one MAP_SHARED region (sim/transport.hpp), then
// forks P workers, each inheriting the fully built model through
// copy-on-write; worker w runs the contiguous shard block
// [w*S/P, (w+1)*S/P), exactly the block thread w would own on the
// threaded backend.  The region holds the key image, a util::SpinBarrier,
// one byte ring per ordered pair of workers and one ring from each worker
// to the parent.  The parent executes no model event; it only supervises.
//
// A round is RoundsCore's loop; the threaded backend's two barriers are
// the region's barrier, and the exchange step is
//
//   egress:  posts to another worker's shards landed in this process's
//            copy-on-write copy of the destination mailbox; each
//            non-empty (local source -> remote destination) mailbox
//            ships as one handoff frame into the ring to the
//            destination's owner;
//   barrier  -- every egress of the round is written;
//   ingest:  each handoff read from the incoming rings is injected into
//            this process's copy of its mailbox (ShardMailbox::inject),
//            stamps intact, so the next drain sorts it exactly as the
//            threaded backend would.
//
// Every wait of a worker (a barrier, a full ring) first moves bytes from
// its incoming rings into private buffers, so no cycle of full rings can
// stall.  Windows, drain order and seq stamps are all preserved, so the
// canonical traces, merged summaries, rounds and messages are
// byte-identical to Single and Sharded — the property the cross-engine
// conformance suite pins.
//
// Completion.  Once the rounds end, every worker serialises each shard's
// model results through the installed ShardResultWriter into result
// frames, sends a bye frame with its telemetry and _exit(0)s.  The parent
// collects the frames, reaps the workers and replays the blobs through
// the ShardResultReader in ascending shard order.  _exit — never a normal
// return from run()'s child branch — so a worker never runs the parent's
// static destructors or flushes inherited stdio.
//
// Failure semantics (what the robustness tests pin).  The parent fails a
// run in three cases:
//   - a worker dies without its bye frame (crash, SIGKILL): the message
//     names the worker and its wait status;
//   - a worker sends an error frame: its model exception's what() (the
//     exception TYPE cannot cross a process boundary — the one documented
//     difference from the threaded backend's rethrow);
//   - timeout_seconds pass with no barrier advance and no frame: the
//     message names the timeout.
// Failing means: kill every worker, reap them all, throw
// std::runtime_error.  Before the parent judges a worker's exit it reads
// every frame that worker wrote.  Workers have no deadline of their own:
// PR_SET_PDEATHSIG ends them when the parent dies.
//
// Lifecycle: the region and the child processes exist only inside run();
// a returned (or thrown) run leaves no mapping, fd or zombie behind,
// which the 100-reset leak test counts.  reset() is RoundsCore::reset.

#include <sys/types.h>

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/rounds_core.hpp"

namespace emcast::sim {

struct ProcessConfig : RoundsConfig {
  /// Worker processes; 0 = min(shards, hardware_concurrency).  Purely a
  /// throughput knob — results are identical for every value (same
  /// S-over-P contiguous blocks as the threaded backend's threads).
  std::size_t processes = 0;
  /// The run's one deadline: the parent fails the run once this long
  /// passes with no barrier advance and no frame from any worker.
  double timeout_seconds = 30.0;
};

/// Serialise shard `shard`'s model-side results (tracer state, summary
/// sketches, counters) into `blob` — runs IN THE WORKER at the end of a
/// run.  The blob format is the model's own (util/bytes.hpp writers).
using ShardResultWriter =
    std::function<void(std::size_t shard, std::vector<std::uint8_t>& blob)>;

/// Replay one worker-produced blob into the parent's model state — runs
/// IN THE PARENT after all workers completed, in ascending shard order.
using ShardResultReader = std::function<void(
    std::size_t shard, const std::uint8_t* data, std::size_t size)>;

class ProcessSimulator : public RoundsCore {
 public:
  explicit ProcessSimulator(const ProcessConfig& config);
  ~ProcessSimulator();

  std::size_t process_count() const { return processes_; }

  /// Install the result marshalling hooks (both may be empty: results are
  /// then simply not carried back — telemetry still is, via bye frames).
  void set_result_hooks(ShardResultWriter writer, ShardResultReader reader);

  /// Drain the mailboxes of every shard (the drain the threaded
  /// backend's round 0 performs, done once before fork() so that no
  /// forked copy of a mailbox delivers a setup-time post twice), fork the
  /// workers, run the rounds to `until` (events at exactly `until`
  /// execute), reap, and return the number of model events executed
  /// across all workers.  Single-shot per model build: the parent's copy
  /// of the model still holds the INITIAL events (it never executes), so
  /// reset() + a model rebuild precede the next run.  The message handler
  /// is captured by the workers at fork time, so install it before run().
  std::uint64_t run(Time until = kTimeInfinity);

 private:
  class Region;  // the run's shared mapping (in the .cpp)
  class Worker;  // a worker process's side of the rounds (in the .cpp)
  struct Child;  // the parent's record of one worker (in the .cpp)

  std::size_t owner_of(std::size_t shard) const;
  /// Child side; ends in _exit.
  [[noreturn]] void worker_main(std::size_t w, Region& region,
                                pid_t parent, Time until);
  /// Parent side: collect every worker's frames and exit; returns the
  /// model events the run executed.
  std::uint64_t supervise(std::vector<Child>& children, Region& region);

  std::size_t processes_ = 1;
  double timeout_seconds_ = 30.0;
  ShardResultWriter result_writer_;
  ShardResultReader result_reader_;
};

}  // namespace emcast::sim
