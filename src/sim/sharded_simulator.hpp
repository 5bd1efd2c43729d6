#pragma once
// The threaded rounds backend: the conservative-rounds protocol of
// RoundsCore (sim/rounds_core.hpp — shards, mailboxes, lookahead state
// and the per-round steps) driven by worker threads.  This class adds
// only the threads, the atomic min-reduction and the spin barriers:
//
//   drain:    each worker drains its shard block, then contributes the
//             block's minimum next-event key to a shared atomic
//             min-reduction (over the order-preserving integer time image)
//   barrier   -- all drains complete; the reduction and key image are final
//   window:   every worker reads the same reduced minimum T and runs its
//             shards' windows (RoundsCore::run_window)
//   barrier   -- all windows complete; mailboxes quiescent again
//
// Worker t owns the contiguous shard block RoundsCore::block_begin gives
// it; results are identical for every thread count.

#include <atomic>
#include <cstdint>
#include <exception>
#include <mutex>

#include "sim/rounds_core.hpp"
#include "util/barrier.hpp"

namespace emcast::sim {

struct ShardedConfig : RoundsConfig {
  /// Worker threads; 0 = min(shards, hardware_concurrency).  Purely a
  /// throughput knob — results are identical for every value.
  std::size_t threads = 0;
};

class ShardedSimulator : public RoundsCore {
 public:
  explicit ShardedSimulator(const ShardedConfig& config);
  ~ShardedSimulator();

  std::size_t thread_count() const { return threads_; }

  /// Advance every shard until all queues drain or the global clock
  /// passes `until` (events at exactly `until` are executed, matching
  /// Simulator::run).  Returns the number of events executed this call.
  /// A model exception on any worker is rethrown here after every worker
  /// has left the rounds.
  std::uint64_t run(Time until = kTimeInfinity);

 private:
  void worker_rounds(std::size_t t, Time until);
  void record_error() noexcept;

  std::size_t threads_ = 1;
  util::SpinBarrier barrier_;

  /// Double-buffered min-reduction over next-event time keys, indexed by
  /// round parity: while round r reduces into slot r&1, every thread
  /// resets slot (r+1)&1 — reads of a slot are separated from the next
  /// writes by two barrier edges.  A worker that caught a model exception
  /// votes kAbortTimeKey (below every real key) instead, so the abort
  /// decision is read at the same aligned point as the window.
  alignas(64) std::atomic<std::uint64_t> min_key_[2];
  std::mutex error_mutex_;
  std::exception_ptr first_error_;
};

}  // namespace emcast::sim
