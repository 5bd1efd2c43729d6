#pragma once
// The threaded rounds backend: the round loop of RoundsCore
// (sim/rounds_core.hpp — shards, mailboxes, lookahead state and the loop
// itself) run by worker threads.  This class adds only the threads and
// the round loop's synchronisation: the key image and one spin barrier,
// which is both the barrier and the exchange step (the mailboxes are
// shared memory already), and the first model exception, rethrown by
// run().
//
// Worker t owns the contiguous shard block RoundsCore::block_begin gives
// it; results are identical for every thread count.

#include <cstdint>
#include <exception>
#include <mutex>
#include <vector>

#include "sim/rounds_core.hpp"
#include "util/barrier.hpp"

namespace emcast::sim {

struct ShardedConfig : RoundsConfig {
  /// Worker threads; 0 = min(shards, hardware_concurrency).  Purely a
  /// throughput knob — results are identical for every value.
  std::size_t threads = 0;
};

class ShardedSimulator : public RoundsCore, private RoundsCore::RoundSync {
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
  void barrier() override { barrier_.arrive_and_wait(); }
  void exchange() override { barrier_.arrive_and_wait(); }
  void record_error() noexcept override;

  std::size_t threads_ = 1;
  util::SpinBarrier barrier_;
  std::vector<std::uint64_t> keys_;  ///< the key image, one per shard
  std::mutex error_mutex_;
  std::exception_ptr first_error_;
};

}  // namespace emcast::sim
