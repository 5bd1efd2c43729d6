#include "sim/sharded_simulator.hpp"

#include <thread>

namespace emcast::sim {

ShardedSimulator::ShardedSimulator(const ShardedConfig& config)
    : RoundsCore(config),
      threads_(worker_count(config.threads)),
      barrier_(threads_),
      keys_(shard_count(), kInfTimeKey) {}

ShardedSimulator::~ShardedSimulator() = default;

std::uint64_t ShardedSimulator::run(Time until) {
  const std::uint64_t events_before = block_counts(0, shard_count()).events;
  first_error_ = nullptr;

  std::vector<std::thread> workers;
  workers.reserve(threads_ - 1);
  for (std::size_t t = 1; t < threads_; ++t) {
    workers.emplace_back(
        [this, t, until] { worker_rounds(t, threads_, keys_, *this, until); });
  }
  worker_rounds(0, threads_, keys_, *this, until);
  for (auto& w : workers) w.join();

  counts_ = block_counts(0, shard_count());
  if (first_error_) std::rethrow_exception(first_error_);
  return counts_.events - events_before;
}

void ShardedSimulator::record_error() noexcept {
  std::lock_guard lock(error_mutex_);
  if (!first_error_) first_error_ = std::current_exception();
}

}  // namespace emcast::sim
