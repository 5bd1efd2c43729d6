#include "sim/sharded_simulator.hpp"

#include <algorithm>
#include <thread>
#include <vector>

namespace emcast::sim {

namespace {

void fetch_min(std::atomic<std::uint64_t>& slot, std::uint64_t value) {
  std::uint64_t cur = slot.load(std::memory_order_relaxed);
  while (value < cur &&
         !slot.compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
  }
}

}  // namespace

ShardedSimulator::ShardedSimulator(const ShardedConfig& config)
    : RoundsCore(config),
      threads_(worker_count(config.threads)),
      barrier_(threads_) {}

ShardedSimulator::~ShardedSimulator() = default;

std::uint64_t ShardedSimulator::run(Time until) {
  const std::uint64_t events_before = block_counts(0, shard_count()).events;
  first_error_ = nullptr;
  min_key_[0].store(kInfTimeKey, std::memory_order_relaxed);
  min_key_[1].store(kInfTimeKey, std::memory_order_relaxed);

  std::vector<std::thread> workers;
  workers.reserve(threads_ - 1);
  for (std::size_t t = 1; t < threads_; ++t) {
    workers.emplace_back([this, t, until] { worker_rounds(t, until); });
  }
  worker_rounds(0, until);
  for (auto& w : workers) w.join();

  counts_ = block_counts(0, shard_count());
  if (first_error_) std::rethrow_exception(first_error_);
  return counts_.events - events_before;
}

void ShardedSimulator::record_error() noexcept {
  std::lock_guard lock(error_mutex_);
  if (!first_error_) first_error_ = std::current_exception();
}

void ShardedSimulator::worker_rounds(std::size_t t, Time until) {
  const std::size_t begin = block_begin(t, threads_);
  const std::size_t end = block_begin(t + 1, threads_);

  // A model exception anywhere must not strand the other workers at a
  // barrier.  The failed thread keeps walking the barrier protocol but
  // stops doing work and votes kAbortTimeKey into every subsequent
  // round's reduction; all threads see the abort at the aligned
  // window-decision point — never split across barrier indices — and exit
  // together.  (An asynchronous abort *flag* deadlocks here: a thread
  // parked at the mid barrier can observe a flag set by a thread already
  // past its window phase, leave early, and strand the others one barrier
  // later.)
  bool failed = false;

  for (std::uint64_t round = 0;; ++round) {
    // ---- drain phase: merge mailboxes, contribute to the reduction.
    std::uint64_t local_min = kAbortTimeKey;
    if (!failed) {
      try {
        local_min = kInfTimeKey;
        for (std::size_t s = begin; s < end; ++s) {
          local_min = std::min(local_min, drain(s));
        }
      } catch (...) {
        record_error();
        failed = true;
        local_min = kAbortTimeKey;
      }
    }
    fetch_min(min_key_[round & 1], local_min);
    // Reset the other parity slot for round + 1: its round-(r-1) readers
    // are two barrier edges behind us, its round-(r+1) writers one ahead.
    min_key_[(round + 1) & 1].store(kInfTimeKey, std::memory_order_relaxed);
    barrier_.arrive_and_wait();

    // ---- window decision: every thread derives the identical verdict.
    const std::uint64_t kmin =
        min_key_[round & 1].load(std::memory_order_relaxed);
    if (kmin == kAbortTimeKey) return;  // someone failed: exit, aligned
    if (finished(kmin, until)) break;  // beyond-horizon events stay

    // ---- window phase: run the window on this worker's shard block.
    if (!failed) {
      try {
        for (std::size_t s = begin; s < end; ++s) {
          run_window(s, key_time(kmin), until);
        }
      } catch (...) {
        record_error();
        failed = true;  // voted into round r+1's reduction above
      }
    }
    if (t == 0) ++rounds_;
    barrier_.arrive_and_wait();
  }

  for (std::size_t s = begin; s < end; ++s) finish(s, until);
}

}  // namespace emcast::sim
