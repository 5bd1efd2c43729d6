#pragma once
// Worker coordination for the rounds backends: a sense-reversing spin
// barrier tuned for short (sub-window) rendezvous.
//
// The barrier spins briefly — window barriers fire thousands of times per
// simulated second, so parking on a futex would dominate — then falls
// back to yield so an oversubscribed box (or a 1-core CI container) makes
// progress instead of burning whole timeslices.
//
// Its state is two lock-free atomics, so a barrier placed in a MAP_SHARED
// mapping before fork() synchronises worker processes exactly as it does
// threads (the process backend, sim/process_backend.hpp).

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>

namespace emcast::util {

class SpinBarrier {
 public:
  /// `parties` threads must call arrive_and_wait to release a generation.
  explicit SpinBarrier(std::size_t parties) : parties_(parties) {}

  SpinBarrier(const SpinBarrier&) = delete;
  SpinBarrier& operator=(const SpinBarrier&) = delete;

  /// Block (spin, then yield) until all parties have arrived.  The
  /// generation release is an acq_rel edge: every write made by any party
  /// before its arrive_and_wait is visible to every party after it.
  /// `idle`, when set, runs before each yield: a waiting worker can make
  /// progress that a late party depends on.
  void arrive_and_wait(const std::function<void()>& idle = {});

  std::size_t parties() const { return parties_; }

  /// Generations released so far; an observer that is not a party reads
  /// it to tell a live rendezvous from a stalled one.
  std::uint64_t generation() const {
    return generation_.load(std::memory_order_acquire);
  }

 private:
  const std::size_t parties_;
  std::atomic<std::size_t> arrived_{0};
  std::atomic<std::uint64_t> generation_{0};
};

static_assert(std::atomic<std::size_t>::is_always_lock_free &&
                  std::atomic<std::uint64_t>::is_always_lock_free,
              "a barrier in shared memory needs address-free atomics");

}  // namespace emcast::util
