#pragma once
// Thread coordination for the sharded simulator: a sense-reversing spin
// barrier tuned for short (sub-window) rendezvous.
//
// The barrier spins briefly — window barriers fire thousands of times per
// simulated second, so parking on a futex would dominate — then falls
// back to yield so an oversubscribed box (or a 1-core CI container) makes
// progress instead of burning whole timeslices.

#include <atomic>
#include <cstddef>
#include <cstdint>

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
  void arrive_and_wait();

  std::size_t parties() const { return parties_; }

 private:
  const std::size_t parties_;
  std::atomic<std::size_t> arrived_{0};
  std::atomic<std::uint64_t> generation_{0};
};

}  // namespace emcast::util
