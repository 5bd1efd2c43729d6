#include "util/barrier.hpp"

#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace emcast::util {

namespace {

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  _mm_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#endif
}

/// Spin budget before falling back to yield.  Big enough to cover the
/// skew of balanced shards finishing a window, small enough that an
/// oversubscribed box degrades to cooperative scheduling quickly.
constexpr int kSpinIterations = 4096;

}  // namespace

void SpinBarrier::arrive_and_wait(const std::function<void()>& idle) {
  const std::uint64_t gen = generation_.load(std::memory_order_acquire);
  if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 == parties_) {
    arrived_.store(0, std::memory_order_relaxed);
    generation_.fetch_add(1, std::memory_order_acq_rel);
    return;
  }
  int spins = 0;
  while (generation_.load(std::memory_order_acquire) == gen) {
    if (++spins < kSpinIterations) {
      cpu_relax();
    } else {
      if (idle) idle();
      std::this_thread::yield();
    }
  }
}

}  // namespace emcast::util
