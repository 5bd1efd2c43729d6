#pragma once
// Bounded single-producer/single-consumer ring buffer for cross-shard
// mailboxes.  One thread calls try_push, one (other) thread calls try_pop;
// no locks, no allocation after construction.  The indices are monotone
// 64-bit counters (masked on access), so full/empty never ambiguate and
// the ring never wraps into ABA territory.
//
// Cache behaviour: producer and consumer indices live on separate cache
// lines, and each side keeps a local cache of the opposing index so the
// hot path touches the shared line only when the cached view says the
// ring might be full/empty.
//
// T must be trivially copyable: elements are published by value and the
// release store on the index is the only synchronisation.

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>

namespace emcast::util {

template <typename T>
class SpscRing {
  static_assert(std::is_trivially_copyable_v<T>,
                "SpscRing: elements are published by memcpy semantics");

 public:
  /// Capacity is rounded up to a power of two; 0 defers to reset_capacity.
  explicit SpscRing(std::size_t capacity = 0) {
    if (capacity != 0) reset_capacity(capacity);
  }

  SpscRing(const SpscRing&) = delete;
  SpscRing& operator=(const SpscRing&) = delete;

  /// (Re)size the buffer.  NOT thread-safe: callers must guarantee no
  /// concurrent push/pop (e.g. call before the worker threads start).
  void reset_capacity(std::size_t capacity) {
    std::size_t cap = 1;
    while (cap < capacity) cap <<= 1;
    buffer_ = std::make_unique<T[]>(cap);
    mask_ = cap - 1;
    head_.store(0, std::memory_order_relaxed);
    tail_.store(0, std::memory_order_relaxed);
    cached_head_ = 0;
    cached_tail_ = 0;
  }

  std::size_t capacity() const { return mask_ + 1; }

  /// Rewind to empty WITHOUT reallocating the buffer — the warm-reuse
  /// path.  NOT thread-safe: like reset_capacity, callers must guarantee
  /// both sides are quiescent (e.g. between simulation runs, after the
  /// worker threads joined).
  void rewind() {
    head_.store(0, std::memory_order_relaxed);
    tail_.store(0, std::memory_order_relaxed);
    cached_head_ = 0;
    cached_tail_ = 0;
  }

  /// Producer side.  False when the ring is full (caller spills).
  bool try_push(const T& value) {
    assert(buffer_ != nullptr && "SpscRing: reset_capacity before use");
    const std::uint64_t tail = tail_.load(std::memory_order_relaxed);
    if (tail - cached_head_ > mask_) {
      cached_head_ = head_.load(std::memory_order_acquire);
      if (tail - cached_head_ > mask_) return false;
    }
    buffer_[tail & mask_] = value;
    tail_.store(tail + 1, std::memory_order_release);
    return true;
  }

  /// Consumer side.  False when the ring is empty.
  bool try_pop(T& out) {
    const std::uint64_t head = head_.load(std::memory_order_relaxed);
    if (head == cached_tail_) {
      cached_tail_ = tail_.load(std::memory_order_acquire);
      if (head == cached_tail_) return false;
    }
    out = buffer_[head & mask_];
    head_.store(head + 1, std::memory_order_release);
    return true;
  }

  /// Element count as seen by the consumer (exact when the producer is
  /// quiescent, a lower bound otherwise).
  std::size_t size_approx() const {
    return static_cast<std::size_t>(tail_.load(std::memory_order_acquire) -
                                    head_.load(std::memory_order_acquire));
  }

  /// Arena introspection for the zero-allocation steady-state proofs.
  const void* buffer() const { return buffer_.get(); }

 private:
  // 64-byte separation: producer writes tail_, consumer writes head_; the
  // cached views are single-thread private and ride with their owner.
  alignas(64) std::atomic<std::uint64_t> tail_{0};  ///< producer cursor
  std::uint64_t cached_head_ = 0;                   ///< producer's view
  alignas(64) std::atomic<std::uint64_t> head_{0};  ///< consumer cursor
  std::uint64_t cached_tail_ = 0;                   ///< consumer's view
  alignas(64) std::unique_ptr<T[]> buffer_;
  std::size_t mask_ = 0;  ///< capacity - 1 (power of two)
};

}  // namespace emcast::util
