#pragma once
// Byte-accounted FIFO of packets.  Used as the backlog store inside
// regulators and multiplexers.  Tracks the peak backlog, which the tests
// compare against the σ-based backlog bounds from the paper's lemmas.
//
// Entries carry an optional enqueue timestamp so LIFO-style service
// disciplines can make their pick a pure function of (decision time,
// queue content) rather than of event interleaving — see
// pop_newest_before() and core::Mux.  Plain FIFO users ignore the stamp.
//
// Storage is a power-of-two ring over one contiguous buffer.  A queue
// that never sees a packet allocates nothing; the first push allocates
// kInitialCapacity entries, a push into a full ring doubles it, and
// nothing ever shrinks it — clear() keeps the capacity — so a warmed
// queue pushes and pops without touching the allocator.  A growing push
// moves every entry, so a front() pointer does not survive a push to
// the same queue.

#include <cstddef>
#include <memory>

#include "sim/packet.hpp"
#include "util/types.hpp"

namespace emcast::sim {

class FifoQueue {
  struct Entry {
    Packet packet;
    Time enqueued_at = 0.0;
  };

 public:
  /// Ring size allocated by the first push (a power of two).
  static constexpr std::size_t kInitialCapacity = 4;
  /// Bytes of ring storage per entry (heap_bytes() = capacity × this).
  static constexpr std::size_t kEntryBytes = sizeof(Entry);

  FifoQueue() = default;
  FifoQueue(FifoQueue&& other) noexcept;
  FifoQueue& operator=(FifoQueue&& other) noexcept;

  /// `enqueued_at` stamps the entry for pop_newest_before(); plain FIFO
  /// users may omit it.
  void push(Packet p, Time enqueued_at = 0.0);

  /// Front packet without removing it; nullptr when empty.  Invalidated
  /// by the next push (which may grow the ring).
  const Packet* front() const {
    return size_ == 0 ? nullptr : &slots_[head_].packet;
  }

  /// Remove and return the front packet.  Undefined when empty.
  Packet pop();

  /// Remove and return the *newest* packet (LIFO service).  Used by the
  /// adversarial general-MUX discipline, where a tagged packet can be
  /// overtaken even by later packets of its own flow.  Undefined when
  /// empty.
  Packet pop_newest();

  /// Remove and return the newest packet enqueued strictly *before* `t`;
  /// when every entry was enqueued at (or after) `t`, fall back to the
  /// front.  This is the tie-robust LIFO pick: a packet whose arrival
  /// shares the exact timestamp of the service decision is treated as not
  /// yet visible, so the choice is identical whether the tied arrival
  /// event executed before or after the decision event — the property the
  /// sharded engine's differential determinism relies on (a cross-shard
  /// arrival cannot reproduce the single-kernel tie order).  Undefined
  /// when empty.
  ///
  /// Residual limitation: if TWO packets from *distinct events* are
  /// enqueued at the same bit-exact instant, their relative queue order
  /// still follows event order.  Unlike the structural
  /// arrival-vs-completion grid tie (one upstream chain, shared C), that
  /// needs two independent float chains to collide exactly — accepted as
  /// out of scope; the differential suites pin the structural cases.
  Packet pop_newest_before(Time t);

  /// True when some entry was enqueued strictly before `t` — the
  /// "visible backlog" test service decisions at `t` use (stamps are
  /// non-decreasing, so the front holds the minimum).
  bool has_entry_before(Time t) const {
    return size_ != 0 && slots_[head_].enqueued_at < t;
  }

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }
  /// Entries the ring holds before its next growth (0 until first push).
  std::size_t capacity() const { return capacity_; }

  Bits backlog_bits() const { return backlog_bits_; }
  Bits peak_backlog_bits() const { return peak_backlog_bits_; }
  std::uint64_t total_enqueued() const { return total_enqueued_; }

  /// Heap bytes behind this queue: the whole ring, occupied or not.
  /// Feeds the per-host memory budget report.
  std::size_t heap_bytes() const { return capacity_ * kEntryBytes; }

  /// Drop every entry and zero the backlog; the ring keeps its capacity
  /// and the peak and total counters are kept.
  void clear();

 private:
  /// Ring slot of the i-th oldest entry.
  std::size_t slot(std::size_t i) const {
    return (head_ + i) & (capacity_ - 1);
  }
  void grow();
  void account_pop(const Packet& p);

  std::unique_ptr<Entry[]> slots_;
  std::size_t capacity_ = 0;  ///< 0 or a power of two
  std::size_t head_ = 0;      ///< slot of the oldest entry
  std::size_t size_ = 0;
  Bits backlog_bits_ = 0;
  Bits peak_backlog_bits_ = 0;
  std::uint64_t total_enqueued_ = 0;
};

}  // namespace emcast::sim
