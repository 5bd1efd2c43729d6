#pragma once
// 4-ary implicit min-heap of PendingEntry records: the calendar queue's
// small mode and its overflow year (sim/calendar_queue.hpp).
//
// The records live in a 64-byte-aligned buffer whose root is at physical
// index 3, so every 4-child group is exactly one cache line.  Deletion is
// bottom-up (Wegener): the hole walks root→leaf along min-children with no
// compare against the displaced element (whose data-dependent exit branch
// mispredicts on random keys), then the tail drops into the hole and sifts
// up — it came from the bottom, so it rarely climbs more than a step.

#include <cassert>
#include <cstddef>
#include <cstdint>

#include "sim/pending_entry.hpp"

namespace emcast::sim {

class PendingHeap {
 public:
  PendingHeap() = default;
  ~PendingHeap();
  PendingHeap(const PendingHeap&) = delete;
  PendingHeap& operator=(const PendingHeap&) = delete;

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Grow the buffer to hold at least `logical` entries (strong guarantee).
  void reserve(std::size_t logical);

  void push(PendingEntry e) {
    if (size_ == cap_) reserve(size_ + 1);
    heap_[kBase + size_] = e;
    ++size_;
    sift_up(kBase + size_ - 1);
  }

  /// Earliest entry; heap must be non-empty.
  const PendingEntry& min() const {
    assert(size_ != 0);
    return heap_[kBase];
  }

  PendingEntry pop_min();

  /// Remove every entry for which `dead` holds, then re-establish the heap
  /// invariant bottom-up (Floyd).  O(n); order among survivors irrelevant.
  template <typename Pred>
  void remove_if(Pred dead) {
    PendingEntry* begin = heap_ + kBase;
    PendingEntry* out = begin;
    for (PendingEntry* p = begin; p != begin + size_; ++p) {
      if (!dead(*p)) *out++ = *p;
    }
    size_ = static_cast<std::size_t>(out - begin);
    heapify();
  }

  /// Drop all entries (keeps the buffer).
  void clear() { size_ = 0; }

  /// Raw in-buffer view of the entries, heap-ordered (for bulk drains).
  const PendingEntry* begin() const { return heap_ + kBase; }
  const PendingEntry* end() const { return heap_ + kBase + size_; }

  /// Arena introspection for the zero-allocation steady-state proofs.
  const void* buffer() const { return heap_; }
  std::size_t capacity() const { return cap_; }

 private:
  /// Root lives at physical index 3 so each 4-child group {4p-8..4p-5}
  /// starts at a multiple of 4 entries = one 64-byte line.
  static constexpr std::size_t kBase = 3;

  void heapify();
  void sift_up(std::size_t p);
  void sift_down(std::size_t p);
  std::size_t min_child(std::size_t c0, std::size_t end) const;

  PendingEntry* heap_ = nullptr;  ///< 64B-aligned; root at physical kBase
  std::size_t size_ = 0;          ///< logical entry count
  std::size_t cap_ = 0;           ///< logical capacity
};

// ---- hot path, kept inline so the event loop sees through the calls ----

inline PendingEntry PendingHeap::pop_min() {
  const PendingEntry front = heap_[kBase];
  const PendingEntry tail = heap_[kBase + size_ - 1];
  --size_;
  if (size_ == 0) return front;
  const std::size_t end = kBase + size_;
  std::size_t hole = kBase;
  for (;;) {
    const std::size_t c0 = 4 * hole - 8;  // child group: one aligned line
    if (c0 >= end) break;
    const std::size_t best = min_child(c0, end);
    heap_[hole] = heap_[best];
    hole = best;
    if (c0 + 4 > end) break;  // was a ragged group: children are leaves
  }
  // hole is now a leaf; place the tail there and let it climb home.
  heap_[hole] = tail;
  sift_up(hole);
  return front;
}

inline void PendingHeap::sift_up(std::size_t p) {
  const PendingEntry e = heap_[p];
  while (p > kBase) {
    const std::size_t parent = p / 4 + 2;
    if (!entry_before(e, heap_[parent])) break;
    heap_[p] = heap_[parent];
    p = parent;
  }
  heap_[p] = e;
}

/// Index of the smallest entry in the child group [c0, min(c0+4, end)).
inline std::size_t PendingHeap::min_child(std::size_t c0,
                                          std::size_t end) const {
  if (c0 + 4 <= end) {
    // Full fanout: branchless tournament (cmov-selected indices).
    const std::size_t a =
        entry_before(heap_[c0 + 1], heap_[c0]) ? c0 + 1 : c0;
    const std::size_t b =
        entry_before(heap_[c0 + 3], heap_[c0 + 2]) ? c0 + 3 : c0 + 2;
    return entry_before(heap_[b], heap_[a]) ? b : a;
  }
  std::size_t best = c0;  // ragged last group
  for (std::size_t c = c0 + 1; c < end; ++c) {
    if (entry_before(heap_[c], heap_[best])) best = c;
  }
  return best;
}

inline void PendingHeap::sift_down(std::size_t p) {
  const std::size_t end = kBase + size_;  // one past last physical
  const PendingEntry e = heap_[p];
  for (;;) {
    const std::size_t c0 = 4 * p - 8;  // child group: one aligned line
    if (c0 >= end) break;
    const std::size_t best = min_child(c0, end);
    if (!entry_before(heap_[best], e)) break;
    heap_[p] = heap_[best];
    p = best;
    if (c0 + 4 > end) break;  // was a ragged group: children are leaves
  }
  heap_[p] = e;
}

}  // namespace emcast::sim
