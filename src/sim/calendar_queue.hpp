#pragma once
// Calendar-queue pending set: amortised O(1) push/pop over the
// order-preserving integer time image, replacing the O(log n) heap walk on
// the engine's hottest path.
//
// Layout.  The current "year" [year_base, year_end) is split into a
// power-of-two number of equal "day" buckets of 2^day_shift key units
// each.  Bucket b holds exactly the events of day b — there is no mod-N
// wrap, so the first non-empty bucket always holds the global in-year
// minimum and pops stream through the buckets in order.  Events at or
// beyond year_end go to a 4-ary min-heap overflow year (PendingHeap) and
// only re-enter the buckets when the in-year events are exhausted.
//
// Storage.  Bucket membership is an intrusive singly-linked list through a
// node pool (index links, so pool growth never invalidates them); a bucket
// is one 32-bit head word.  A bitmap over the buckets (plus a monotone
// low-water hint) makes find-first-non-empty a word scan.  All arrays are
// retained across rebuilds, so a warmed queue runs allocation-free.
//
// Lazy intra-bucket sorting.  push() prepends in O(1); a bucket is sorted
// (ascending, head = earliest) only when a pop first reaches it, by
// permuting the chain's payloads through a scratch buffer.  A push that
// becomes the new bucket minimum keeps the sorted flag; any other push
// into a sorted bucket just clears it.
//
// Resize / re-aim.  The bucket count tracks the live population
// (grow at load factor 2, shrink at 1/8) and the day width tracks the
// event spacing: at every rebuild the width is the mean key gap over the
// trimmed 90th-percentile span (an nth_element, O(n)), so the bulk of
// the population fits the year while the far-future tail beyond p90
// rides the overflow heap.  A push below year_base re-bases the year
// (full rebuild with a quarter-year of downward slack); a push into an
// empty queue just re-aims the existing year at the new key in O(1).
//
// Determinism.  Pop order is exactly (time_key, seq) regardless of bucket
// geometry: equal keys share a bucket, earlier days live in earlier
// buckets, and the overflow year only drains when the buckets are empty.
//
// Size-adaptive small mode.  Below ~1k pending events the per-op bucket
// bookkeeping loses to an L2-resident heap sift (the ~10% small-population
// gap vs. PendingHeap), so the set runs *population-adaptive*: while
// the pending count stays under kSmallModeMax, every structured entry
// lives in the overflow heap (a plain PendingHeap) and the bucket
// machinery is never touched; crossing the threshold rebuilds into the
// calendar layout, and draining below kSmallModeMin (wide hysteresis, no
// thrash) collapses back.  The front register works identically in both
// modes, and since the heap pops exact (time_key, seq) order too, mode
// switches are invisible to event ordering.

#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/pending_entry.hpp"
#include "sim/pending_heap.hpp"

namespace emcast::sim {

class CalendarPendingSet {
 public:
  CalendarPendingSet() = default;
  CalendarPendingSet(const CalendarPendingSet&) = delete;
  CalendarPendingSet& operator=(const CalendarPendingSet&) = delete;

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  void push(PendingEntry e);

  /// The global minimum, O(1): it always lives in the front register.
  const PendingEntry& min() {
    assert(size_ != 0 && "min on empty calendar queue");
    return front_;
  }
  PendingEntry pop_min();

  /// Drop every entry but keep all arenas warm (node pool, bucket heads,
  /// bitmap, overflow buffer, scratch): the warm-reuse path of the engine.
  /// The set returns to its fresh logical state — small mode, no year —
  /// so the day width is re-derived lazily by the next promotion rebuild,
  /// from the *new* run's population, not the old one's.  Telemetry
  /// counters (rebuilds, year advances, mode switches) restart at zero.
  /// Never allocates.
  void clear() noexcept;

  /// Remove every entry for which `dead` holds.  Unlinking preserves the
  /// relative chain order, so sorted buckets stay sorted.
  template <typename Pred>
  void remove_if(Pred dead);

  // -- introspection (tests, zero-allocation proofs) ----------------------
  std::size_t bucket_count() const { return heads_.size(); }
  std::size_t in_bucket_count() const { return in_buckets_; }
  std::size_t overflow_count() const { return overflow_.size(); }
  std::uint64_t rebuild_count() const { return rebuilds_; }
  std::uint64_t year_advance_count() const { return year_advances_; }
  bool small_mode() const { return small_mode_; }
  std::uint64_t mode_switches() const { return mode_switches_; }
  std::uint32_t day_shift() const { return day_shift_; }
  const PendingHeap& overflow() const { return overflow_; }
  const void* pool_data() const { return pool_.data(); }
  std::size_t pool_capacity() const { return pool_.capacity(); }
  std::size_t heads_capacity() const { return heads_.capacity(); }
  std::size_t scratch_capacity() const { return scratch_.capacity(); }

 private:
  static constexpr std::uint32_t kNil = 0xffffffffu;
  static constexpr std::uint32_t kSortedBit = 1u << 31;
  static constexpr std::uint32_t kIndexMask = kSortedBit - 1;
  static constexpr std::size_t kMinBuckets = 16;
  static constexpr std::size_t kMaxBuckets = std::size_t{1} << 16;
  /// Small-mode hysteresis: heap-only below, calendar above (see header
  /// comment).  The upper bound sits at the measured heap/calendar
  /// crossover; the 4x gap makes threshold churn cost O(n) only once per
  /// quarter-population drain.
  static constexpr std::size_t kSmallModeMax = 1024;
  static constexpr std::size_t kSmallModeMin = 256;
  /// Day widths are capped at 2^47 key units: with <= 2^16 buckets the
  /// year span stays below 2^63 and the shift arithmetic cannot overflow.
  /// (Key spans are wide: the integer time image inflates one double
  /// binade to 2^52 key units, so even a [0, 1000)s horizon spans ~2^56.)
  static constexpr std::uint32_t kMaxDayShift = 47;

  struct Node {
    PendingEntry entry;
    std::uint32_t next;
  };

  std::size_t bucket_of(std::uint64_t key) const {
    std::size_t b = static_cast<std::size_t>((key - year_base_) >> day_shift_);
    // Only reachable when year_end_ saturated at 2^64-1: the last bucket
    // then doubles as an "overflow day", which keeps ordering intact
    // because every clamped key exceeds every key of an earlier bucket.
    const std::size_t mask = heads_.size() - 1;
    return b < mask ? b : mask;
  }

  std::uint32_t alloc_node() {
    if (free_head_ != kNil) {
      const std::uint32_t idx = free_head_;
      free_head_ = pool_[idx].next;
      return idx;
    }
    pool_.push_back(Node{});  // before any linking: strong guarantee
    return static_cast<std::uint32_t>(pool_.size() - 1);
  }

  void free_node(std::uint32_t idx) {
    pool_[idx].next = free_head_;
    free_head_ = idx;
  }

  void link_entry(PendingEntry e);  ///< chain insert, no size_ change
  void insert_structure(PendingEntry e);  ///< bucket/overflow insert
  PendingEntry structure_pop();  ///< earliest bucket/overflow entry
  void collapse_to_small();  ///< move every bucket entry into the heap
  std::size_t find_first_occupied() const;
  std::size_t locate_min();
  void sort_bucket(std::size_t b);
  void maybe_shrink();
  void advance_year();
  /// Collect everything (plus `extra`, if any), re-derive the bucket count
  /// and day width, and redistribute.  Strong exception guarantee: all
  /// allocation happens before anything is torn down.
  void rebuild(const PendingEntry* extra);

  std::vector<Node> pool_;
  std::uint32_t free_head_ = kNil;
  std::vector<std::uint32_t> heads_;     ///< node index | kSortedBit, or kNil
  std::vector<std::uint64_t> occupied_;  ///< one bit per bucket
  PendingHeap overflow_;                 ///< keys >= year_end_
  std::vector<PendingEntry> scratch_;    ///< rebuild / sort staging
  std::vector<std::uint32_t> idx_scratch_;

  std::uint64_t year_base_ = 0;
  std::uint64_t year_end_ = 0;
  std::uint32_t day_shift_ = 0;
  std::size_t in_buckets_ = 0;  ///< entries currently in bucket chains
  std::size_t hint_ = 0;        ///< <= index of the first non-empty bucket
  std::size_t size_ = 0;        ///< total entries (front + buckets + overflow)
  /// The global minimum, held outside the buckets (valid iff size_ > 0).
  /// min() is then a register read, and the push/pop/push cycle of a
  /// single self-rescheduling event never touches the buckets at all.
  PendingEntry front_{};
  /// Memo of locate_min()'s last answer: the bucket is still the first
  /// non-empty one and still sorted.  Invalidated by any mutation that
  /// could change the front (push, rebuild, remove_if, emptying pop), so
  /// a next_time()/pop() pair pays for one bucket search, not three.
  static constexpr std::size_t kNoCursor = ~std::size_t{0};
  std::size_t cursor_ = kNoCursor;
  /// Population-adaptive mode (see header comment): structured entries
  /// live in the overflow heap alone until the population earns the
  /// bucket bookkeeping.
  bool small_mode_ = true;
  std::uint64_t mode_switches_ = 0;
  std::uint64_t rebuilds_ = 0;
  std::uint64_t year_advances_ = 0;
};

// ---- hot path, kept inline so the event loop sees through the calls ----

inline void CalendarPendingSet::link_entry(PendingEntry e) {
  const std::size_t b = bucket_of(e.time_key);
  const std::uint32_t node = alloc_node();
  Node& n = pool_[node];
  n.entry = e;
  const std::uint32_t head = heads_[b];
  if (head == kNil) {
    n.next = kNil;
    heads_[b] = node | kSortedBit;  // a single node is trivially sorted
    occupied_[b >> 6] |= std::uint64_t{1} << (b & 63);
  } else {
    const std::uint32_t head_idx = head & kIndexMask;
    n.next = head_idx;
    // Prepending the new bucket minimum keeps a sorted chain sorted; any
    // other prepend leaves the sort to the pop that first needs it.
    const bool stays_sorted =
        (head & kSortedBit) != 0 && entry_before(e, pool_[head_idx].entry);
    heads_[b] = node | (stays_sorted ? kSortedBit : 0u);
  }
  if (b < hint_) hint_ = b;
  ++in_buckets_;
}

inline void CalendarPendingSet::push(PendingEntry e) {
  if (size_ == 0) {
    front_ = e;  // buckets untouched: the empty->one transition is free
    size_ = 1;
    return;
  }
  if (entry_before(e, front_)) {
    // New global minimum: it takes the front register and the old front
    // — necessarily >= every key already structured — goes to a bucket.
    // Structure first: if the insert throws, front_/size_ are untouched.
    insert_structure(front_);
    front_ = e;
  } else {
    insert_structure(e);
  }
  ++size_;
}

inline void CalendarPendingSet::insert_structure(PendingEntry e) {
  cursor_ = kNoCursor;
  if (small_mode_) {
    if (size_ + 1 > kSmallModeMax) [[unlikely]] {
      // The population outgrew the heap's cache residency: promote to
      // the calendar layout (rebuild gathers the heap + e and derives
      // the year geometry from the full population).
      small_mode_ = false;
      ++mode_switches_;
      rebuild(&e);
      return;
    }
    overflow_.push(e);
    return;
  }
  if (in_buckets_ == 0 && overflow_.empty()) [[unlikely]] {
    if (heads_.empty()) {
      rebuild(&e);  // first ever structured entry: allocate the arrays
      return;
    }
    // Empty structure: re-aim the existing year, O(1).  The base is the
    // front register's key — the true global minimum — so keys landing
    // between the front and `e` cannot masquerade as underflows.
    year_base_ = front_.time_key;
    const std::uint64_t span = static_cast<std::uint64_t>(heads_.size())
                               << day_shift_;
    year_end_ = year_base_ > ~std::uint64_t{0} - span ? ~std::uint64_t{0}
                                                      : year_base_ + span;
    hint_ = 0;
    // Fall through to the year_end_ split below: a far key must still go
    // to the overflow heap, or it would pop (from the clamped last
    // bucket) ahead of nearer keys overflowed later.
  } else if ((size_ + 1 > 2 * heads_.size() &&
              heads_.size() < kMaxBuckets) ||
             e.time_key < year_base_) [[unlikely]] {
    rebuild(&e);  // grow, or re-base the year below a record-minimum key
    return;
  }
  if (e.time_key >= year_end_) {
    overflow_.push(e);
    return;
  }
  link_entry(e);
}

inline std::size_t CalendarPendingSet::find_first_occupied() const {
  std::size_t w = hint_ >> 6;
  std::uint64_t word = occupied_[w] & (~std::uint64_t{0} << (hint_ & 63));
  while (word == 0) word = occupied_[++w];
  return (w << 6) + static_cast<std::size_t>(std::countr_zero(word));
}

inline std::size_t CalendarPendingSet::locate_min() {
  assert(size_ != 0 && "locate_min on empty calendar queue");
  if (cursor_ != kNoCursor) return cursor_;
  for (;;) {
    if (in_buckets_ == 0) [[unlikely]] {
      // Every in-year event fired: slide the year forward over the
      // overflow heap (buckets are already empty — no rebuild).
      advance_year();
      continue;
    }
    const std::size_t b = find_first_occupied();
    hint_ = b;
    if ((heads_[b] & kSortedBit) == 0) [[unlikely]] sort_bucket(b);
    cursor_ = b;
    return b;
  }
}

inline PendingEntry CalendarPendingSet::structure_pop() {
  if (small_mode_) return overflow_.pop_min();
  const std::size_t b = locate_min();
  const std::uint32_t node = heads_[b] & kIndexMask;
  Node& n = pool_[node];
  const PendingEntry e = n.entry;
  if (n.next == kNil) {
    heads_[b] = kNil;
    occupied_[b >> 6] &= ~(std::uint64_t{1} << (b & 63));
    cursor_ = kNoCursor;  // the front bucket moved past b
  } else {
    heads_[b] = n.next | kSortedBit;  // tail of a sorted chain stays sorted
  }
  free_node(node);
  --in_buckets_;
  return e;
}

inline PendingEntry CalendarPendingSet::pop_min() {
  assert(size_ != 0 && "pop_min on empty calendar queue");
  const PendingEntry e = front_;
  if (--size_ != 0) {
    front_ = structure_pop();
    maybe_shrink();
  }
  return e;
}

inline void CalendarPendingSet::maybe_shrink() {
  if (small_mode_) return;
  if (size_ < kSmallModeMin) [[unlikely]] {
    collapse_to_small();
    return;
  }
  if (heads_.size() > kMinBuckets && size_ < heads_.size() / 8) [[unlikely]] {
    rebuild(nullptr);
  }
}

template <typename Pred>
void CalendarPendingSet::remove_if(Pred dead) {
  cursor_ = kNoCursor;
  for (std::size_t w = 0; w < occupied_.size(); ++w) {
    // (chains first; the front register is settled at the end, when the
    // structure holds only survivors)
    std::uint64_t remaining = occupied_[w];
    while (remaining != 0) {
      const std::size_t bit = static_cast<std::size_t>(
          std::countr_zero(remaining));
      remaining &= remaining - 1;
      const std::size_t b = (w << 6) + bit;
      const std::uint32_t sorted_flag = heads_[b] & kSortedBit;
      std::uint32_t idx = heads_[b] & kIndexMask;
      std::uint32_t survivors = kNil;
      std::uint32_t* prev_next = &survivors;
      while (idx != kNil) {
        const std::uint32_t nxt = pool_[idx].next;
        if (dead(pool_[idx].entry)) {
          free_node(idx);
          --in_buckets_;
          --size_;
        } else {
          *prev_next = idx;
          prev_next = &pool_[idx].next;
        }
        idx = nxt;
      }
      *prev_next = kNil;
      if (survivors == kNil) {
        heads_[b] = kNil;
        occupied_[w] &= ~(std::uint64_t{1} << bit);
      } else {
        heads_[b] = survivors | sorted_flag;
      }
    }
  }
  const std::size_t overflow_before = overflow_.size();
  overflow_.remove_if(dead);
  size_ -= overflow_before - overflow_.size();
  // Settle the front register last, when the structure holds only
  // survivors: a dead front is replaced by the new structured minimum.
  if (size_ != 0 && dead(front_)) {
    if (--size_ != 0) front_ = structure_pop();
  }
  maybe_shrink();
}

}  // namespace emcast::sim
