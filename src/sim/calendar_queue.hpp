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
// permuting the chain's payloads in chain order: chains of up to
// kStackSortMax entries — nearly all of them, with days sized as below —
// through an insertion sort in a stack array, longer ones through a
// scratch vector.  A push that becomes the new bucket minimum keeps the
// sorted flag; any other push into a sorted bucket just clears it.
//
// Resize / re-aim.  The day width follows the dequeue rate (Brown,
// CACM 31(10), 1988): at every year advance the mean gap between the keys
// popped since the last measurement gives a width of a quarter to a half
// of that gap, 2^(floor(log2 gap) - 1), so the front bucket holds well
// under one entry when a pop reaches it.  Keys are double bit images, so
// the same event rate halves the key gap at every power of two of t; the
// width follows within a year.  The bucket count is kBucketsPerEntry per
// pending entry, so the year spans four to eight mean hold times (by
// Little's law a population of n entries dequeued every `gap` key units
// holds each for n x gap) and few pushes land beyond it; where the count
// is capped at kMaxBuckets, the days widen instead, by the same factor.
// Both are re-derived at each year advance, where every bucket is empty,
// so a new geometry costs only a resize of the bucket arrays.  The year
// is aimed at the key being popped, so the pushes its event makes never
// land below the year.  Entries at or beyond the year's end wait in the
// overflow heap.  A full rebuild (gather, re-derive, redistribute) runs
// only on promotion out of small mode, when the population has grown
// fourfold since the geometry was derived (its days would then hold four
// times the entries they were sized for), and when a push lands below the
// year; until the first measurement it sizes
// the days so the year spans the population's 90th-percentile key range
// (an nth_element, O(n)).  A push into an empty structure just re-aims
// the existing year at the new key in O(1).
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
  /// The set returns to its fresh logical state — small mode, no year, no
  /// dequeue-gap measurement — so the geometry is re-derived from the
  /// *new* run's population and pops, not the old one's.  Telemetry
  /// counters restart at zero.  Never allocates.
  void clear() noexcept;

  /// Remove every entry for which `dead` holds.  Unlinking preserves the
  /// relative chain order, so sorted buckets stay sorted.
  template <typename Pred>
  void remove_if(Pred dead);

  // -- introspection (tests, telemetry, zero-allocation proofs) -----------
  std::size_t bucket_count() const { return heads_.size(); }
  std::size_t in_bucket_count() const { return in_buckets_; }
  std::size_t overflow_count() const { return overflow_.size(); }
  /// Geometry changes: full rebuilds plus re-sized years at advances.
  std::uint64_t rebuild_count() const { return rebuilds_; }
  std::uint64_t year_advance_count() const { return year_advances_; }
  /// Bucket sorts of two or more entries, and the entries they sorted.
  std::uint64_t sort_count() const { return sorts_; }
  std::uint64_t sorted_entries() const { return sorted_entries_; }
  /// Calendar-mode pushes that landed beyond the year, in the overflow
  /// heap (small-mode pushes, which all go there, are not counted).
  std::uint64_t overflow_pushes() const { return overflow_pushes_; }
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
  /// Days per pending entry (see "Resize / re-aim" above).
  static constexpr std::size_t kBucketsPerEntry = 16;
  /// Longest chain sorted in a stack array rather than the scratch vector.
  static constexpr std::size_t kStackSortMax = 16;
  /// Pops a dequeue-gap measurement needs before it may set the width;
  /// until then it keeps accumulating across year advances.
  static constexpr std::uint64_t kMinGapPops = 32;
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

  struct Geometry {
    std::size_t buckets;
    std::uint32_t shift;
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
    if (pool_.size() == pool_.capacity()) [[unlikely]] {
      reserve_nodes(2 * pool_.size() + kMinBuckets);
    }
    pool_.push_back(Node{});  // before any linking: strong guarantee
    return static_cast<std::uint32_t>(pool_.size() - 1);
  }

  void free_node(std::uint32_t idx) {
    pool_[idx].next = free_head_;
    free_head_ = idx;
  }

  /// Grow the node pool and the sort scratch together, so a chain — never
  /// longer than the pool — always sorts without allocating.
  void reserve_nodes(std::size_t n);
  void link_entry(PendingEntry e);  ///< chain insert, no size_ change
  void insert_structure(PendingEntry e);  ///< bucket/overflow insert
  PendingEntry structure_pop();  ///< earliest bucket/overflow entry
  void collapse_to_small();  ///< move every bucket entry into the heap
  std::size_t find_first_occupied() const;
  std::size_t locate_min();
  void sort_bucket(std::size_t b);
  void maybe_collapse();
  void advance_year();
  /// Consume the dequeue-gap measurement: on success `shift` is the day
  /// shift it gives and a new measurement starts at the front key.
  bool take_gap_shift(std::uint32_t& shift);
  /// Bucket count and day shift for `n` entries at gap-derived `shift`.
  static Geometry geometry_for(std::size_t n, std::uint32_t shift);
  /// Aim the year at `anchor`'s day, or at the structure minimum `first`
  /// when a whole year separates the two.
  void aim_year(std::uint64_t anchor, std::uint64_t first);
  /// Collect everything (plus `extra`, if any), re-derive the bucket count
  /// and day width, and redistribute.  Strong exception guarantee: all
  /// allocation happens before anything is torn down.
  void rebuild(const PendingEntry* extra);

  std::vector<Node> pool_;
  std::uint32_t free_head_ = kNil;
  std::vector<std::uint32_t> heads_;     ///< node index | kSortedBit, or kNil
  std::vector<std::uint64_t> occupied_;  ///< one bit per bucket
  PendingHeap overflow_;                 ///< keys >= year_end_
  std::vector<PendingEntry> scratch_;    ///< rebuild / long-sort staging

  std::uint64_t year_base_ = 0;
  std::uint64_t year_end_ = 0;
  std::uint32_t day_shift_ = 0;
  std::size_t in_buckets_ = 0;  ///< entries currently in bucket chains
  std::size_t hint_ = 0;        ///< <= index of the first non-empty bucket
  std::size_t size_ = 0;        ///< total entries (front + buckets + overflow)
  /// A population past this re-derives the geometry at once (fourfold
  /// growth since the last derivation), without waiting for the year to
  /// end.
  std::size_t grow_at_ = 0;
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
  /// Dequeue-gap measurement: pops since clear(), and the pop count and
  /// front key where the current measurement started.
  std::uint64_t pops_ = 0;
  std::uint64_t gap_pops_ = 0;
  std::uint64_t gap_key_ = 0;
  bool gap_started_ = false;
  /// Population-adaptive mode (see header comment): structured entries
  /// live in the overflow heap alone until the population earns the
  /// bucket bookkeeping.
  bool small_mode_ = true;
  std::uint64_t mode_switches_ = 0;
  std::uint64_t rebuilds_ = 0;
  std::uint64_t year_advances_ = 0;
  std::uint64_t sorts_ = 0;
  std::uint64_t sorted_entries_ = 0;
  std::uint64_t overflow_pushes_ = 0;
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
      rebuild(&e);
      small_mode_ = false;
      ++mode_switches_;
      return;
    }
    overflow_.push(e);
    return;
  }
  if (in_buckets_ == 0 && overflow_.empty()) [[unlikely]] {
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
  } else if (size_ + 1 > grow_at_ || e.time_key < year_base_) [[unlikely]] {
    rebuild(&e);  // population grew fourfold, or a key below the year
    return;
  }
  if (e.time_key >= year_end_) {
    ++overflow_pushes_;
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
  ++pops_;
  // The structure pops before size_ drops: if a year advance throws, the
  // set still holds e in the front register and counts it.
  if (size_ != 1) front_ = structure_pop();
  if (--size_ != 0) maybe_collapse();
  return e;
}

inline void CalendarPendingSet::maybe_collapse() {
  if (!small_mode_ && size_ < kSmallModeMin) [[unlikely]] {
    collapse_to_small();
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
    if (size_ != 1) front_ = structure_pop();
    --size_;
  }
  maybe_collapse();
}

}  // namespace emcast::sim
