#pragma once
// Pending-event set for the discrete-event engine, built for zero
// steady-state heap allocations and minimal cache traffic.
//
// The queue owns the *callback storage* and the handle semantics — the
// callback slab, the occupant words, the free list, the sequence counter
// and lazy cancellation — and orders 16-byte PendingEntry records
// (sim/pending_entry.hpp) in a CalendarPendingSet (sim/calendar_queue.hpp):
// the amortised-O(1) calendar queue, which runs on its 4-ary PendingHeap
// below ~1k pending events and keeps the same heap as its overflow year.
// The push/fire path is fully inlined.
//
// Storage layout of the callback layer (no per-event allocation):
//   - callback slab: every capture (at most 56 bytes) lives in a 64-byte
//     slot, one cache line each, in 64-byte-aligned 512-slot blocks that
//     are never relocated.  The model's busiest events fit: a delivery
//     carries a 40-byte Packet by value (56 bytes), a MUX completion 48;
//   - occupant array: one 64-bit word per slot — the sequence number of
//     the event currently holding the slot, or a vacancy tag carrying the
//     free-list link.  Liveness checks touch only this dense array, never
//     the slab.
//
// Firing.  fire_next() runs the front callback in its slot: no capture
// is moved or copied to fire it.  The slot is linked into the free list
// only after the callback returns or throws (see fire_next).
//
// Ordering.  Events fire in (time, sequence) order; the sequence number
// makes simultaneous events fire in scheduling order, which keeps
// simulations deterministic whatever the calendar's bucket geometry.
//
// Handles.  push() returns an EventHandle addressing {slot index,
// generation}, where the generation is the event's unique sequence
// number.  A slot's occupant changes on every fire/cancel, so a stale
// handle — kept after its event fired, or pointing at a recycled slot —
// simply mismatches, and cancel()/pending() are safe no-ops.  No
// shared_ptr control block is ever allocated.  Sequence numbers are
// packed to 40 bits (≈10^12 events per queue) and slots to 24 bits
// (16.7M concurrently pending events).  Exceeding either limit throws
// rather than wrapping.
// Handles must not outlive the EventQueue.
//
// Cancellation is lazy: cancel() destroys the callback, frees the slot
// and leaves the dead pending record to be skipped on pop.  When dead
// records outnumber live ones (past a fixed floor) the pending set is
// compacted in place, so mass-cancel workloads cannot strand unbounded
// dead memory.

#include <cassert>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "sim/calendar_queue.hpp"
#include "sim/pending_entry.hpp"
#include "util/inline_fn.hpp"
#include "util/types.hpp"

namespace emcast::sim {

/// Non-allocating event callback: a capture up to this size plus the
/// vtable pointer fills exactly one cache line.  The largest capture the
/// engine makes on the hot path, a delivery (backend pointer, host and
/// Packet by value, see SimContext::deliver), is exactly 56 B.  Bigger
/// captures are a compile error — capture a pointer to named state
/// instead.
inline constexpr std::size_t kEventFnCapacity = 56;
using EventFn = util::InlineFn<void(), kEventFnCapacity>;

class EventQueue;

/// Handle returned by push(); cancel() is idempotent and safe after fire.
/// Copyable and trivially destructible; valid only while the queue that
/// issued it is alive.  Handles address the callback slots, not the
/// pending set.
class EventHandle {
 public:
  EventHandle() = default;

  /// True while the event is scheduled and not cancelled/fired.
  bool pending() const;

  /// Prevent the event from firing.  No-op if already fired/cancelled.
  void cancel();

 private:
  friend class EventQueue;
  friend class EventQueueTestPeer;
  EventHandle(EventQueue* q, std::uint32_t slot, std::uint64_t seq)
      : queue_(q), seq_(seq), slot_(slot) {}

  EventQueue* queue_ = nullptr;
  std::uint64_t seq_ = 0;  ///< the event's generation: its sequence number
  std::uint32_t slot_ = 0;  ///< index into the callback slab
};

class EventQueue {
 public:
  EventQueue() = default;
  ~EventQueue() { teardown_slots(); }
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// True if no live events remain.
  bool empty() const { return live_count_ == 0; }
  std::size_t live_count() const { return live_count_; }

  /// Schedule a callable at absolute time t (finite).  The callable is
  /// placement-constructed straight into its slot — no temporaries, no
  /// allocation.
  template <typename F>
  EventHandle push(Time t, F&& fn);

  /// Time of the earliest live event; kTimeInfinity when empty.
  Time next_time();

  /// Fire the earliest live event and return its time.  Caller checks
  /// empty() first; a caller that keeps a clock sets it from next_time()
  /// before the call.  The callback runs in its slot, where push()
  /// constructed it — nothing is moved.  While it runs, its occupant word
  /// is already vacant (cancelling its own handle is a no-op) but the slot
  /// is off the free list, so no push from inside the callback can reuse
  /// the storage it runs in.  When the callback returns or throws, the
  /// capture is destroyed and the slot joins the free list; an exception
  /// then propagates.  clear() must not be called from inside the
  /// callback (Simulator's reset guards reject that).
  Time fire_next();

  /// Discard every pending event (captures destroyed, slots recycled) and
  /// rewind to the fresh logical state while keeping every arena warm —
  /// callback slab, occupant array, the pending set's buffers.
  /// Outstanding handles go permanently stale (sequence numbers stay
  /// monotone across clears — the pre-clear epoch can never be confused
  /// with the new one), so stray cancel()/pending() calls remain safe
  /// no-ops.  Never allocates; the warm-reuse entry point of the engine.
  void clear() noexcept;

  std::size_t size_including_dead() const { return pending_.size(); }

  /// Read-only view of the pending set (tests, telemetry).
  const CalendarPendingSet& pending_set() const { return pending_; }

 private:
  friend class EventHandle;
  friend class EventQueueTestPeer;

  // -- slot slab ----------------------------------------------------------
  static constexpr std::uint32_t kNoSlot = 0xffffffffu;
  static constexpr std::size_t kBlockShift = 9;  ///< 512 slots per block
  static constexpr std::size_t kBlockSize = std::size_t{1} << kBlockShift;
  static constexpr std::uint64_t kSeqLimit = std::uint64_t{1} << 40;
  /// Vacant-slot tag for occupants: top bit set, low 32 bits = next free.
  static constexpr std::uint64_t kVacantTag = std::uint64_t{1} << 63;
  /// Dead pending records are tolerated until they both exceed this floor
  /// and outnumber the live ones; then the pending set is compacted.
  static constexpr std::size_t kCompactFloor = 64;

  /// One cache line per event: vtable pointer + 56-byte capture.
  struct alignas(64) Slot {
    EventFn fn;
  };
  static_assert(sizeof(Slot) == 64);

  EventFn& slot_fn(std::uint32_t slot) {
    return slabs_[slot >> kBlockShift][slot & (kBlockSize - 1)].fn;
  }
  bool entry_dead(const PendingEntry& e) const {
    // Vacant slots carry kVacantTag, which no 40-bit seq can equal.
    return occupant_[entry_slot(e)] != entry_seq(e);
  }

  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t slot);  ///< link a vacated slot
  /// Destroy the capture in `slot` in place (InlineFn::reset detaches its
  /// vtable before running the destructor, so the capture's teardown code
  /// sees an empty slot and may reenter cancel()/push() safely).
  void destroy_capture(std::uint32_t slot) noexcept {
    slot_fn(slot) = nullptr;
  }
  void cancel_handle(const EventHandle& h);
  /// Invalidate every occupant, then destroy all captures — while the
  /// occupant array is still alive.  The destructor calls this: a
  /// capture destructor that cancels another handle (RAII-guard pattern)
  /// then sees a vacant occupant and no-ops instead of reading freed
  /// occupant words.  Idempotent.
  void teardown_slots() noexcept;
  /// Warm-reuse variant of teardown: destroy every capture exactly like
  /// teardown_slots, then relink ALL slots (ascending, so a reused queue
  /// hands slots out in the same order a fresh one grows them) into the
  /// free list instead of leaving the array behind for the destructor.
  /// The slab and occupant array are retained — no memory is freed —
  /// and next_seq_ is NOT rewound: generations stay monotone across
  /// resets, so a handle from a pre-reset epoch can never match a
  /// post-reset occupant (pending() is false, cancel() a no-op) even when
  /// its slot is reoccupied.  Never allocates.
  void reset_slots() noexcept;
  void skim_dead();  ///< pop dead records off the pending-set front
  void compact();    ///< drop every dead record from the pending set
  [[noreturn]] static void throw_nonfinite_time();
  [[noreturn]] static void throw_capacity_exhausted(const char* what);

  // Callback slab: stable blocks, never relocated.
  std::vector<std::unique_ptr<Slot[]>> slabs_;
  std::vector<std::uint64_t> occupant_;
  std::uint32_t free_head_ = kNoSlot;

  std::size_t live_count_ = 0;
  std::size_t dead_pending_ = 0;
  std::uint64_t next_seq_ = 0;

  CalendarPendingSet pending_;
};

inline bool EventHandle::pending() const {
  return queue_ != nullptr && queue_->occupant_[slot_] == seq_;
}

inline void EventHandle::cancel() {
  if (queue_ != nullptr) queue_->cancel_handle(*this);
}

// ---- hot path, kept inline so Simulator::run sees through the calls -----

inline std::uint32_t EventQueue::acquire_slot() {
  if (free_head_ != kNoSlot) {
    const std::uint32_t slot = free_head_;
    free_head_ = static_cast<std::uint32_t>(occupant_[slot]);
    return slot;
  }
  const std::size_t slot = occupant_.size();
  if (slot > kSlotMask) throw_capacity_exhausted("pending events");
  if ((slot & (kBlockSize - 1)) == 0) {
    // New block boundary.  make_unique, so the block cannot leak if the
    // slab vector's own growth throws.
    slabs_.push_back(std::make_unique<Slot[]>(kBlockSize));
  }
  occupant_.push_back(kVacantTag | kNoSlot);  // vacant until published
  return static_cast<std::uint32_t>(slot);
}

inline void EventQueue::release_slot(std::uint32_t slot) {
  occupant_[slot] = kVacantTag | free_head_;
  free_head_ = slot;
}

template <typename F>
inline EventHandle EventQueue::push(Time t, F&& fn) {
  static_assert(EventFn::template fits<F>,
                "EventQueue::push: callable violates the EventFn contract "
                "(see util::InlineFn)");
  if (!std::isfinite(t)) throw_nonfinite_time();
  if (next_seq_ >= kSeqLimit) throw_capacity_exhausted("event sequence");
  const std::uint32_t slot = acquire_slot();
  const std::uint64_t seq = next_seq_;
  try {
    slot_fn(slot) = std::forward<F>(fn);  // constructed in place, no temp
    pending_.push(
        PendingEntry{time_key(t), (seq << kSlotShift) | slot});  // may grow
  } catch (...) {
    // The slot was never published (occupant still vacant-tagged), so a
    // capture destructor cancelling its own handle no-ops; destroy the
    // capture, then return the slot to the free list.
    destroy_capture(slot);
    release_slot(slot);
    throw;
  }
  next_seq_ = seq + 1;
  occupant_[slot] = seq;
  ++live_count_;
  return EventHandle(this, slot, seq);
}

inline void EventQueue::skim_dead() {
  while (pending_.size() != 0 && entry_dead(pending_.min())) {
    pending_.pop_min();
    // Every dead record was counted by the cancel that killed it.
    assert(dead_pending_ != 0 && "dead pending record never counted");
    --dead_pending_;
  }
}

inline Time EventQueue::next_time() {
  skim_dead();
  return pending_.size() == 0 ? kTimeInfinity
                              : key_time(pending_.min().time_key);
}

inline Time EventQueue::fire_next() {
  skim_dead();
  assert(pending_.size() != 0 && "fire_next on empty EventQueue");
  const std::uint32_t slot = entry_slot(pending_.min());
#if defined(__GNUC__) || defined(__clang__)
  // Start pulling the callback's slab line while the pending-set deletion
  // below works through its levels; the two memory streams overlap.
  __builtin_prefetch(&slot_fn(slot));
#endif
  const Time t = key_time(pending_.pop_min().time_key);
  // Vacate the occupant before the callback runs, so a cancel() of this
  // very event from inside it (or from the capture's destructor) is a
  // stale-handle no-op.  The slot is linked into the free list only once
  // the capture is gone, whichever way the callback leaves.
  occupant_[slot] = kVacantTag | kNoSlot;
  --live_count_;
  struct Release {
    EventQueue* queue;
    std::uint32_t slot;
    ~Release() {
      queue->destroy_capture(slot);
      queue->release_slot(slot);
    }
  } release{this, slot};
  slot_fn(slot)();
  return t;
}

}  // namespace emcast::sim
