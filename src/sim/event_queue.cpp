#include "sim/event_queue.hpp"

#include <stdexcept>
#include <string>

namespace emcast::sim {

void EventQueue::throw_nonfinite_time() {
  throw std::invalid_argument("EventQueue::push: non-finite time");
}

void EventQueue::throw_capacity_exhausted(const char* what) {
  throw std::length_error(std::string("EventQueue: ") + what +
                          " space exhausted");
}

void EventQueue::teardown_slots() noexcept {
  // All handles go stale first, so reentrant cancel()/pending() from the
  // capture destructors below are no-ops.
  for (auto& word : occupant_) word = kVacantTag | kNoSlot;
  live_count_ = 0;
  dead_pending_ = 0;
  // Destroy the captures now, while the occupant array is still alive;
  // the slab destructors later see only empty slots.  (Scheduling into a
  // queue mid-destruction remains unsupported, as documented.)
  for (std::uint32_t i = 0; i < occupant_.size(); ++i) slot_fn(i) = nullptr;
}

void EventQueue::reset_slots() noexcept {
  // The two-phase teardown (every handle goes stale before any capture
  // destructor runs) is exactly teardown_slots; then, instead of leaving
  // the array behind for the destructor, every slot is relinked into an
  // ascending free list, so the warmed queue reissues slots in the exact
  // order a fresh queue would first allocate them.
  teardown_slots();
  const std::size_t n = occupant_.size();
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t next =
        i + 1 < n ? static_cast<std::uint32_t>(i + 1) : kNoSlot;
    occupant_[i] = kVacantTag | next;
  }
  free_head_ = n != 0 ? 0 : kNoSlot;
  // next_seq_ is deliberately NOT rewound (epoch safety — see the header).
}

void EventQueue::cancel_handle(const EventHandle& h) {
  if (h.queue_ != this || occupant_[h.slot_] != h.seq_) {
    return;  // already fired/cancelled (or the slot was recycled)
  }
  const std::uint32_t slot = h.slot_;
  // Invalidate the occupant word BEFORE touching the capture: its
  // destructor is user code that may cancel this very handle (an RAII
  // timeout guard).  With the occupant already mismatching, the reentrant
  // cancel is a stale-handle no-op.  The slot joins the free list only
  // after the capture is fully destroyed, so a reentrant push cannot
  // grab a slot that is still being torn down.
  occupant_[slot] = kVacantTag | kNoSlot;  // vacant, not yet on free list
  --live_count_;
  ++dead_pending_;  // the pending record outlives the slot until popped
  destroy_capture(slot);
  release_slot(slot);
  if (dead_pending_ > kCompactFloor && dead_pending_ > live_count_) {
    compact();
  }
}

void EventQueue::compact() {
  pending_.remove_if(
      [this](const PendingEntry& e) { return entry_dead(e); });
  dead_pending_ = 0;
}

void EventQueue::clear() noexcept {
  reset_slots();
  pending_.clear();
}

}  // namespace emcast::sim
