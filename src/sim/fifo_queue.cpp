#include "sim/fifo_queue.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

namespace emcast::sim {

FifoQueue::FifoQueue(FifoQueue&& other) noexcept
    : slots_(std::move(other.slots_)),
      capacity_(std::exchange(other.capacity_, 0)),
      head_(std::exchange(other.head_, 0)),
      size_(std::exchange(other.size_, 0)),
      backlog_bits_(std::exchange(other.backlog_bits_, 0)),
      peak_backlog_bits_(std::exchange(other.peak_backlog_bits_, 0)),
      total_enqueued_(std::exchange(other.total_enqueued_, 0)) {}

FifoQueue& FifoQueue::operator=(FifoQueue&& other) noexcept {
  if (this != &other) {
    slots_ = std::move(other.slots_);
    capacity_ = std::exchange(other.capacity_, 0);
    head_ = std::exchange(other.head_, 0);
    size_ = std::exchange(other.size_, 0);
    backlog_bits_ = std::exchange(other.backlog_bits_, 0);
    peak_backlog_bits_ = std::exchange(other.peak_backlog_bits_, 0);
    total_enqueued_ = std::exchange(other.total_enqueued_, 0);
  }
  return *this;
}

void FifoQueue::grow() {
  const std::size_t grown =
      capacity_ == 0 ? kInitialCapacity : 2 * capacity_;
  auto fresh = std::make_unique<Entry[]>(grown);
  // Unwrap into FIFO order at the start of the new ring.
  for (std::size_t i = 0; i < size_; ++i) fresh[i] = slots_[slot(i)];
  slots_ = std::move(fresh);
  capacity_ = grown;
  head_ = 0;
}

void FifoQueue::push(Packet p, Time enqueued_at) {
  backlog_bits_ += p.size;
  peak_backlog_bits_ = std::max(peak_backlog_bits_, backlog_bits_);
  ++total_enqueued_;
  if (size_ == capacity_) grow();
  slots_[slot(size_)] = Entry{p, enqueued_at};
  ++size_;
}

void FifoQueue::account_pop(const Packet& p) {
  backlog_bits_ -= p.size;
  if (backlog_bits_ < 0) backlog_bits_ = 0;  // guard float drift
}

Packet FifoQueue::pop() {
  assert(size_ != 0);
  const Packet p = slots_[head_].packet;
  head_ = slot(1);
  --size_;
  account_pop(p);
  return p;
}

Packet FifoQueue::pop_newest() {
  assert(size_ != 0);
  --size_;
  const Packet p = slots_[slot(size_)].packet;
  account_pop(p);
  return p;
}

Packet FifoQueue::pop_newest_before(Time t) {
  assert(size_ != 0);
  // Enqueue stamps are non-decreasing, so the newest qualifying entry is
  // the last one with stamp < t; entries at (or past) `t` cluster at the
  // back.  The common case (no tie in flight) is the back entry — a plain
  // pop_newest; only a tie walks inward and closes the gap by shifting
  // the tied entries behind it one slot forward, keeping their order.
  if (slots_[slot(size_ - 1)].enqueued_at < t) return pop_newest();
  for (std::size_t i = size_ - 1; i-- > 0;) {
    if (slots_[slot(i)].enqueued_at < t) {
      const Packet p = slots_[slot(i)].packet;
      for (std::size_t j = i + 1; j < size_; ++j) {
        slots_[slot(j - 1)] = slots_[slot(j)];
      }
      --size_;
      account_pop(p);
      return p;
    }
  }
  return pop();  // everything tied: serve in FIFO order
}

void FifoQueue::clear() {
  head_ = 0;
  size_ = 0;
  backlog_bits_ = 0;
}

}  // namespace emcast::sim
