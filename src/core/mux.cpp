#include "core/mux.hpp"

#include <algorithm>
#include <stdexcept>

namespace emcast::core {

Mux::Mux(sim::SimContext ctx, Rate capacity, Sink sink,
         MuxDiscipline discipline)
    : ctx_(ctx),
      capacity_(capacity),
      sink_(std::move(sink)),
      discipline_(discipline) {
  if (capacity <= 0) throw std::invalid_argument("Mux: capacity <= 0");
}

Bits Mux::backlog_bits() const {
  Bits sum = 0;
  for (const auto& q : classes_) sum += q.backlog_bits();
  return sum;
}

Bits Mux::peak_backlog_bits() const { return peak_backlog_; }

void Mux::offer(sim::Packet p, std::size_t cls) {
  classes_[std::min(cls, kPriorityClasses - 1)].push(std::move(p),
                                                     ctx_.now());
  peak_backlog_ = std::max(peak_backlog_, backlog_bits());
  if (!busy_) start_service();
}

sim::FifoQueue* Mux::highest_nonempty() {
  for (auto& q : classes_) {
    if (!q.empty()) return &q;
  }
  return nullptr;
}

sim::FifoQueue* Mux::highest_visible(Time now) {
  for (auto& q : classes_) {
    if (q.has_entry_before(now)) return &q;
  }
  return nullptr;
}

bool Mux::is_lowest_visible(const sim::FifoQueue* q, Time now) const {
  for (auto it = classes_.rbegin(); it != classes_.rend(); ++it) {
    if (it->has_entry_before(now)) return &*it == q;
  }
  return false;
}

void Mux::start_service() {
  // Every occupancy question this decision asks — which class to serve,
  // whether the served class is the lowest occupied one, which packet the
  // LIFO pick takes — uses only packets enqueued strictly before now
  // (tie-robust; see MuxDiscipline).  A packet arriving at exactly this
  // instant is not yet visible, so the decision is identical whether the
  // tied arrival event executed before or after it.  When nothing is
  // visible but the queues are not empty (only same-instant arrivals in
  // flight), fall back to plain priority-FIFO over the raw occupancy:
  // that serves the tied packet exactly like the engine where the
  // arrival's own offer() found the server idle and started service.
  const Time now = ctx_.now();
  sim::FifoQueue* q = highest_visible(now);
  bool lifo = false;
  if (q != nullptr) {
    lifo = discipline_ == MuxDiscipline::PriorityLifoLowest &&
           is_lowest_visible(q, now);
  } else {
    q = highest_nonempty();
    if (q == nullptr) return;
  }
  busy_ = true;
  // Non-preemptive: the packet chosen now completes its transmission even
  // if higher-priority (or, under LIFO, newer) packets arrive meanwhile.
  sim::Packet p = lifo ? q->pop_newest_before(now) : q->pop();
  const Time tx = p.size / capacity_;
  ctx_.schedule_in(tx, [this, p = std::move(p)]() mutable {
    ++served_;
    sink_(std::move(p));
    busy_ = false;
    start_service();
  });
}

}  // namespace emcast::core
