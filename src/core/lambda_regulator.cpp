#include "core/lambda_regulator.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace emcast::core {

namespace {
constexpr Time kTinyGuard = 1e-9;
}  // namespace

namespace {
/// Slot order: stable sort by priority class (0 first).  The paper's
/// Section VII extension — priority flows take their working periods
/// earlier in each regulator period, so their worst wait after a vacation
/// is shortest.
std::vector<traffic::FlowSpec> priority_ordered(
    std::vector<traffic::FlowSpec> flows) {
  std::stable_sort(flows.begin(), flows.end(),
                   [](const traffic::FlowSpec& a, const traffic::FlowSpec& b) {
                     return a.priority < b.priority;
                   });
  return flows;
}
}  // namespace

LambdaRegulatorBank::LambdaRegulatorBank(sim::SimContext ctx,
                                         std::vector<traffic::FlowSpec> flows,
                                         Rate capacity, Sink sink,
                                         Bits max_packet_bits,
                                         Time epoch_offset)
    : ctx_(ctx),
      epoch_offset_(epoch_offset),
      flows_(priority_ordered(std::move(flows))),
      capacity_(capacity),
      sink_(std::move(sink)),
      schedule_(flows_, capacity),
      queues_(flows_.size()) {
  // Slot overruns are absorbed by the idle tail when present and by
  // re-anchoring the period grid otherwise (advance() below); the drift
  // this introduces is at most ~half a packet per slot per period, well
  // inside the σ-margin the adaptive host configures.  max_packet_bits is
  // kept for API stability (a future strict-grid mode would need it).
  (void)max_packet_bits;
  resume();
}

std::size_t LambdaRegulatorBank::flow_index(FlowId id) const {
  for (std::size_t i = 0; i < flows_.size(); ++i) {
    if (flows_[i].id == id) return i;
  }
  throw std::invalid_argument("LambdaRegulatorBank: unknown flow id");
}

Bits LambdaRegulatorBank::total_backlog_bits() const {
  Bits sum = 0;
  for (const auto& q : queues_) sum += q.backlog_bits();
  return sum;
}

void LambdaRegulatorBank::offer(sim::Packet p) {
  const std::size_t i = flow_index(p.flow);
  queues_[i].push(std::move(p));
  if (running_ && current_slot_ == i) serve_current();
}

void LambdaRegulatorBank::pause() {
  running_ = false;
  pending_advance_ = false;
  boundary_event_.cancel();
}

void LambdaRegulatorBank::resume() {
  if (running_) return;
  running_ = true;
  begin_period(ctx_.now() + epoch_offset_);
}

void LambdaRegulatorBank::begin_period(Time start) {
  period_start_ = start;
  current_slot_ = 0;
  begin_slot(std::max(start, ctx_.now()));
}

void LambdaRegulatorBank::begin_slot(Time start) {
  // The slot keeps its full working period even when its start was shifted
  // by a predecessor's overrun; the idle tail absorbs the shift.
  slot_end_ = start + schedule_.slot_length(current_slot_);
  boundary_event_ = ctx_.schedule_at(
      std::max(slot_end_, ctx_.now() + kTinyGuard), [this] {
        if (!running_) return;
        if (busy_) {
          pending_advance_ = true;  // completion will advance
        } else {
          advance();
        }
      });
  serve_current();
}

void LambdaRegulatorBank::advance() {
  pending_advance_ = false;
  ++current_slot_;
  if (current_slot_ < schedule_.flow_count()) {
    begin_slot(std::max(ctx_.now(),
                        period_start_ + schedule_.slot_offset(current_slot_)));
    return;
  }
  // Idle tail: wait for the next fixed-grid period boundary.  min_idle
  // guarantees the accumulated overrun shift fits before it; re-anchor in
  // the (theoretically impossible) case it does not.
  Time next = period_start_ + schedule_.period();
  if (next <= ctx_.now()) next = ctx_.now() + kTinyGuard;
  boundary_event_ = ctx_.schedule_at(next, [this, next] {
    if (running_) begin_period(next);
  });
}

void LambdaRegulatorBank::serve_current() {
  if (!running_ || busy_) return;
  if (current_slot_ >= schedule_.flow_count()) return;  // idle tail
  auto& q = queues_[current_slot_];
  if (q.empty()) return;
  const Time now = ctx_.now();
  if (now + kTinyGuard >= slot_end_) return;  // slot is over
  const Time tx = q.front()->size / capacity_;
  busy_ = true;
  // Capture the slot index: the completion may land after the boundary
  // fired, so the pop must target the queue that was being served.
  const std::size_t serving = current_slot_;
  ctx_.schedule_in(tx, [this, serving] {
    busy_ = false;
    auto& queue = queues_[serving];
    if (!queue.empty()) {
      ++forwarded_;
      sink_(queue.pop());
    }
    if (pending_advance_) {
      advance();
    } else {
      serve_current();
    }
  });
}

}  // namespace emcast::core
