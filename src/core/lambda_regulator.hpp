#pragma once
// The (σ, ρ, λ) regulator bank — the paper's novel mechanism.
//
// One bank regulates all K flows entering an end host.  Each flow i cycles
// between an on-state (working period Wᵢ, during which its backlog drains
// work-conservingly at the full line rate C) and an off-state (vacation
// Vᵢ, during which its output is blocked).  The bank staggers the K
// working periods with a TurnSchedule so at most one flow transmits at any
// instant — simultaneous bursts can no longer collide at the multiplexer,
// which is where the high-load delay win comes from (Theorems 5/6).
//
// Packet service is non-preemptive: a packet that starts inside its slot
// may finish past the boundary (an overrun of at most one transmission).
// The next slot then starts at the completion instant but keeps its *full*
// working period, so no slot's service budget is stolen; the accumulated
// shift (≤ one packet per slot) is absorbed by the idle tail of the
// period, which the schedule inflates to guarantee (min_idle), keeping
// every period aligned to the fixed epoch grid.

#include <vector>

#include "core/turn_schedule.hpp"
#include "sim/context.hpp"
#include "sim/fifo_queue.hpp"
#include "sim/packet.hpp"
#include "traffic/flow_spec.hpp"
#include "util/types.hpp"

namespace emcast::core {

class LambdaRegulatorBank {
 public:
  using Sink = sim::PacketFn;

  /// Flow order defines slot order.  `capacity` is the host output rate C.
  /// `max_packet_bits` bounds a single packet (used to size the idle tail
  /// that absorbs slot overruns).
  /// `epoch_offset` shifts the period grid: slot 0 of each period starts
  /// at (resume time + offset + m·P).  Multicast deployments stagger the
  /// offset by tree depth so a packet released in its flow's working
  /// period arrives inside the same working period downstream and rides
  /// the TDMA wave instead of paying a vacation per hop.
  LambdaRegulatorBank(sim::SimContext ctx,
                      std::vector<traffic::FlowSpec> flows, Rate capacity,
                      Sink sink, Bits max_packet_bits = 12000.0,
                      Time epoch_offset = 0.0);

  /// Submit a packet of flow `flows[i]` (matched by FlowSpec::id).
  void offer(sim::Packet p);

  const TurnSchedule& schedule() const { return schedule_; }
  Rate capacity() const { return capacity_; }

  Bits backlog_bits(std::size_t i) const { return queues_[i].backlog_bits(); }
  Bits total_backlog_bits() const;
  std::uint64_t forwarded() const { return forwarded_; }

  /// Stop the slot rotation (used when the adaptive host switches away
  /// from (σ, ρ, λ) mode).  resume() re-anchors the schedule at now.
  void pause();
  void resume();
  bool running() const { return running_; }

  /// Remove every queued packet, handing each to `fn` in per-flow FIFO
  /// order (slot by slot).  Used by the adaptive host to migrate backlog
  /// when switching models; `fn` must not offer back into this bank.
  template <typename Fn>
  void drain(Fn&& fn) {
    for (auto& q : queues_) {
      while (!q.empty()) fn(q.pop());
    }
  }

  /// Self plus owned heap (memory-budget convention, see core::Mux; the
  /// small TurnSchedule heap is priced inside sizeof via its slot count
  /// approximation being negligible and is ignored).
  std::size_t memory_bytes() const {
    std::size_t bytes = sizeof(*this) +
                        flows_.capacity() * sizeof(traffic::FlowSpec) +
                        queues_.capacity() * sizeof(sim::FifoQueue);
    for (const auto& q : queues_) bytes += q.heap_bytes();
    return bytes;
  }

 private:
  std::size_t flow_index(FlowId id) const;
  void begin_period(Time start);
  void begin_slot(Time start);
  void advance();
  void serve_current();

  sim::SimContext ctx_;
  Time epoch_offset_ = 0.0;
  std::vector<traffic::FlowSpec> flows_;
  Rate capacity_;
  Sink sink_;
  TurnSchedule schedule_;
  std::vector<sim::FifoQueue> queues_;

  Time period_start_ = 0;        ///< fixed-grid start of the current period
  std::size_t current_slot_ = 0; ///< flow_count() = idle tail
  Time slot_end_ = 0;            ///< absolute end of the current slot
  bool busy_ = false;            ///< a packet is on the wire
  bool pending_advance_ = false; ///< boundary passed while transmitting
  bool running_ = false;
  sim::EventHandle boundary_event_;
  std::uint64_t forwarded_ = 0;
};

}  // namespace emcast::core
