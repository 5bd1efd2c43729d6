#pragma once
// The general MUX of Sections III–IV: a work-conserving multiplexer that
// merges the flows arriving on an end host's input links into its single
// output link of capacity C.  "General" means a packet of one flow may
// have priority over another's — we implement strict priority classes with
// FIFO order inside a class (priority 0 = highest); with all packets in
// one class this degenerates to plain FIFO, the configuration used by the
// paper's experiments.

#include <array>

#include "sim/context.hpp"
#include "sim/fifo_queue.hpp"
#include "sim/packet.hpp"
#include "util/types.hpp"

namespace emcast::core {

/// Service order inside the MUX.  Both are work-conserving, so both are
/// "general MUXes" in the paper's sense; they differ in how adversarial
/// the overtaking is:
///   PriorityFifo        — strict priority across classes, FIFO inside a
///                         class (realises the per-class Cruz bound).
///   PriorityLifoLowest  — strict priority across classes, LIFO inside the
///                         *lowest occupied* class: a tagged packet can be
///                         overtaken even by its own flow's later packets,
///                         which is the adversary behind the paper's
///                         Dg = Σσ/(1−Σρ) worst case.
///
/// Every service decision — class selection, the lowest-occupied test and
/// the LIFO pick — is deliberately a function of (decision time, queue
/// content): a packet enqueued at exactly the service-decision instant is
/// not yet visible to that decision (FifoQueue::has_entry_before /
/// pop_newest_before; a decision finding only same-instant packets falls
/// back to priority-FIFO, which converges with the engine where the tied
/// arrival started service itself).  With
/// identical packet sizes and a shared capacity C, upstream MUXs emit
/// back-to-back trains whose arrivals land on the same float-time grid as
/// local service completions, so such ties are structural, not
/// measure-zero — and a pick based on raw event order would make the
/// model's output depend on kernel tie-breaking, which a sharded engine
/// cannot reproduce (cross-shard arrivals are drain-scheduled).  FIFO
/// service converges under those ties without any rule.
enum class MuxDiscipline { PriorityFifo, PriorityLifoLowest };

class Mux {
 public:
  using Sink = sim::PacketFn;
  static constexpr std::size_t kPriorityClasses = 4;

  /// `ctx` is the engine-agnostic kernel handle (a plain Simulator
  /// converts implicitly); the MUX schedules only locally through it.
  Mux(sim::SimContext ctx, Rate capacity, Sink sink,
      MuxDiscipline discipline = MuxDiscipline::PriorityFifo);

  /// Submit a packet; service starts immediately when the server is idle
  /// (work conservation).
  void offer(sim::Packet p);

  Rate capacity() const { return capacity_; }
  bool busy() const { return busy_; }
  Bits backlog_bits() const;
  Bits peak_backlog_bits() const;
  std::uint64_t served() const { return served_; }

  MuxDiscipline discipline() const { return discipline_; }

  /// Footprint: self plus the class queues' ring storage (heap).
  /// Convention across the pipeline classes: memory_bytes() =
  /// sizeof(*this) + owned heap; composite owners subtract sizeof of
  /// by-value members they already counted inside their own sizeof.
  std::size_t memory_bytes() const {
    std::size_t bytes = sizeof(*this);
    for (const auto& q : classes_) bytes += q.heap_bytes();
    return bytes;
  }

 private:
  void start_service();
  sim::FifoQueue* highest_nonempty();
  /// Highest-priority class holding a packet enqueued strictly before
  /// `now` (the decision's visibility rule); null when nothing qualifies.
  sim::FifoQueue* highest_visible(Time now);
  /// True when `q` is the lowest-priority class with visible packets —
  /// the class LIFO service applies to.
  bool is_lowest_visible(const sim::FifoQueue* q, Time now) const;

  sim::SimContext ctx_;
  Rate capacity_;
  Sink sink_;
  MuxDiscipline discipline_;
  std::array<sim::FifoQueue, kPriorityClasses> classes_;
  bool busy_ = false;
  Bits peak_backlog_ = 0;
  std::uint64_t served_ = 0;
};

}  // namespace emcast::core
