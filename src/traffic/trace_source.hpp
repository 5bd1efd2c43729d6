#pragma once
// Trace-driven traffic source: replays a recorded (or synthesized) binary
// trace through the engine-agnostic sim::SimContext, emitting each packet
// at the bit-identical double timestamp the trace stores.
//
// Replay shape.  All records sharing one timestamp are emitted inside a
// single event, in trace order — the same burst shape the synthetic
// sources produce (an MPEG frame is handed to the network at one instant)
// — and the next event is scheduled at the next distinct timestamp.  The
// chain therefore produces exactly one sink call per record, with
// created/hop_arrival equal to the recorded emission time, and per-source
// packet ids in emission order: everything downstream of the source
// boundary sees what the live run's pipeline saw, which is why a
// recorded-then-replayed run's canonical DeliveryTrace is byte-identical
// (pinned by the ShardedSimTraceReplay differential suite).
//
// Zero-alloc replay.  The source holds a TraceCursor (pointer arithmetic
// over the validated buffer) and a 32-byte self-rescheduling event
// capture; steady-state replay performs no heap allocation
// (tests/sim/engine_alloc_test.cpp pins it).  start() rewinds, so one
// TraceSource replays across warm Engine::reset() runs without rebuild.
//
// Group filtering.  A trace may interleave several flows (a whole
// multigroup workload in one file); `group` selects one flow's records
// (-1 replays everything).  Skipped records cost a decode step, not an
// event.

#include <cstdint>

#include "traffic/source.hpp"
#include "traffic/trace_format.hpp"
#include "util/types.hpp"

namespace emcast::traffic {

struct TraceSourceConfig {
  /// Validated trace to replay; non-owning, must outlive the source.
  const TraceBuffer* trace = nullptr;
  /// Replay only records with this group id; -1 replays every record.
  GroupId group = -1;
};

class TraceSource final : public Source {
 public:
  /// Scans the trace once to derive the replayed flow's (σ, ρ) view:
  /// mean_rate = replayed bits / replayed time span, nominal_burst = the
  /// largest same-instant bit burst plus the mean-rate excess headroom.
  /// Throws std::invalid_argument on a null trace.
  explicit TraceSource(const TraceSourceConfig& config);

  /// Begin replay.  Restartable: every start() rewinds the cursor and the
  /// packet-id sequence, so warm-reuse runs replay identically.
  void start(sim::SimContext ctx, PacketSink sink, Time until) override;

  Rate mean_rate() const override { return mean_rate_; }
  Bits nominal_burst() const override { return burst_; }

  /// Records matching the group filter (what replay will emit).
  std::uint64_t matched_records() const { return matched_; }
  Time first_time() const { return first_time_; }
  Time last_time() const { return last_time_; }

 private:
  /// Decode forward to the next group-matching record into current_.
  bool advance();
  void schedule_train(sim::SimContext ctx, Time until);
  void emit(sim::SimContext ctx, Time until, bool last);

  TraceSourceConfig config_;
  TraceCursor cursor_;
  TraceRecord current_{};
  bool has_current_ = false;

  // Construction-time scan results.
  std::uint64_t matched_ = 0;
  Time first_time_ = 0;
  Time last_time_ = 0;
  Rate mean_rate_ = 0;
  Bits burst_ = 0;

  PacketSink sink_;
  sim::PacketIdAllocator ids_;
};

}  // namespace emcast::traffic
