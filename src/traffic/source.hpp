#pragma once
// Traffic source interface.  A source emits packets into a sink callback on
// its own schedule; arrivals at the same instant model an application-layer
// burst (e.g. one video frame handed to the network at once) that the
// downstream regulator/link serialises.

#include <cstddef>

#include "sim/context.hpp"
#include "sim/packet.hpp"
#include "traffic/flow_spec.hpp"
#include "util/types.hpp"

namespace emcast::traffic {

/// Non-allocating sink: the same inline-capture callback type the per-hop
/// pipeline uses (sim::PacketFn, 56-byte capture bound).  Sinks capture a
/// few pointers/indices; bigger state belongs behind a pointer.  Move-only
/// — a source takes ownership of its sink at start().
using PacketSink = sim::PacketFn;

/// Emission ticks a self-clocked source (CBR, MPEG, trace replay)
/// schedules per train: a train's ticks are all scheduled when it
/// starts, and its last tick starts the next train.  The length is part
/// of the model's event order — under exact time ties, a tick scheduled
/// at its train's start fires before an event scheduled later for the
/// same instant — so changing it (or chaining one tick at a time) changes
/// traces.
inline constexpr std::size_t kTrainTicks = 16;

class Source {
 public:
  virtual ~Source() = default;

  /// Begin emitting into `sink` from ctx.now() until `until`.  `ctx` is
  /// the engine-agnostic kernel handle (a plain Simulator converts
  /// implicitly); in a sharded simulation it is the context of the shard
  /// owning the source's host, so all emission events stay shard-local.
  virtual void start(sim::SimContext ctx, PacketSink sink, Time until) = 0;

  /// Long-term average rate ρ of the model [bits/s].
  virtual Rate mean_rate() const = 0;

  /// Model-derived burst allowance σ [bits]: the largest excess over the
  /// mean-rate line the model can produce (talkspurt / GoP analysis).
  virtual Bits nominal_burst() const = 0;

  /// Convenience (σ, ρ) descriptor for the regulators.
  FlowSpec spec(FlowId id) const {
    return FlowSpec{id, nominal_burst(), mean_rate()};
  }
};

}  // namespace emcast::traffic
