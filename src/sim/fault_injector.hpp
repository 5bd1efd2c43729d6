#pragma once
// Mid-run fault injection: a deterministic, pre-resolved timeline of fault
// events scheduled through the ordinary event machinery of EVERY kernel an
// Engine owns.
//
// The subsystem is deliberately model-agnostic (sim/ must not depend on
// overlay/ or experiments/): a FaultEvent is an opaque (time, kind,
// subject) triple, and the model supplies one FaultFn that interprets it.
// What makes this sharding-safe is the *replication* discipline the
// experiments build on top:
//
//   - the schedule is resolved OFFLINE, before the run, so every kernel
//     holds the identical timeline (no mid-run randomness, no cross-shard
//     agreement protocol);
//   - arm() schedules the timeline on every kernel of the engine as a
//     self-chaining event (each firing schedules the next), so each shard
//     replays the same faults at the same simulated times on its own
//     clock;
//   - the handler mutates only per-kernel replica state (indexed by
//     ctx.shard_index()), which therefore stays bit-identical across
//     shards — the property the churn differential suite pins.
//
// Zero steady-state allocation: the schedule and handler are set up once
// (setup-time allocation); arm() and the chain events use the kernel's
// event slots ([injector, ctx, index] is 32 bytes, under the 56-byte
// EventFn bound), so re-arming a warm engine after reset() allocates
// nothing.

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/context.hpp"
#include "util/types.hpp"

namespace emcast::sim {

/// One scheduled fault.  `kind` and `subject` are model-defined opcodes —
/// the experiments layer maps its churn actions (crash, splice, leave,
/// join) onto them; the sim layer never interprets them.
struct FaultEvent {
  Time at = 0;
  std::uint32_t kind = 0;
  std::int32_t subject = -1;

  friend bool operator==(const FaultEvent& a, const FaultEvent& b) {
    return a.at == b.at && a.kind == b.kind && a.subject == b.subject;
  }
};

/// Invoked once per fault event per kernel, at the event's simulated time,
/// on the kernel's own timeline (ctx identifies the kernel).
using FaultFn = std::function<void(SimContext, const FaultEvent&)>;

class FaultInjector {
 public:
  FaultInjector() = default;
  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Install the fault timeline.  Events are stable-sorted by time;
  /// every time must be finite and >= 0 (arm() schedules from t = 0).
  void set_schedule(std::vector<FaultEvent> schedule);

  /// Install the model's interpreter.  May capture heap state; called
  /// once per event per kernel.
  void set_handler(FaultFn handler) { handler_ = std::move(handler); }

  const std::vector<FaultEvent>& schedule() const { return schedule_; }

  /// Schedule the timeline's first event on every kernel of `engine`;
  /// each firing chains the next.  Call after the engine (re)set and
  /// before run(); re-arming a warm engine allocates nothing.  The
  /// injector must outlive the run.
  void arm(Engine& engine);

 private:
  void fire(SimContext ctx, std::size_t index);

  std::vector<FaultEvent> schedule_;
  FaultFn handler_;
};

}  // namespace emcast::sim
