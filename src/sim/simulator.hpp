#pragma once
// The simulation kernel: a virtual clock driving the event queue.
// Components hold a SimContext (or a Simulator& directly) and schedule
// callbacks; there is no global state, so many simulations run
// concurrently on different threads (one Simulator per sweep point).
//
// Reuse.  A kernel is built once and may run MANY simulations: reset()
// (or reset_discarding()) rewinds the clock and counters while keeping
// every arena of the queue warm, so the second and later runs perform
// zero steady-state allocations from their first event on.  See the
// reset() contract below for exactly what survives and what is
// invalidated.

#include <cassert>
#include <cstdint>
#include <stdexcept>
#include <utility>

#include "sim/event_queue.hpp"
#include "util/types.hpp"

namespace emcast::sim {

class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  Time now() const { return now_; }

  /// Schedule fn at now()+delay (delay >= 0).  The callable goes straight
  /// into the event queue's slot storage — no temporaries, no allocation
  /// once the slot slabs are warm.  The returned handle is valid until the
  /// event fires, is cancelled, or the kernel is reset (after any of
  /// those, cancel()/pending() on it are safe no-ops).
  template <typename F>
  EventHandle schedule_in(Time delay, F&& fn) {
    // Negated >= so NaN falls through to the throw: `delay < 0.0` is false
    // for NaN, which would otherwise poison now_ + delay and corrupt the
    // pending-set ordering downstream.
    if (!(delay >= 0.0)) {
      throw std::invalid_argument("schedule_in: negative or NaN delay");
    }
    return queue_.push(now_ + delay, std::forward<F>(fn));
  }

  /// Schedule fn at absolute time t >= now().  Handle semantics as above.
  template <typename F>
  EventHandle schedule_at(Time t, F&& fn) {
    if (!(t >= now_)) {  // rejects NaN as well as times in the past
      throw std::invalid_argument("schedule_at: time in the past or NaN");
    }
    return queue_.push(t, std::forward<F>(fn));
  }

  /// Run until the event queue drains or the clock passes `until`.
  /// Returns the number of events executed.
  std::uint64_t run(Time until = kTimeInfinity) {
    const RunGuard guard{this};
    stop_requested_ = false;
    std::uint64_t executed = 0;
    while (!stop_requested_ && !queue_.empty()) {
      // next_time() skims cancelled events, so the subsequent fire_next()
      // finds a live event at the pending-set front without rescanning.
      const Time t = queue_.next_time();
      if (t > until) break;
      assert(t + 1e-12 >= now_ && "event time went backwards");
      now_ = t;
      queue_.fire_next();
      ++executed;
    }
    // Advance the clock to the horizon when we ran out of events before it;
    // callers that measure rates rely on now() == until afterwards.
    if (!stop_requested_ && until != kTimeInfinity && now_ < until &&
        queue_.empty()) {
      now_ = until;
    }
    events_executed_ += executed;
    return executed;
  }

  /// Window-bounded run for the sharded scheduler: execute every event
  /// strictly *before* `bound` and stop, leaving the clock at the last
  /// fired event.  The exclusive bound is what makes conservative windows
  /// airtight — a cross-shard arrival stamped exactly at a window end W
  /// can never race an event this call executes, because nothing at or
  /// past W runs until the next window.  Returns events executed.
  std::uint64_t run_before(Time bound) {
    const RunGuard guard{this};
    std::uint64_t executed = 0;
    while (!queue_.empty()) {
      const Time t = queue_.next_time();
      if (!(t < bound)) break;
      assert(t + 1e-12 >= now_ && "event time went backwards");
      now_ = t;
      queue_.fire_next();
      ++executed;
    }
    events_executed_ += executed;
    return executed;
  }

  /// Rewind the kernel for another simulation, keeping every arena warm.
  ///
  /// Survives a reset: the event queue's callback slabs, occupant arrays
  /// and free lists, the pending set's buffers (node pool, bucket
  /// arrays, overflow heap, scratch), and the internal event sequence
  /// counter (kept monotone, so pre-reset handles stay stale forever).
  /// Invalidated: the clock (rewound to `now`), the stop flag, the
  /// events_executed() counter (restarts at zero), and every outstanding
  /// EventHandle — stale handles remain SAFE (cancel()/pending() are
  /// no-ops) but can never address a post-reset event.  Model-side state
  /// the kernel does not own — components, tracers, RNG streams — is
  /// untouched and must be rebuilt or re-seeded by the caller.
  ///
  /// This strict flavour rejects a queue that still holds live events
  /// (std::logic_error): silently discarding them is almost always a bug
  /// in a model that believed its run had drained.  Runs that stop at a
  /// horizon legitimately leave beyond-horizon events behind; use
  /// reset_discarding() there.  Both flavours throw std::logic_error when
  /// invoked from inside an executing event (reset mid-run would destroy
  /// the very capture the queue is firing) and std::invalid_argument for
  /// a negative or non-finite `now`.
  void reset(Time now = 0.0) {
    if (!queue_.empty()) {
      throw std::logic_error(
          "Simulator::reset: events pending — drain the run or use "
          "reset_discarding()");
    }
    reset_discarding(now);
  }

  /// reset(), but discard any still-pending events (captures destroyed,
  /// slots recycled).  Same guards and same warm-arena contract otherwise.
  void reset_discarding(Time now = 0.0) {
    if (run_depth_ != 0) {
      throw std::logic_error("Simulator::reset: reset mid-run");
    }
    if (!(now >= 0.0) || now == kTimeInfinity) {
      throw std::invalid_argument(
          "Simulator::reset: negative, infinite or NaN time");
    }
    queue_.clear();
    now_ = now;
    stop_requested_ = false;
    events_executed_ = 0;
  }

  /// Time of the earliest pending event (kTimeInfinity when drained).
  Time next_event_time() { return queue_.next_time(); }

  /// Request run() to return after the current event completes.
  void stop() { stop_requested_ = true; }

  std::uint64_t events_executed() const { return events_executed_; }

 private:
  /// Marks the kernel as executing so reset() can reject mid-run calls
  /// even when the request arrives from inside a fired event.  A depth
  /// counter (not a flag) keeps the guard correct under re-entrant runs.
  struct RunGuard {
    Simulator* sim;
    explicit RunGuard(Simulator* s) : sim(s) { ++sim->run_depth_; }
    ~RunGuard() { --sim->run_depth_; }
  };

  EventQueue queue_;
  Time now_ = 0.0;
  bool stop_requested_ = false;
  int run_depth_ = 0;
  std::uint64_t events_executed_ = 0;
};

}  // namespace emcast::sim
