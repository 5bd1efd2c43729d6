// Warm-reuse contract of the kernel stack (PR 5): EventQueue::clear,
// Simulator::reset/reset_discarding, ShardedSimulator::reset and
// Engine::reset keep every arena warm while rewinding all run state, and
// the misuse guards — reset while events pending, reset mid-run, handles
// from a pre-reset epoch — reject or stay safe exactly as documented.
// The sharded suites are named ShardedSim* so they ride the concurrency
// ctest filter (and the TSan CI job) automatically.

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "sim/context.hpp"
#include "sim/event_queue.hpp"
#include "sim/sharded_simulator.hpp"
#include "sim/simulator.hpp"

namespace emcast::sim {
namespace {

// ---- EventQueue::clear --------------------------------------------------

TEST(EventQueueClear, DiscardsPendingAndDestroysCaptures) {
  EventQueue q;
  int destroyed = 0;
  struct Probe {
    int* destroyed;
    bool armed = true;
    Probe(int* d) : destroyed(d) {}
    Probe(Probe&& other) noexcept
        : destroyed(other.destroyed), armed(other.armed) {
      other.armed = false;
    }
    ~Probe() {
      if (armed) ++*destroyed;
    }
    void operator()() const {}
  };
  q.push(1.0, Probe{&destroyed});
  q.push(2.0, Probe{&destroyed});
  ASSERT_EQ(q.live_count(), 2u);
  q.clear();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size_including_dead(), 0u);
  EXPECT_EQ(destroyed, 2) << "clear must run the capture destructors";
}

TEST(EventQueueClear, PreClearEpochHandleIsPermanentlyStale) {
  EventQueue q;
  EventHandle old = q.push(1.0, [] {});
  q.clear();
  EXPECT_FALSE(old.pending());
  // The recycled free list reissues slot 0 first, so the new event
  // reoccupies exactly the old handle's slot — the monotone sequence
  // counter is what keeps the epochs apart.
  bool fired = false;
  EventHandle fresh = q.push(1.0, [&fired] { fired = true; });
  EXPECT_FALSE(old.pending());
  old.cancel();  // must be a no-op, not a cancellation of the new event
  EXPECT_TRUE(fresh.pending());
  q.fire_next();
  EXPECT_TRUE(fired);
}

TEST(EventQueueClear, KeepsArenasWarmAndReturnsToSmallMode) {
  EventQueue q;
  // Grow past the small-mode threshold so the calendar machinery exists.
  for (int i = 0; i < 3000; ++i) q.push(static_cast<double>(i), [] {});
  ASSERT_FALSE(q.pending_set().small_mode());
  const std::size_t pool_cap = q.pending_set().pool_capacity();
  ASSERT_GT(pool_cap, 0u);
  q.clear();
  EXPECT_TRUE(q.empty());
  EXPECT_TRUE(q.pending_set().small_mode())
      << "clear returns to the fresh logical state (day width re-derived "
         "lazily at the next promotion rebuild)";
  EXPECT_EQ(q.pending_set().pool_capacity(), pool_cap)
      << "the node-pool arena must survive clear";
  // The warmed queue is immediately usable and pops in (time, seq) order.
  q.push(5.0, [] {});
  q.push(3.0, [] {});
  EXPECT_EQ(q.fire_next(), 3.0);
  EXPECT_EQ(q.fire_next(), 5.0);
}

// ---- Simulator::reset ---------------------------------------------------

TEST(SimulatorReset, StrictResetRejectsPendingEvents) {
  Simulator sim;
  sim.schedule_in(1.0, [] {});
  EXPECT_THROW(sim.reset(), std::logic_error);
  // The event survived the rejected reset.
  EXPECT_EQ(sim.run(), 1u);
  // Drained kernel: the strict reset is now legal.
  EXPECT_NO_THROW(sim.reset());
  EXPECT_EQ(sim.now(), 0.0);
}

TEST(SimulatorReset, DiscardingResetRewindsClockAndCounters) {
  Simulator sim;
  sim.schedule_in(1.0, [] {});
  sim.schedule_in(2.0, [] {});
  sim.run(1.5);  // one event executed, one still pending
  ASSERT_EQ(sim.events_executed(), 1u);
  // The clock stays at the last fired event: the queue is not drained, so
  // run() does not advance to the horizon.
  ASSERT_EQ(sim.now(), 1.0);
  sim.reset_discarding();
  EXPECT_EQ(sim.now(), 0.0);
  EXPECT_EQ(sim.events_executed(), 0u);
  EXPECT_EQ(sim.next_event_time(), kTimeInfinity) << "leftovers discarded";
  // Rewind to a nonzero epoch: schedule_at guards against the new clock.
  sim.reset(5.0);
  EXPECT_EQ(sim.now(), 5.0);
  EXPECT_THROW(sim.schedule_at(1.0, [] {}), std::invalid_argument);
  bool fired = false;
  sim.schedule_at(6.0, [&fired] { fired = true; });
  sim.run();
  EXPECT_TRUE(fired);
  EXPECT_EQ(sim.now(), 6.0);
}

TEST(SimulatorReset, ResetMidRunThrows) {
  Simulator sim;
  sim.schedule_in(1.0, [&sim] { sim.reset_discarding(); });
  EXPECT_THROW(sim.run(), std::logic_error);
  Simulator strict;
  strict.schedule_in(1.0, [&strict] { strict.reset(); });
  EXPECT_THROW(strict.run(), std::logic_error);
}

TEST(SimulatorReset, ResetValidatesTime) {
  Simulator sim;
  EXPECT_THROW(sim.reset(-1.0), std::invalid_argument);
  EXPECT_THROW(sim.reset(std::numeric_limits<double>::quiet_NaN()),
               std::invalid_argument);
  EXPECT_THROW(sim.reset(kTimeInfinity), std::invalid_argument);
}

TEST(SimulatorReset, ReusedKernelExecutesTheIdenticalSchedule) {
  // The byte-identical-order contract at kernel level: a reused kernel
  // fires the same workload in exactly the order a fresh kernel does,
  // ties and cancellations included.
  auto record = [](Simulator& sim) {
    std::vector<int> order;
    std::vector<EventHandle> cancel_me;
    for (int i = 0; i < 64; ++i) {
      // Deliberate exact-time ties (i / 8 collides): order must follow
      // scheduling sequence.
      const double t = static_cast<double>(i / 8);
      if (i % 5 == 0) {
        cancel_me.push_back(sim.schedule_at(t, [&order] { order.push_back(-1); }));
      }
      sim.schedule_at(t, [&order, i] { order.push_back(i); });
    }
    for (auto& h : cancel_me) h.cancel();
    sim.run();
    return order;
  };
  Simulator fresh;
  const std::vector<int> want = record(fresh);

  Simulator reused;
  // A *different* first workload, so the slot/seq state genuinely differs
  // before the reset.
  for (int i = 0; i < 500; ++i) {
    reused.schedule_in(0.25 * i, [] {});
  }
  reused.run(60.0);
  reused.reset_discarding();
  EXPECT_EQ(record(reused), want);
}

// ---- Engine::reset (single backend) -------------------------------------

TEST(EngineReuse, SingleBackendResetRerunsIdentically) {
  EngineConfig ec;  // Single
  Engine engine(ec);
  std::vector<Time> arrivals;
  engine.set_deliver([&arrivals](SimContext ctx, HostId host, const Packet& p) {
    arrivals.push_back(ctx.now());
    if (p.id < 4) {
      Packet next = p;
      ++next.id;
      ctx.deliver(host, next, ctx.now() + 0.5);
    }
  });
  SimContext ctx = engine.context();  // obtained once, kept across resets
  auto kick = [&] {
    Packet p;
    p.id = 0;
    ctx.deliver(0, p, 0.25);
    return engine.run(10.0);
  };
  const std::uint64_t events_first = kick();
  const std::vector<Time> first = arrivals;
  ASSERT_EQ(first.size(), 5u);

  engine.reset();
  arrivals.clear();
  EXPECT_EQ(kick(), events_first) << "telemetry restarts at zero";
  EXPECT_EQ(arrivals, first) << "warm rerun must replay bit-identically";
}

// ---- ShardedSimulator / Engine::reset (sharded) -------------------------

TEST(ShardedSimReuse, ResetRerunsByteIdentically) {
  EngineConfig ec;
  ec.kind = EngineKind::Sharded;
  ec.shards = 2;
  ec.threads = 1;  // schedule is thread-count independent
  ec.lookahead = 0.5;
  ec.mailbox_capacity = 4;  // keep the spill path hot across the reset
  ec.shard_of = {0, 0, 1, 1};
  Engine engine(ec);
  std::vector<std::pair<Time, HostId>> arrivals;
  engine.set_deliver(
      [&arrivals](SimContext ctx, HostId host, const Packet& p) {
        arrivals.push_back({ctx.now(), host});
        if (p.id == 1 && ctx.now() < 8.0) {
          Packet copy = p;
          const HostId remote = host < 2 ? 2 : 0;
          for (int i = 0; i < 6; ++i) {  // burst > ring capacity: spills
            copy.id = i == 0 ? 1 : 0;
            ctx.deliver(remote, copy, ctx.now() + ctx.lookahead());
          }
        }
      });
  auto kick = [&engine] {
    SimContext s0 = engine.context(0);
    s0.schedule_at(0.0, [s0] {
      Packet p;
      p.id = 1;
      s0.deliver(2, p, 0.5);
    });
    engine.run(10.0);
  };
  kick();
  const auto first = arrivals;
  const std::uint64_t posted_first = engine.messages_posted();
  ASSERT_GT(first.size(), 0u);
  ASSERT_GT(posted_first, 0u);
  ASSERT_GT(engine.messages_spilled(), 0u);

  engine.reset();
  EXPECT_EQ(engine.messages_posted(), 0u) << "telemetry restarts at zero";
  EXPECT_EQ(engine.events_executed(), 0u);
  EXPECT_EQ(engine.rounds(), 0u);
  arrivals.clear();
  kick();
  EXPECT_EQ(arrivals, first);
  EXPECT_EQ(engine.messages_posted(), posted_first);
}

TEST(ShardedSimReuse, RebindShardMapAndLookaheadRoutesTheNextRun) {
  EngineConfig ec;
  ec.kind = EngineKind::Sharded;
  ec.shards = 2;
  ec.threads = 1;
  ec.lookahead = 0.5;
  ec.shard_of = {0, 0, 1, 1};
  Engine engine(ec);
  std::vector<std::size_t> observed_shards;
  engine.set_deliver(
      [&observed_shards](SimContext ctx, HostId, const Packet&) {
        observed_shards.push_back(ctx.shard_index());
      });
  SimContext s0 = engine.context(0);
  s0.schedule_at(0.0, [s0] {
    Packet p;
    s0.deliver(3, p, 0.5);  // host 3 owned by shard 1 under the first map
  });
  engine.run(2.0);
  ASSERT_EQ(observed_shards, (std::vector<std::size_t>{1}));

  // Rebind: hosts swap owners, lookahead shrinks for the next run.
  engine.reset({1, 1, 0, 0}, 0.25);
  EXPECT_EQ(engine.lookahead(), 0.25);
  EXPECT_EQ(engine.shard_of_host(3), 0u);
  observed_shards.clear();
  SimContext s1 = engine.context(1);
  s1.schedule_at(0.0, [s1] {
    Packet p;
    s1.deliver(3, p, 0.5);  // host 3 now owned by shard 0: crosses shards
  });
  engine.run(2.0);
  EXPECT_EQ(observed_shards, (std::vector<std::size_t>{0}));
  EXPECT_GT(engine.messages_posted(), 0u) << "the rebound route is remote";
}

TEST(ShardedSimReuse, RebindValidatesMapAndLookahead) {
  EngineConfig ec;
  ec.kind = EngineKind::Sharded;
  ec.shards = 2;
  ec.threads = 1;
  ec.lookahead = 0.5;
  ec.shard_of = {0, 1};
  Engine engine(ec);
  EXPECT_THROW(engine.reset({0, 2}, 0.5), std::invalid_argument)
      << "entry out of range";
  EXPECT_THROW(engine.reset({}, 0.5), std::invalid_argument)
      << "shards > 1 needs a map";
  EXPECT_THROW(engine.reset({0, 1}, 0.0), std::invalid_argument)
      << "lookahead must be > 0";
  EXPECT_THROW(engine.reset({0, 1}, kTimeInfinity), std::invalid_argument);
  // The failed rebinds left the old routing intact.
  EXPECT_EQ(engine.lookahead(), 0.5);
  EXPECT_EQ(engine.shard_of_host(1), 1u);

  Engine single{EngineConfig{}};
  EXPECT_THROW(single.reset({0}, 0.5), std::invalid_argument)
      << "rebinding a map on a Single engine is a misuse";
}

TEST(ShardedSimReuse, BareShardedResetValidatesLookahead) {
  ShardedConfig cfg;
  cfg.shards = 2;
  cfg.threads = 1;
  cfg.lookahead = 0.5;
  ShardedSimulator sharded(cfg);
  EXPECT_THROW(sharded.reset(std::numeric_limits<double>::quiet_NaN()),
               std::invalid_argument)
      << "NaN must reach the throw, not silently keep the stale value";
  EXPECT_THROW(sharded.reset(kTimeInfinity), std::invalid_argument);
  sharded.reset(0.0);  // <= 0: keep the current lookahead
  EXPECT_EQ(sharded.lookahead(), 0.5);
  sharded.reset(0.25);
  EXPECT_EQ(sharded.lookahead(), 0.25);
}

}  // namespace
}  // namespace emcast::sim
