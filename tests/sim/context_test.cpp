// The engine-agnostic component API: SimContext over a bare kernel, over
// an Engine's single backend, and over an Engine's sharded backend.  The
// deliver() contract under test: the registered handler fires AT the
// arrival time, on the kernel owning the destination host, identically on
// every backend.

#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "sim/context.hpp"

namespace emcast::sim {
namespace {

TEST(SimContext, WrapsABareKernelImplicitly) {
  Simulator sim;
  SimContext ctx = sim;  // the migration path for single-kernel call sites
  ASSERT_TRUE(ctx.valid());
  EXPECT_EQ(ctx.shard_index(), 0u);
  EXPECT_DOUBLE_EQ(ctx.lookahead(), 0.0);

  std::vector<Time> fired;
  ctx.schedule_in(1.0, [&] { fired.push_back(ctx.now()); });
  ctx.schedule_at(0.5, [&] { fired.push_back(ctx.now()); });
  sim.run();
  ASSERT_EQ(fired.size(), 2u);
  EXPECT_DOUBLE_EQ(fired[0], 0.5);
  EXPECT_DOUBLE_EQ(fired[1], 1.0);
  EXPECT_DOUBLE_EQ(sim.now(), 1.0);
}

TEST(SimContext, CancelAndStopForwardToTheKernel) {
  Simulator sim;
  SimContext ctx = sim;
  int fired = 0;
  EventHandle h = ctx.schedule_at(1.0, [&] { ++fired; });
  ctx.cancel(h);
  ctx.schedule_at(2.0, [&] {
    ++fired;
    ctx.stop();
  });
  ctx.schedule_at(3.0, [&] { ++fired; });
  sim.run();
  EXPECT_EQ(fired, 1) << "cancelled event must not fire; stop() must halt";
}

TEST(SimContext, DefaultConstructedIsInvalid) {
  SimContext ctx;
  EXPECT_FALSE(ctx.valid());
}

TEST(SimEngine, SingleBackendDeliversThroughTheHandler) {
  EngineConfig ec;  // defaults: Single
  Engine engine(ec);
  EXPECT_EQ(engine.kind(), EngineKind::Single);
  EXPECT_EQ(engine.shard_count(), 1u);

  struct Arrival {
    Time at;
    HostId host;
    std::uint64_t id;
  };
  std::vector<Arrival> arrivals;
  engine.set_deliver([&](SimContext ctx, HostId host, const Packet& p) {
    // Every host is local on the single backend.
    EXPECT_EQ(ctx.shard_index(), engine.shard_of_host(host));
    arrivals.push_back({ctx.now(), host, p.id});
  });

  SimContext ctx = engine.context();
  Packet p;
  p.id = 7;
  ctx.deliver(41, p, 1.25);
  p.id = 8;
  ctx.deliver(3, p, 0.5);
  engine.run();

  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_DOUBLE_EQ(arrivals[0].at, 0.5);
  EXPECT_EQ(arrivals[0].host, 3);
  EXPECT_EQ(arrivals[0].id, 8u);
  EXPECT_DOUBLE_EQ(arrivals[1].at, 1.25);
  EXPECT_EQ(arrivals[1].host, 41);
  EXPECT_EQ(arrivals[1].id, 7u);
}

TEST(SimEngine, RejectsInconsistentConfigs) {
  {
    EngineConfig ec;
    ec.kind = EngineKind::Single;
    ec.shards = 2;
    EXPECT_THROW(Engine{ec}, std::invalid_argument);
  }
  {
    EngineConfig ec;
    ec.kind = EngineKind::Sharded;
    ec.shards = 2;
    ec.lookahead = 0.5;  // fine — but no host map
    EXPECT_THROW(Engine{ec}, std::invalid_argument);
  }
  {
    EngineConfig ec;
    ec.kind = EngineKind::Sharded;
    ec.shards = 2;
    ec.shard_of = {0, 1};
    ec.lookahead = 0.0;  // ShardedSimulator rejects non-positive lookahead
    EXPECT_THROW(Engine{ec}, std::invalid_argument);
  }
  {
    EngineConfig ec;
    ec.kind = EngineKind::Sharded;
    ec.shards = 2;
    ec.shard_of = {0, 2};  // entry out of range: would index past backends
    ec.lookahead = 0.5;
    EXPECT_THROW(Engine{ec}, std::invalid_argument);
  }
  {
    // A leftover map on a Single engine is dropped, not honoured: every
    // host resolves to the one backend instead of indexing past it.
    EngineConfig ec;
    ec.kind = EngineKind::Single;
    ec.shard_of = {0, 0, 0};
    Engine engine(ec);
    EXPECT_EQ(engine.shard_of_host(2), 0u);
    EXPECT_TRUE(engine.context_for_host(2).valid());
  }
}

/// Sharded routing: hosts 0,1 on shard 0; hosts 2,3 on shard 1.
EngineConfig two_shard_config(std::size_t threads) {
  EngineConfig ec;
  ec.kind = EngineKind::Sharded;
  ec.shards = 2;
  ec.threads = threads;
  ec.lookahead = 0.5;
  ec.shard_of = {0, 0, 1, 1};
  return ec;
}

TEST(ShardedSimEngine, RoutesDeliveriesToTheOwningShard) {
  for (const std::size_t threads : {1u, 2u}) {
    Engine engine(two_shard_config(threads));
    EXPECT_EQ(engine.shard_count(), 2u);
    EXPECT_EQ(engine.shard_of_host(1), 0u);
    EXPECT_EQ(engine.shard_of_host(2), 1u);

    struct Arrival {
      std::size_t shard;
      HostId host;
      Time at;
    };
    std::vector<Arrival> arrivals[2];
    engine.set_deliver([&](SimContext ctx, HostId host, const Packet&) {
      EXPECT_EQ(ctx.shard_index(), engine.shard_of_host(host))
          << "handler must fire on the owning shard";
      arrivals[ctx.shard_index()].push_back(
          {ctx.shard_index(), host, ctx.now()});
    });

    SimContext s0 = engine.context(0);
    EXPECT_DOUBLE_EQ(s0.lookahead(), 0.5);

    // From shard 0: one local handoff (host 1) and one remote (host 2,
    // respecting the lookahead contract).
    s0.schedule_at(0.0, [s0] {
      Packet p;
      p.id = 1;
      s0.deliver(1, p, 0.25);  // local: no lookahead constraint
      p.id = 2;
      s0.deliver(2, p, 0.75);  // remote: >= now + lookahead
    });
    engine.run(5.0);

    ASSERT_EQ(arrivals[0].size(), 1u) << threads << " threads";
    EXPECT_EQ(arrivals[0][0].host, 1);
    EXPECT_DOUBLE_EQ(arrivals[0][0].at, 0.25);
    ASSERT_EQ(arrivals[1].size(), 1u) << threads << " threads";
    EXPECT_EQ(arrivals[1][0].host, 2);
    EXPECT_DOUBLE_EQ(arrivals[1][0].at, 0.75);
    EXPECT_EQ(engine.messages_posted(), 1u);
  }
}

TEST(ShardedSimEngine, CrossShardVolleyThroughDeliver) {
  // Ping-pong a packet between the two shards purely through deliver():
  // each arrival re-delivers to a host of the other shard lookahead later.
  Engine engine(two_shard_config(2));
  std::vector<Time> arrivals[2];
  engine.set_deliver([&](SimContext ctx, HostId host, const Packet& p) {
    arrivals[ctx.shard_index()].push_back(ctx.now());
    if (ctx.now() < 2.9) {
      const HostId other = host < 2 ? 2 : 0;
      ctx.deliver(other, p, ctx.now() + ctx.lookahead());
    }
  });
  SimContext s0 = engine.context(0);
  s0.schedule_at(0.0, [s0] {
    Packet p;
    p.id = 1;
    s0.deliver(2, p, 0.5);
  });
  engine.run(10.0);
  // Bounces at 0.5, 1.0, ..., 3.0: odd bounces on shard 1.
  ASSERT_EQ(arrivals[1].size(), 3u);
  ASSERT_EQ(arrivals[0].size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_DOUBLE_EQ(arrivals[1][i], 0.5 + 1.0 * static_cast<double>(i));
    EXPECT_DOUBLE_EQ(arrivals[0][i], 1.0 + 1.0 * static_cast<double>(i));
  }
  EXPECT_EQ(engine.messages_posted(), 6u);
}

}  // namespace
}  // namespace emcast::sim
