// Sharded simulator suite: direct ShardedSimulator mechanics (window
// progression, message ordering, lookahead plans and matrices and the
// rule that they are never installed together, error propagation), plus
// the engine-level check of the unregulated multigroup model
// (RegulationScheme::None) that the model differential suite
// (tests/integration/multigroup_determinism_test.cpp) does not make: a
// repeated sharded run is identical, rounds and messages included.

#include <atomic>
#include <cstdint>
#include <limits>
#include <span>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "experiments/multigroup_sim.hpp"
#include "sim/sharded_simulator.hpp"

namespace emcast {
namespace {

using experiments::MultiGroupSimConfig;
using experiments::run_multigroup;

MultiGroupSimConfig dissemination_config() {
  MultiGroupSimConfig cfg;
  cfg.kind = experiments::TrafficKind::Audio;
  cfg.regulation = experiments::RegulationScheme::None;
  cfg.groups = 3;
  cfg.hosts = 96;
  cfg.duration = 1.0;
  cfg.warmup = 0.25;
  cfg.seed = 7;
  cfg.collect_trace = true;
  return cfg;
}

MultiGroupSimConfig sharded(MultiGroupSimConfig cfg, std::size_t shards) {
  cfg.engine = sim::EngineKind::Sharded;
  cfg.shards = shards;
  return cfg;
}

TEST(ShardedSimDifferential, RepeatedRunsAreIdentical) {
  const MultiGroupSimConfig cfg = sharded(dissemination_config(), 4);
  const auto a = run_multigroup(cfg);
  const auto b = run_multigroup(cfg);
  ASSERT_TRUE(a.trace == b.trace);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.messages, b.messages);
}

// ---- direct ShardedSimulator mechanics ----------------------------------

TEST(ShardedSimulator, RejectsNonPositiveLookahead) {
  sim::ShardedConfig cfg;
  cfg.shards = 2;
  cfg.lookahead = 0.0;
  EXPECT_THROW(sim::ShardedSimulator{cfg}, std::invalid_argument);
}

/// Two shards volleying one ball: the arrival times seen by each shard.
struct Volley {
  sim::ShardedSimulator* sharded;
  std::vector<Time> arrivals[2];
};

TEST(ShardedSimulator, CrossShardPingPongIsExactAndOrdered) {
  // Two shards volley a packet: each arrival schedules a post back with
  // deliver_at = now + lookahead.  Checks message counts, window
  // progression and that every arrival lands at its exact stamped time.
  sim::ShardedConfig cfg;
  cfg.shards = 2;
  cfg.threads = 2;
  cfg.lookahead = 0.5;
  sim::ShardedSimulator sharded(cfg);

  // An arrival event captures the packet and the host; the host names
  // the shard the ball lands on.
  Volley v{&sharded, {}};
  sharded.set_message_handler(
      [&v](sim::Shard& shard, std::span<const sim::CrossShardMsg> msgs) {
        for (const sim::CrossShardMsg& m : msgs) {
          shard.sim().schedule_at(m.deliver_at, [&v, p = m.packet,
                                                 host = m.dest_host] {
            sim::Shard& here = v.sharded->shard(host);
            v.arrivals[host].push_back(here.now());
            if (here.now() < 5.0) {
              here.post(1 - host, p, 1 - host, here.now() + here.lookahead());
            }
          });
        }
      });
  // Kick off: shard 0 posts the first ball at t = 0.5.
  sharded.shard(0).sim().schedule_at(0.0, [&sharded] {
    sim::Packet p;
    p.id = 1;
    sharded.shard(0).post(1, p, 1, sharded.shard(0).now() + 0.5);
  });
  sharded.run(10.0);
  const auto& arrivals = v.arrivals;

  // Ball bounces at 0.5, 1.0, 1.5, ... 5.0; odd bounces land on shard 1.
  ASSERT_EQ(arrivals[1].size(), 5u);
  ASSERT_EQ(arrivals[0].size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_DOUBLE_EQ(arrivals[1][i], 0.5 + 1.0 * static_cast<double>(i));
    EXPECT_DOUBLE_EQ(arrivals[0][i], 1.0 + 1.0 * static_cast<double>(i));
  }
  EXPECT_EQ(sharded.messages_posted(), 10u);
  EXPECT_GE(sharded.rounds(), 10u);  // each bounce needs its own window
}

TEST(ShardedSimulator, DrainedRunAdvancesClocksToHorizon) {
  sim::ShardedConfig cfg;
  cfg.shards = 2;
  cfg.lookahead = 1.0;
  sim::ShardedSimulator sharded(cfg);
  sharded.set_message_handler(
      [](sim::Shard&, std::span<const sim::CrossShardMsg>) {});
  int fired = 0;
  sharded.shard(0).sim().schedule_at(1.5, [&fired] { ++fired; });
  sharded.run(4.0);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(sharded.shard(0).now(), 4.0);
  EXPECT_DOUBLE_EQ(sharded.shard(1).now(), 4.0);
}

TEST(ShardedSimulator, EventAtExactHorizonExecutes) {
  sim::ShardedConfig cfg;
  cfg.shards = 2;
  cfg.lookahead = 1.0;
  sim::ShardedSimulator sharded(cfg);
  sharded.set_message_handler(
      [](sim::Shard&, std::span<const sim::CrossShardMsg>) {});
  int fired = 0;
  sharded.shard(1).sim().schedule_at(4.0, [&fired] { ++fired; });
  sharded.shard(1).sim().schedule_at(4.0000001, [&fired] { fired += 100; });
  sharded.run(4.0);
  EXPECT_EQ(fired, 1) << "t == until fires, t > until stays pending";
}

TEST(ShardedSimulator, ModelExceptionPropagatesWithoutDeadlock) {
  sim::ShardedConfig cfg;
  cfg.shards = 4;
  cfg.threads = 4;
  cfg.lookahead = 0.25;
  sim::ShardedSimulator sharded(cfg);
  sharded.set_message_handler(
      [](sim::Shard&, std::span<const sim::CrossShardMsg>) {});
  // Keep every shard busy so the throw happens mid-protocol, not at idle.
  std::atomic<int> ticks{0};
  for (std::size_t s = 0; s < 4; ++s) {
    struct Tick {
      sim::Simulator* sim;
      std::atomic<int>* ticks;
      void operator()() const {
        ++*ticks;
        sim->schedule_in(0.1, *this);
      }
    };
    sharded.shard(s).sim().schedule_at(
        0.0, Tick{&sharded.shard(s).sim(), &ticks});
  }
  sharded.shard(2).sim().schedule_at(1.0, [] {
    throw std::runtime_error("model blew up");
  });
  EXPECT_THROW(sharded.run(100.0), std::runtime_error);
}

TEST(ShardedSimulator, LookaheadPlanValidatesItsEpochs) {
  sim::ShardedConfig cfg;
  cfg.shards = 2;
  cfg.lookahead = 0.5;
  sim::ShardedSimulator sharded(cfg);
  EXPECT_THROW(
      sharded.set_lookahead_plan({{0.0, 0.5}, {1.0, 0.0}}),  // zero width
      std::invalid_argument);
  EXPECT_THROW(
      sharded.set_lookahead_plan({{1.0, 0.5}, {1.0, 0.25}}),  // not increasing
      std::invalid_argument);
  EXPECT_NO_THROW(sharded.set_lookahead_plan({{0.0, 0.5}, {2.0, 0.25}}));
  EXPECT_EQ(sharded.lookahead_plan().size(), 2u);
}

TEST(ShardedSimulator, LookaheadPlanChangesWindowWidthMidRun) {
  // Same ping-pong as above, but the plan narrows the lookahead from 0.5
  // to 0.25 at t = 2.0.  The posts follow the epoch in force at post time
  // (deliver_at = now + current epoch's lookahead), so every arrival must
  // still land at its exact stamped time — and the volley visibly speeds
  // up after the boundary.
  sim::ShardedConfig cfg;
  cfg.shards = 2;
  cfg.threads = 2;
  cfg.lookahead = 0.25;  // uniform floor: min over the plan
  sim::ShardedSimulator sharded(cfg);
  sharded.set_lookahead_plan({{0.0, 0.5}, {2.0, 0.25}});

  // As in the ping-pong test, the host names the shard the ball lands on.
  Volley v{&sharded, {}};
  sharded.set_message_handler(
      [&v](sim::Shard& shard, std::span<const sim::CrossShardMsg> msgs) {
        for (const sim::CrossShardMsg& m : msgs) {
          shard.sim().schedule_at(m.deliver_at, [&v, p = m.packet,
                                                 host = m.dest_host] {
            sim::Shard& here = v.sharded->shard(host);
            v.arrivals[host].push_back(here.now());
            if (here.now() < 4.0) {
              const Time lookahead = here.now() < 2.0 ? 0.5 : 0.25;
              here.post(1 - host, p, 1 - host, here.now() + lookahead);
            }
          });
        }
      });
  sharded.shard(0).sim().schedule_at(0.0, [&sharded] {
    sim::Packet p;
    p.id = 1;
    sharded.shard(0).post(1, p, 1, sharded.shard(0).now() + 0.5);
  });
  sharded.run(10.0);
  const auto& arrivals = v.arrivals;

  // Bounces at 0.5, 1.0, 1.5, 2.0 (0.5 spacing), then 2.25, 2.5, ...
  std::vector<Time> all;
  all.insert(all.end(), arrivals[0].begin(), arrivals[0].end());
  all.insert(all.end(), arrivals[1].begin(), arrivals[1].end());
  std::sort(all.begin(), all.end());
  std::vector<Time> expected;
  for (Time t = 0.5; t < 2.0 + 1e-9; t += 0.5) expected.push_back(t);
  for (Time t = 2.25; t <= 4.0 + 1e-9; t += 0.25) expected.push_back(t);
  ASSERT_EQ(all.size(), expected.size());
  for (std::size_t i = 0; i < all.size(); ++i) {
    EXPECT_DOUBLE_EQ(all[i], expected[i]) << "bounce " << i;
  }
}

TEST(ShardedSimulator, ExplicitLookaheadResetClearsThePlan) {
  sim::ShardedConfig cfg;
  cfg.shards = 2;
  cfg.lookahead = 0.25;
  sim::ShardedSimulator sharded(cfg);
  sharded.set_lookahead_plan({{0.0, 0.5}, {2.0, 0.25}});
  ASSERT_EQ(sharded.lookahead_plan().size(), 2u);
  sharded.reset(0.0);  // keep-current reset: plan survives for a rerun
  EXPECT_EQ(sharded.lookahead_plan().size(), 2u);
  sharded.reset(0.3);  // rebind seam: a new run means a new plan
  EXPECT_TRUE(sharded.lookahead_plan().empty());
}

TEST(ShardedSimulator, LookaheadMatrixValidatesEntries) {
  sim::ShardedConfig cfg;
  cfg.shards = 2;
  cfg.lookahead = 0.5;
  sim::ShardedSimulator sharded(cfg);
  // Wrong size: 2 shards need 4 entries.
  EXPECT_THROW(sharded.set_lookahead_matrix({0.5, 0.5, 0.5}),
               std::invalid_argument);
  // Off-diagonal entries must be > 0 (NaN rejected by the same negated
  // comparison); +infinity marks an edge-free pair and is legal.
  EXPECT_THROW(
      sharded.set_lookahead_matrix({0.0, 0.0, 1.0, 0.0}),
      std::invalid_argument);
  EXPECT_THROW(sharded.set_lookahead_matrix(
                   {0.0, std::numeric_limits<Time>::quiet_NaN(), 1.0, 0.0}),
               std::invalid_argument);
  EXPECT_NO_THROW(sharded.set_lookahead_matrix(
      {kTimeInfinity, 0.5, kTimeInfinity, kTimeInfinity}));
  EXPECT_NO_THROW(sharded.set_lookahead_matrix({}));  // back to uniform
  EXPECT_TRUE(sharded.lookahead_matrix().empty());
}

TEST(ShardedSimulator, LookaheadMatrixStoresTheMinPlusClosure) {
  // Direct entries only bound direct posts; the installed matrix must be
  // the min-plus closure so windows respect relayed traffic (0 -> 1 -> 2
  // reaches shard 2 after 0.3, not the +infinity of the direct entry)
  // and reflected traffic (the diagonal becomes the min cycle cost).
  sim::ShardedConfig cfg;
  cfg.shards = 3;
  cfg.lookahead = 0.1;
  sim::ShardedSimulator sharded(cfg);
  const Time inf = kTimeInfinity;
  sharded.set_lookahead_matrix({
      inf, 0.1, inf,   // 0 -> 1 tight, no direct 0 -> 2
      0.2, inf, 0.1,   // 1 -> 0 and 1 -> 2
      inf, inf, inf,   // shard 2 posts to no one
  });
  const auto& m = sharded.lookahead_matrix();
  ASSERT_EQ(m.size(), 9u);
  EXPECT_DOUBLE_EQ(m[0 * 3 + 1], 0.1);
  EXPECT_DOUBLE_EQ(m[0 * 3 + 2], 0.1 + 0.1);  // through shard 1
  EXPECT_DOUBLE_EQ(m[1 * 3 + 0], 0.2);
  EXPECT_DOUBLE_EQ(m[0 * 3 + 0], 0.1 + 0.2);  // cycle 0 -> 1 -> 0
  EXPECT_DOUBLE_EQ(m[1 * 3 + 1], 0.1 + 0.2);  // cycle 1 -> 0 -> 1
  EXPECT_EQ(m[2 * 3 + 0], inf);  // shard 2 still reaches no one
  EXPECT_EQ(m[2 * 3 + 2], inf);
}

TEST(ShardedSimulator, ExplicitLookaheadResetClearsTheMatrix) {
  // The regression this pins: reset with an explicit scalar while a pair
  // matrix is installed must fall back to the uniform bound (an empty
  // matrix IS a uniform matrix of that scalar) — a stale matrix derived
  // for the old routing would silently mis-window the next run.
  sim::ShardedConfig cfg;
  cfg.shards = 2;
  cfg.lookahead = 0.25;
  sim::ShardedSimulator sharded(cfg);
  sharded.set_lookahead_matrix({kTimeInfinity, 0.5, 1.0, kTimeInfinity});
  ASSERT_FALSE(sharded.lookahead_matrix().empty());
  EXPECT_DOUBLE_EQ(sharded.shard(0).post_floor(1), 0.5);
  EXPECT_DOUBLE_EQ(sharded.shard(1).post_floor(0), 1.0);
  sharded.reset(0.0);  // keep-current: matrix survives for a warm rerun
  EXPECT_FALSE(sharded.lookahead_matrix().empty());
  EXPECT_DOUBLE_EQ(sharded.shard(0).post_floor(1), 0.5);
  sharded.reset(0.3);  // explicit scalar: back to the uniform bound
  EXPECT_TRUE(sharded.lookahead_matrix().empty());
  EXPECT_DOUBLE_EQ(sharded.shard(0).post_floor(1), 0.3);
  EXPECT_DOUBLE_EQ(sharded.shard(1).post_floor(0), 0.3);
}

TEST(ShardedSimulator, LookaheadPlanAndMatrixAreNeverInstalledTogether) {
  // A plan and a pair matrix never compose: installing either one while
  // the other is in force is rejected, in both orders, and leaves the
  // installed one untouched.  Clearing either is always allowed.
  sim::ShardedConfig cfg;
  cfg.shards = 2;
  cfg.lookahead = 0.25;
  sim::ShardedSimulator sharded(cfg);
  const std::vector<Time> matrix = {kTimeInfinity, 0.5, 1.0, kTimeInfinity};
  const std::vector<sim::LookaheadEpoch> plan = {{0.0, 0.5}, {2.0, 0.25}};

  sharded.set_lookahead_matrix(matrix);
  EXPECT_THROW(sharded.set_lookahead_plan(plan), std::logic_error);
  EXPECT_TRUE(sharded.lookahead_plan().empty());
  EXPECT_DOUBLE_EQ(sharded.shard(0).post_floor(1), 0.5);
  EXPECT_NO_THROW(sharded.set_lookahead_plan({}));

  sharded.set_lookahead_matrix({});
  sharded.set_lookahead_plan(plan);
  EXPECT_THROW(sharded.set_lookahead_matrix(matrix), std::logic_error);
  EXPECT_TRUE(sharded.lookahead_matrix().empty());
  EXPECT_EQ(sharded.lookahead_plan().size(), 2u);
  EXPECT_NO_THROW(sharded.set_lookahead_matrix({}));
}

TEST(ShardedSimAsymmetric, PairMatrixWidensWindowsWithoutChangingTheTrace) {
  // Three shards, each grinding a dense local tick chain; only the
  // 0 -> 1 pair is tight (0.1), every other pair is loose (10.0).  The
  // uniform protocol must run EVERY shard in 0.1-wide windows (the
  // global min bounds everyone); the pair matrix frees shards 0 and 2 to
  // leap (nothing tight can reach them), shard 0 then drains, and shard
  // 1's constraint evaporates — the whole run collapses into a handful
  // of rounds.  The executed events, their times, and the one real
  // cross-shard arrival must stay identical either way.
  struct RunResult {
    std::vector<Time> ticks[3];
    std::vector<Time> arrivals;
    std::uint64_t rounds = 0;
  };
  const auto run = [](bool with_matrix) {
    sim::ShardedConfig cfg;
    cfg.shards = 3;
    cfg.threads = 3;
    cfg.lookahead = 0.1;  // the scalar the matrix competes against
    if (with_matrix) {
      const Time inf = kTimeInfinity;
      cfg.lookahead_matrix = {
          inf, 0.1, 10.0,   // 0 -> 1 tight
          10.0, inf, 10.0,  //
          10.0, 10.0, inf,  //
      };
    }
    sim::ShardedSimulator sharded(cfg);
    RunResult r;
    sharded.set_message_handler(
        [&r](sim::Shard& shard, std::span<const sim::CrossShardMsg> msgs) {
          for (const sim::CrossShardMsg& m : msgs) {
            shard.sim().schedule_at(m.deliver_at, [&r, &shard] {
              r.arrivals.push_back(shard.now());
            });
          }
        });
    // Dense local work: 0.01 ticks to t = 8 on every shard.
    for (std::size_t s = 0; s < 3; ++s) {
      sim::Simulator& kernel = sharded.shard(s).sim();
      struct Tick {
        sim::Simulator* kernel;
        std::vector<Time>* out;
        void operator()() const {
          out->push_back(kernel->now());
          if (kernel->now() < 8.0) {
            kernel->schedule_in(0.01, Tick{kernel, out});
          }
        }
      };
      kernel.schedule_at(0.0, Tick{&kernel, &r.ticks[s]});
    }
    // One real cross-shard message on the tight pair, well ahead of the
    // pair floor (0.1): arrives at exactly 5.0 in both protocols.
    sharded.shard(0).sim().schedule_at(0.5, [&sharded] {
      sim::Packet p;
      p.id = 42;
      sharded.shard(0).post(1, p, 0, 5.0);
    });
    sharded.run(8.0);
    r.rounds = sharded.rounds();
    return r;
  };

  const RunResult uniform = run(false);
  const RunResult paired = run(true);
  for (std::size_t s = 0; s < 3; ++s) {
    ASSERT_EQ(paired.ticks[s], uniform.ticks[s]) << "shard " << s;
  }
  ASSERT_EQ(paired.arrivals, uniform.arrivals);
  ASSERT_EQ(paired.arrivals.size(), 1u);
  EXPECT_DOUBLE_EQ(paired.arrivals[0], 5.0);
  // The point of the matrix: strictly fewer synchronisation rounds —
  // and not marginally so.
  EXPECT_LT(paired.rounds, uniform.rounds / 4);
  EXPECT_GT(uniform.rounds, 50u);
}

}  // namespace
}  // namespace emcast
