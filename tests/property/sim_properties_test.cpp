// Parameterized invariants of the simulation kernel: causality, time
// ordering and conservation under randomized event storms.

#include <vector>

#include <gtest/gtest.h>

#include "core/mux.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace emcast::sim {
namespace {

class EventStorm : public testing::TestWithParam<std::uint64_t> {};

TEST_P(EventStorm, CallbackTimesAreMonotone) {
  Simulator sim;
  util::Rng rng(GetParam());
  Time last = -1.0;
  int fired = 0;
  for (int i = 0; i < 5000; ++i) {
    sim.schedule_at(rng.uniform(0.0, 100.0), [&] {
      ASSERT_GE(sim.now(), last);
      last = sim.now();
      ++fired;
    });
  }
  sim.run();
  EXPECT_EQ(fired, 5000);
}

TEST_P(EventStorm, NestedSchedulingPreservesCausality) {
  Simulator sim;
  util::Rng rng(GetParam() + 1);
  int chain_events = 0;
  Time last = -1.0;
  // Random cascades: each event may spawn up to 2 future events.
  std::function<void(int)> spawn = [&](int depth) {
    ASSERT_GE(sim.now(), last);
    last = sim.now();
    ++chain_events;
    if (depth > 0) {
      const int children = static_cast<int>(rng.uniform_int(0, 2));
      for (int c = 0; c < children; ++c) {
        sim.schedule_in(rng.uniform(0.0, 1.0),
                        [&spawn, depth] { spawn(depth - 1); });
      }
    }
  };
  for (int i = 0; i < 50; ++i) {
    sim.schedule_at(rng.uniform(0.0, 5.0), [&spawn] { spawn(6); });
  }
  sim.run();
  EXPECT_GE(chain_events, 50);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EventStorm,
                         testing::Values(1u, 2u, 3u, 4u, 5u),
                         [](const testing::TestParamInfo<std::uint64_t>& i) {
                           return "seed" + std::to_string(i.param);
                         });

struct MuxStormCase {
  core::MuxDiscipline discipline;
  int classes;
  std::uint64_t seed;
};

class MuxConservation : public testing::TestWithParam<MuxStormCase> {};

TEST_P(MuxConservation, WorkConservingAndLossFree) {
  const auto c = GetParam();
  Simulator sim;
  std::uint64_t served = 0;
  Bits served_bits = 0;
  core::Mux mux(sim, 1e6, [&](Packet p) {
    ++served;
    served_bits += p.size;
  }, c.discipline);
  util::Rng rng(c.seed);
  Bits offered_bits = 0;
  const int n = 400;
  Time t = 0;
  for (int i = 0; i < n; ++i) {
    t += rng.exponential(0.002);
    const Bits size = rng.uniform(200.0, 1200.0);
    const auto prio = static_cast<std::uint8_t>(
        rng.uniform_int(0, c.classes - 1));
    offered_bits += size;
    sim.schedule_at(t, [&mux, size, prio] {
      Packet p;
      p.size = size;
      p.priority = prio;
      mux.offer(std::move(p));
    });
  }
  sim.run();
  EXPECT_EQ(served, static_cast<std::uint64_t>(n));
  EXPECT_NEAR(served_bits, offered_bits, 1e-6);
  // Work conservation: total busy time equals offered bits / capacity, so
  // the clock cannot have advanced past last arrival + total service.
  EXPECT_LE(sim.now(), t + offered_bits / 1e6 + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MuxConservation,
    testing::Values(
        MuxStormCase{core::MuxDiscipline::PriorityFifo, 1, 1},
        MuxStormCase{core::MuxDiscipline::PriorityFifo, 4, 2},
        MuxStormCase{core::MuxDiscipline::PriorityLifoLowest, 1, 3},
        MuxStormCase{core::MuxDiscipline::PriorityLifoLowest, 4, 4}),
    [](const testing::TestParamInfo<MuxStormCase>& i) {
      return "case" + std::to_string(i.param.seed);
    });

}  // namespace
}  // namespace emcast::sim
