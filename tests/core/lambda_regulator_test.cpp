#include "core/lambda_regulator.hpp"

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "netcalc/delay_bounds.hpp"

namespace emcast::core {
namespace {

sim::Packet make_packet(FlowId flow, Bits size, std::uint64_t id = 0) {
  sim::Packet p;
  p.id = id;
  p.flow = flow;
  p.size = size;
  return p;
}

std::vector<traffic::FlowSpec> homogeneous3(Bits sigma, Rate rho) {
  return {{0, sigma, rho}, {1, sigma, rho}, {2, sigma, rho}};
}

struct Harness {
  sim::Simulator sim;
  std::vector<std::pair<Time, sim::Packet>> out;
  std::unique_ptr<LambdaRegulatorBank> bank;

  Harness(std::vector<traffic::FlowSpec> flows, Rate capacity) {
    bank = std::make_unique<LambdaRegulatorBank>(
        sim, std::move(flows), capacity,
        [this](sim::Packet p) { out.emplace_back(sim.now(), std::move(p)); });
  }
};

TEST(LambdaBank, ServesFlowOnlyDuringItsSlot) {
  Harness h(homogeneous3(1000, 200), 1000.0);
  const auto& sched = h.bank->schedule();
  // Offer a packet of flow 2 at t=0 (flow 0's slot): it must wait for
  // flow 2's slot.
  h.bank->offer(make_packet(2, 100.0));
  h.sim.run(sched.period());
  ASSERT_EQ(h.out.size(), 1u);
  EXPECT_GE(h.out[0].first, sched.slot_offset(2));
  EXPECT_LE(h.out[0].first, sched.slot_offset(2) + sched.slot_length(2) + 0.2);
}

TEST(LambdaBank, FirstSlotServesImmediately) {
  Harness h(homogeneous3(1000, 200), 1000.0);
  h.bank->offer(make_packet(0, 100.0));
  h.sim.run(1.0);
  ASSERT_EQ(h.out.size(), 1u);
  EXPECT_NEAR(h.out[0].first, 0.1, 1e-6);  // one transmission time at C
}

TEST(LambdaBank, AtMostOneFlowTransmitsAtATime) {
  // Offer simultaneous bursts on all flows; output intervals from
  // different flows must not interleave within a slot.
  Harness h(homogeneous3(2000, 200), 1000.0);
  for (int f = 0; f < 3; ++f) {
    for (int i = 0; i < 4; ++i) {
      h.bank->offer(make_packet(static_cast<FlowId>(f), 500.0,
                                static_cast<std::uint64_t>(f * 10 + i)));
    }
  }
  h.sim.run(3.0 * h.bank->schedule().period());
  ASSERT_GE(h.out.size(), 6u);
  // Departure times of distinct flows must be ordered by slot rotation:
  // between two outputs of the same flow there is never an output of
  // another flow *within the same slot window*.  Weaker invariant checked
  // here: consecutive departures never overlap in transmission time.
  for (std::size_t i = 1; i < h.out.size(); ++i) {
    const Time prev_end = h.out[i - 1].first;
    EXPECT_GE(h.out[i].first + 1e-9, prev_end);
  }
}

TEST(LambdaBank, VacationBlocksOutputUntilNextTurn) {
  Harness h(homogeneous3(1000, 200), 1000.0);
  const auto& sched = h.bank->schedule();
  // Saturate flow 0's slot, then offer one more packet right after the
  // slot ends: it departs in the next period's slot 0.
  const Time after_slot0 = sched.slot_length(0) + 0.01;
  h.sim.schedule_at(after_slot0, [&h] { h.bank->offer(make_packet(0, 100.0)); });
  h.sim.run(2.5 * sched.period());
  ASSERT_EQ(h.out.size(), 1u);
  EXPECT_GE(h.out[0].first, sched.period());
  EXPECT_LE(h.out[0].first, sched.period() + sched.slot_length(0) + 0.2);
}

TEST(LambdaBank, DelayNeverExceedsLemma1StyleBound) {
  // Property: with conformant input (burst sigma then paced at rho), every
  // packet leaves within Lemma 1's 2 lambda sigma / rho (normalised by C)
  // plus one packet time at C.
  const Bits sigma = 1000, size = 200;
  const Rate rho = 200, C = 1000;
  Harness h(homogeneous3(sigma, rho), C);
  // Burst sigma at t=0 on every flow, then steady packets at rate rho.
  for (int f = 0; f < 3; ++f) {
    for (int i = 0; i < 5; ++i) {
      h.bank->offer(make_packet(static_cast<FlowId>(f), size));
    }
  }
  for (int f = 0; f < 3; ++f) {
    for (int i = 1; i <= 30; ++i) {
      const Time t = i * 1.0;  // 200 bits/s = one 200-bit packet per second
      h.sim.schedule_at(t, [&h, f, t, size] {
        sim::Packet p = make_packet(static_cast<FlowId>(f), size);
        p.created = t;
        h.bank->offer(p);
      });
    }
  }
  h.sim.run(60.0);
  ASSERT_EQ(h.out.size(), 105u);
  Time max_delay = 0;
  for (const auto& [at, p] : h.out) {
    max_delay = std::max(max_delay, at - p.created);
  }
  const double bound =
      netcalc::lemma1_regulator_delay(sigma / C, sigma / C, rho / C) + size / C;
  EXPECT_GT(max_delay, 0.0);
  EXPECT_LE(max_delay, bound);
}

TEST(LambdaBank, ThroughputKeepsUpWithArrivalRate) {
  // Regression for the slot-quantisation bug: sustained arrivals at the
  // declared rho must not accumulate unbounded backlog.
  const Rate C = 10000;
  auto flows = homogeneous3(2000, 2000);  // rho_hat = 0.2 each
  Harness h(flows, C);
  // 2000 bit/s per flow as 500-bit packets every 0.25 s for 60 s.
  for (int f = 0; f < 3; ++f) {
    for (int i = 0; i < 240; ++i) {
      h.sim.schedule_at(0.25 * i + 0.01 * f, [&h, f] {
        h.bank->offer(make_packet(static_cast<FlowId>(f), 500.0));
      });
    }
  }
  h.sim.run(70.0);
  EXPECT_EQ(h.out.size(), 720u);          // everything delivered
  EXPECT_LT(h.bank->total_backlog_bits(), 1.0);
  // The last departure happens within ~2 periods of the last arrival
  // (regression check for the slot-quantisation starvation bug).
  const Time period = h.bank->schedule().period();
  EXPECT_LT(h.out.back().first - 60.0, 2.0 * period + 1.0);
}

TEST(LambdaBank, PauseStopsService) {
  Harness h(homogeneous3(1000, 200), 1000.0);
  h.bank->pause();
  h.bank->offer(make_packet(0, 100.0));
  h.sim.run(5.0);
  EXPECT_TRUE(h.out.empty());
  EXPECT_DOUBLE_EQ(h.bank->total_backlog_bits(), 100.0);
}

TEST(LambdaBank, ResumeRestartsService) {
  Harness h(homogeneous3(1000, 200), 1000.0);
  h.bank->pause();
  h.bank->offer(make_packet(0, 100.0));
  h.sim.schedule_at(2.0, [&h] { h.bank->resume(); });
  h.sim.run(10.0);
  ASSERT_EQ(h.out.size(), 1u);
  EXPECT_GE(h.out[0].first, 2.0);
}

TEST(LambdaBank, DrainReturnsQueuedPackets) {
  Harness h(homogeneous3(1000, 200), 1000.0);
  h.bank->pause();
  h.bank->offer(make_packet(0, 100.0, 1));
  h.bank->offer(make_packet(1, 100.0, 2));
  h.bank->offer(make_packet(2, 100.0, 3));
  std::vector<sim::Packet> drained;
  h.bank->drain([&drained](sim::Packet p) { drained.push_back(p); });
  ASSERT_EQ(drained.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_EQ(drained[i].id, i + 1);
  EXPECT_DOUBLE_EQ(h.bank->total_backlog_bits(), 0.0);
}

TEST(LambdaBank, RejectsUnknownFlow) {
  Harness h(homogeneous3(1000, 200), 1000.0);
  EXPECT_THROW(h.bank->offer(make_packet(9, 100.0)), std::invalid_argument);
}

TEST(LambdaBank, ForwardedCounter) {
  Harness h(homogeneous3(1000, 200), 1000.0);
  h.bank->offer(make_packet(0, 100.0));
  h.bank->offer(make_packet(0, 100.0));
  h.sim.run(h.bank->schedule().period());
  EXPECT_EQ(h.bank->forwarded(), 2u);
}

}  // namespace
}  // namespace emcast::core
