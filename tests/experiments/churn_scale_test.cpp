// Churn at 10^5 hosts (ctest label `slow`, registered with the 10^6-host
// demo when EMCAST_SLOW_TESTS is ON): the process-churn ladder workload's
// crash-heavy churn knobs on a 10^5-host hierarchical Adaptive point, run
// Sharded on 4 shards over a 0.15 s horizon like the scale-1e5 workload.
// Every rejoin, repair and lookahead epoch of the timeline is resolved at
// this size, and the run must not depend on the worker-thread count.

#include <gtest/gtest.h>

#include <cstddef>

#include "experiments/multigroup_sim.hpp"
#include "experiments/sweep.hpp"

namespace emcast::experiments {
namespace {

TEST(ChurnScale, HundredThousandHostsOnFourShards) {
  MultiGroupSimConfig c;
  c.kind = TrafficKind::Audio;
  c.family = TreeFamily::Dsct;
  c.regulation = RegulationScheme::Adaptive;
  c.utilization = paper_rho_grid()[9];  // ρ̄ = 0.80
  c.hosts = 100000;
  c.routers = c.hosts / 256;
  c.duration = 0.15;
  c.warmup = 0.05;
  c.sample_deliveries = 256;
  c.seed = 11;
  c.engine = sim::EngineKind::Sharded;
  c.shards = 4;
  c.churn.enabled = true;
  c.churn.leave_rate = 0.25;
  c.churn.crash_fraction = 0.9;
  c.churn.rejoin_rate = 2.0;
  c.churn.domain_failure_rate = 1.0;
  c.churn.detection_timeout = 0.05;
  c.churn.settle_window = 0.2;
  c.churn.seed = 21;

  c.threads = 1;
  const MultiGroupSimResult one = run_multigroup(c);
  c.threads = 2;
  const MultiGroupSimResult two = run_multigroup(c);

  EXPECT_GT(one.churn_repairs, 0u);
  EXPECT_GT(one.churn_events, 0u);
  EXPECT_GT(one.deliveries, 0u);
  EXPECT_EQ(one.sample.size(), 256u);
  EXPECT_EQ(one.shards, 4u);

  EXPECT_EQ(two.deliveries, one.deliveries);
  EXPECT_EQ(two.sample, one.sample);
  EXPECT_EQ(two.worst_case_delay, one.worst_case_delay);
  EXPECT_EQ(two.delay_p50, one.delay_p50);
  EXPECT_EQ(two.delay_p99, one.delay_p99);
  EXPECT_EQ(two.churn_events, one.churn_events);
  EXPECT_EQ(two.churn_repairs, one.churn_repairs);
  EXPECT_EQ(two.churn_losses, one.churn_losses);
  EXPECT_EQ(two.violations_in_repair, one.violations_in_repair);
  EXPECT_EQ(two.violations_steady, one.violations_steady);
  EXPECT_EQ(two.mode_switches, one.mode_switches);
  EXPECT_EQ(two.reconvergence_samples, one.reconvergence_samples);
  EXPECT_EQ(two.reconvergence_max, one.reconvergence_max);
  EXPECT_EQ(two.lookahead, one.lookahead);
  EXPECT_EQ(two.lookahead_epochs, one.lookahead_epochs);
}

}  // namespace
}  // namespace emcast::experiments
