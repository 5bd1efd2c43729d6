// Differential determinism suite for the multigroup model WITH mid-run
// churn enabled — crashes, graceful leaves, rejoins, correlated domain
// failures, flash joins, and the in-simulation tree repairs they trigger.
//
// Contract: with churn on, run_multigroup with EngineKind::Sharded still
// produces a canonical delivery trace byte-identical to Single, for every
// shard count and worker-thread count.  This pins the replica discipline
// (every kernel replays the same fault timeline against its own
// ChurnState) and the lookahead-epoch plan (repairs that change the
// minimum cross-shard delay remap the window width at a window boundary,
// never mid-window).
//
// The suite name matches the ShardedSim* concurrency filter, so these
// runs are also exercised under TSan in CI.

#include <gtest/gtest.h>

#include "experiments/multigroup_sim.hpp"

namespace emcast::experiments {
namespace {

MultiGroupSimConfig churn_base(RegulationScheme reg) {
  MultiGroupSimConfig c;
  c.kind = TrafficKind::Audio;
  c.family = TreeFamily::Dsct;
  c.regulation = reg;
  c.utilization = 0.6;
  c.hosts = 96;
  c.duration = 1.5;
  c.warmup = 0.25;
  c.seed = 7;
  c.collect_trace = true;
  c.churn.enabled = true;
  c.churn.seed = 13;
  c.churn.detection_timeout = 0.05;
  c.churn.settle_window = 0.2;
  return c;
}

/// Crash-heavy schedule: frequent departures, most of them silent.
MultiGroupSimConfig crash_heavy(RegulationScheme reg = RegulationScheme::SigmaRho) {
  auto c = churn_base(reg);
  c.churn.leave_rate = 0.25;
  c.churn.crash_fraction = 0.9;
  c.churn.rejoin_rate = 2.0;
  c.churn.domain_failure_rate = 1.0;
  return c;
}

/// Flash-join schedule: a cohort leaves early and rejoins all at once.
MultiGroupSimConfig flash_join(RegulationScheme reg = RegulationScheme::SigmaRho) {
  auto c = churn_base(reg);
  c.churn.leave_rate = 0.05;
  c.churn.crash_fraction = 0.3;
  c.churn.flash_join_at = 0.8;
  c.churn.flash_join_count = 24;
  return c;
}

MultiGroupSimResult run_reference(MultiGroupSimConfig c) {
  c.engine = sim::EngineKind::Single;
  c.shards = 1;
  return run_multigroup(c);
}

MultiGroupSimResult run_sharded(MultiGroupSimConfig c, std::size_t shards,
                                std::size_t threads = 0) {
  c.engine = sim::EngineKind::Sharded;
  c.shards = shards;
  c.threads = threads;
  return run_multigroup(c);
}

TEST(ShardedSimChurn, ChurnActuallyHappens) {
  const auto ref = run_reference(crash_heavy());
  EXPECT_GT(ref.churn_events, 0u) << "schedule generated no churn";
  EXPECT_GT(ref.churn_repairs, 0u) << "no repair ever completed";
  EXPECT_GT(ref.deliveries, 1000u);
  EXPECT_GT(ref.delay_bound, 0.0) << "violation bound was not derived";
  // Crashed subtrees drop copies; that counter must move independently of
  // the Gilbert-Elliott link losses (which are off here).
  EXPECT_GT(ref.churn_losses, 0u);
  EXPECT_EQ(ref.losses, 0u);
}

TEST(ShardedSimChurn, CrashHeavyTracesMatchAcrossShards) {
  const auto cfg = crash_heavy();
  const auto ref = run_reference(cfg);
  ASSERT_GT(ref.churn_repairs, 0u);
  for (const std::size_t shards : {1u, 2u, 4u}) {
    const auto sharded = run_sharded(cfg, shards);
    EXPECT_EQ(sharded.deliveries, ref.deliveries) << shards << " shards";
    EXPECT_EQ(sharded.churn_losses, ref.churn_losses) << shards << " shards";
    EXPECT_EQ(sharded.worst_case_delay, ref.worst_case_delay)
        << shards << " shards";
    EXPECT_EQ(sharded.mean_delay, ref.mean_delay) << shards << " shards";
    ASSERT_TRUE(sharded.trace == ref.trace)
        << shards << " shards: canonical delivery traces differ under churn";
  }
}

TEST(ShardedSimChurn, FlashJoinTracesMatchAcrossShards) {
  const auto cfg = flash_join();
  const auto ref = run_reference(cfg);
  ASSERT_GT(ref.churn_events, 0u);
  for (const std::size_t shards : {1u, 2u, 4u}) {
    const auto sharded = run_sharded(cfg, shards);
    ASSERT_TRUE(sharded.trace == ref.trace)
        << shards << " shards: flash-join traces differ";
  }
}

TEST(ShardedSimChurn, WorkerThreadCountNeverChangesTheTrace) {
  for (const auto& cfg : {crash_heavy(), flash_join()}) {
    const auto ref = run_reference(cfg);
    for (const std::size_t threads : {1u, 2u, 3u, 4u}) {
      const auto sharded = run_sharded(cfg, 4, threads);
      ASSERT_TRUE(sharded.trace == ref.trace)
          << threads << " worker threads: traces differ under churn";
      EXPECT_EQ(sharded.mean_delay, ref.mean_delay)
          << threads << " worker threads";
    }
  }
}

TEST(ShardedSimChurn, AdaptiveControlUnderChurnMatches) {
  // The controller's mode switches and the re-convergence probes ride the
  // same kernels as the repairs — the full instrumented path must agree.
  auto cfg = crash_heavy(RegulationScheme::Adaptive);
  cfg.utilization = 0.92;
  cfg.duration = 1.0;
  const auto ref = run_reference(cfg);
  ASSERT_GT(ref.deliveries, 0u);
  const auto sharded = run_sharded(cfg, 4);
  EXPECT_EQ(sharded.mode_switches, ref.mode_switches);
  EXPECT_EQ(sharded.reconvergence_samples, ref.reconvergence_samples);
  EXPECT_EQ(sharded.reconvergence_max, ref.reconvergence_max);
  EXPECT_EQ(sharded.reconvergence_mean, ref.reconvergence_mean);
  ASSERT_TRUE(sharded.trace == ref.trace)
      << "adaptive-under-churn traces differ";
}

TEST(ShardedSimChurn, WarmEngineReuseMatchesFreshUnderChurn) {
  const auto cfg = crash_heavy();
  std::unique_ptr<sim::Engine> slot;
  auto sharded_cfg = cfg;
  sharded_cfg.engine = sim::EngineKind::Sharded;
  sharded_cfg.shards = 4;
  const auto first = run_multigroup(sharded_cfg, slot);
  const auto warm = run_multigroup(sharded_cfg, slot);
  EXPECT_EQ(first.deliveries, warm.deliveries);
  ASSERT_TRUE(first.trace == warm.trace)
      << "warm engine reuse changed the churn trace";
  // A churn-off run on the same warm slot must clear the epoch plan.
  auto off = sharded_cfg;
  off.churn.enabled = false;
  const auto plain = run_multigroup(off, slot);
  EXPECT_EQ(plain.lookahead_epochs, 0u);
  EXPECT_EQ(plain.churn_events, 0u);
}

TEST(ShardedSimChurn, ChurnOffPathIsUnchanged) {
  // Disabling churn must reproduce the exact pre-churn model: compare a
  // churn-disabled run against one with a default-constructed config.
  auto off = churn_base(RegulationScheme::SigmaRho);
  off.churn = ChurnConfig{};
  MultiGroupSimConfig plain;
  plain.kind = off.kind;
  plain.family = off.family;
  plain.regulation = off.regulation;
  plain.utilization = off.utilization;
  plain.hosts = off.hosts;
  plain.duration = off.duration;
  plain.warmup = off.warmup;
  plain.seed = off.seed;
  plain.collect_trace = true;
  const auto a = run_reference(off);
  const auto b = run_reference(plain);
  ASSERT_TRUE(a.trace == b.trace);
  EXPECT_EQ(a.churn_losses, 0u);
  EXPECT_EQ(a.violations_in_repair, 0u);
  EXPECT_EQ(a.delay_bound, 0.0);
}

}  // namespace
}  // namespace emcast::experiments
