// Differential determinism suite for the multigroup model — the full
// paper pipeline (AdaptiveHost: token buckets / (σ,ρ,λ) bank / general
// MUX, per-host loss processes, replication serialisation) and the
// unregulated model (RegulationScheme::None: serialised per-host
// uplinks) run through the engine-agnostic SimContext API on both
// backends.
//
// Contract: run_multigroup with EngineKind::Sharded produces a canonical
// delivery trace byte-identical to EngineKind::Single, for every shard
// count, every worker-thread count, and all three traffic scenarios.
// The suite name matches the ShardedSim* concurrency filter, so these
// runs are also exercised under TSan in CI.

#include <cstddef>
#include <cstdint>

#include <gtest/gtest.h>

#include "experiments/multigroup_sim.hpp"
#include "experiments/sweep.hpp"
#include "sim/pending_entry.hpp"

namespace emcast::experiments {
namespace {

MultiGroupSimConfig base_config(TrafficKind kind, RegulationScheme reg) {
  MultiGroupSimConfig c;
  c.kind = kind;
  c.family = TreeFamily::Dsct;
  c.regulation = reg;
  c.utilization = 0.6;
  c.hosts = 96;
  c.duration = 1.5;
  c.warmup = 0.25;
  c.seed = 7;
  c.collect_trace = true;
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

// The unregulated model and the paper's (σ, ρ) pipeline: the two
// inputs of the shard- and thread-count checks below.
constexpr RegulationScheme kBaseSchemes[] = {RegulationScheme::None,
                                             RegulationScheme::SigmaRho};

TEST(ShardedSimRegulated, ReferenceProducesTraffic) {
  for (const RegulationScheme reg : kBaseSchemes) {
    const auto cfg = base_config(TrafficKind::Audio, reg);
    const auto ref = run_reference(cfg);
    EXPECT_GT(ref.deliveries, 1000u) << to_string(reg);
    EXPECT_EQ(ref.shards, 1u);
    // The trace keeps warm-up deliveries and the tracer count does not:
    // the records at or after the warm-up instant are exactly the count.
    const std::uint64_t warm_key = sim::time_key(cfg.warmup);
    std::size_t after_warmup = 0;
    for (const DeliveryRecord& rec : ref.trace) {
      if (rec.time_key >= warm_key) ++after_warmup;
    }
    EXPECT_LT(after_warmup, ref.trace.size()) << to_string(reg);
    EXPECT_EQ(after_warmup, ref.deliveries) << to_string(reg);
    EXPECT_GT(ref.worst_case_delay, 0.0) << to_string(reg);
  }
}

TEST(ShardedSimRegulated, ShardCountsProduceByteIdenticalTraces) {
  for (const RegulationScheme reg : kBaseSchemes) {
    const auto cfg = base_config(TrafficKind::Audio, reg);
    const auto ref = run_reference(cfg);
    for (const std::size_t shards : {1u, 2u, 4u, 8u}) {
      const auto sharded = run_sharded(cfg, shards);
      EXPECT_EQ(sharded.deliveries, ref.deliveries)
          << to_string(reg) << ", " << shards << " shards";
      // max and the fixed-point mean are order-independent: bit-equal,
      // not just approximately equal.
      EXPECT_EQ(sharded.worst_case_delay, ref.worst_case_delay)
          << to_string(reg) << ", " << shards << " shards";
      EXPECT_EQ(sharded.mean_delay, ref.mean_delay)
          << to_string(reg) << ", " << shards << " shards";
      ASSERT_TRUE(sharded.trace == ref.trace)
          << to_string(reg) << ", " << shards
          << " shards: canonical delivery traces differ";
      if (shards > 1) {
        EXPECT_GT(sharded.messages, 0u) << "expected cross-shard traffic";
        EXPECT_GT(sharded.rounds, 0u);
        EXPECT_GT(sharded.lookahead, 0.0);
      }
    }
  }
}

TEST(ShardedSimRegulated, WorkerThreadCountNeverChangesTheTrace) {
  for (const RegulationScheme reg : kBaseSchemes) {
    const auto cfg = base_config(TrafficKind::Audio, reg);
    const auto ref = run_reference(cfg);
    for (const std::size_t threads : {1u, 2u, 3u, 4u}) {
      const auto sharded = run_sharded(cfg, 4, threads);
      ASSERT_TRUE(sharded.trace == ref.trace)
          << to_string(reg) << ", " << threads
          << " worker threads: traces differ";
      EXPECT_EQ(sharded.mean_delay, ref.mean_delay)
          << to_string(reg) << ", " << threads << " worker threads";
    }
  }
}

TEST(ShardedSimRegulated, AllTrafficKindsMatch) {
  for (const TrafficKind kind :
       {TrafficKind::Audio, TrafficKind::Video, TrafficKind::Hetero}) {
    auto cfg = base_config(kind, RegulationScheme::SigmaRho);
    cfg.duration = 1.0;
    const auto ref = run_reference(cfg);
    ASSERT_GT(ref.deliveries, 0u) << to_string(kind);
    for (const std::size_t shards : {2u, 4u}) {
      const auto sharded = run_sharded(cfg, shards);
      ASSERT_TRUE(sharded.trace == ref.trace)
          << to_string(kind) << ", " << shards
          << " shards: canonical delivery traces differ";
    }
  }
}

TEST(ShardedSimRegulated, LambdaBankAndAdaptiveControlMatch) {
  // The TDMA bank (fixed-grid slot boundaries, depth-staggered epochs)
  // and the adaptive controller (periodic control ticks, mode switches
  // with backlog migration) are the most state-heavy paths — run them
  // at high load where the bank actually engages.
  for (const RegulationScheme reg :
       {RegulationScheme::SigmaRhoLambda, RegulationScheme::Adaptive}) {
    auto cfg = base_config(TrafficKind::Audio, reg);
    cfg.utilization = 0.92;
    cfg.duration = 1.0;
    const auto ref = run_reference(cfg);
    ASSERT_GT(ref.deliveries, 0u) << to_string(reg);
    const auto sharded = run_sharded(cfg, 4);
    EXPECT_EQ(sharded.mode_switches, ref.mode_switches) << to_string(reg);
    ASSERT_TRUE(sharded.trace == ref.trace)
        << to_string(reg) << ": canonical delivery traces differ";
  }
}

TEST(ShardedSimRegulated, CapacityAwareAndLossInjectionMatch) {
  // Loss processes are per-host RNG streams owned by the destination
  // shard, so injected drops must replay identically across engines.
  auto cfg = base_config(TrafficKind::Audio, RegulationScheme::CapacityAware);
  cfg.loss_rate = 0.05;
  cfg.duration = 1.0;
  const auto ref = run_reference(cfg);
  ASSERT_GT(ref.deliveries, 0u);
  ASSERT_GT(ref.losses, 0u);
  const auto sharded = run_sharded(cfg, 4);
  EXPECT_EQ(sharded.losses, ref.losses);
  EXPECT_EQ(sharded.delivery_ratio, ref.delivery_ratio);
  ASSERT_TRUE(sharded.trace == ref.trace);
}

TEST(ShardedSimRegulated, WarmEngineReuseMatchesFreshSingle) {
  // The warm-reuse acceptance contract (PR 5), single backend: a run on
  // a reused engine — including returning to an earlier sweep point
  // after the working set was grown by a different one — produces the
  // byte-identical canonical trace of a fresh-engine run.
  auto cfg_a = base_config(TrafficKind::Audio, RegulationScheme::SigmaRho);
  cfg_a.duration = 1.0;
  auto cfg_b = cfg_a;
  cfg_b.utilization = 0.85;
  const auto fresh_a = run_multigroup(cfg_a);
  const auto fresh_b = run_multigroup(cfg_b);
  ASSERT_GT(fresh_a.deliveries, 0u);

  std::unique_ptr<sim::Engine> warm;
  const auto warm_a1 = run_multigroup(cfg_a, warm);
  sim::Engine* const built = warm.get();
  const auto warm_b = run_multigroup(cfg_b, warm);
  const auto warm_a2 = run_multigroup(cfg_a, warm);
  EXPECT_EQ(warm.get(), built) << "the slot must be reset, not rebuilt";
  ASSERT_TRUE(warm_a1.trace == fresh_a.trace);
  ASSERT_TRUE(warm_b.trace == fresh_b.trace);
  ASSERT_TRUE(warm_a2.trace == fresh_a.trace)
      << "a reused engine must replay a point bit-for-bit";
  EXPECT_EQ(warm_a2.worst_case_delay, fresh_a.worst_case_delay);
  EXPECT_EQ(warm_a2.deliveries, fresh_a.deliveries);
}

TEST(ShardedSimRegulated, WarmEngineReuseMatchesFreshSharded) {
  // Sharded backend, >= 2 shard counts: each point re-derives its own
  // partition and lookahead, so the warm path exercises the rebinding
  // Engine::reset(map, lookahead) with mailbox/kernel arenas retained.
  auto cfg_a = base_config(TrafficKind::Audio, RegulationScheme::SigmaRho);
  cfg_a.duration = 1.0;
  auto cfg_b = cfg_a;
  cfg_b.utilization = 0.85;
  const auto fresh_ref_a = run_reference(cfg_a);
  const auto fresh_ref_b = run_reference(cfg_b);
  for (const std::size_t shards : {2u, 4u}) {
    auto a = cfg_a;
    a.engine = sim::EngineKind::Sharded;
    a.shards = shards;
    a.threads = 2;
    auto b = cfg_b;
    b.engine = sim::EngineKind::Sharded;
    b.shards = shards;
    b.threads = 2;
    std::unique_ptr<sim::Engine> warm;
    const auto warm_a1 = run_multigroup(a, warm);
    sim::Engine* const built = warm.get();
    const auto warm_b = run_multigroup(b, warm);
    const auto warm_a2 = run_multigroup(a, warm);
    EXPECT_EQ(warm.get(), built)
        << shards << " shards: the slot must be reset, not rebuilt";
    ASSERT_TRUE(warm_a1.trace == fresh_ref_a.trace) << shards << " shards";
    ASSERT_TRUE(warm_b.trace == fresh_ref_b.trace) << shards << " shards";
    ASSERT_TRUE(warm_a2.trace == fresh_ref_a.trace)
        << shards << " shards: reused sharded engine must replay the "
                     "reference bit-for-bit";
    if (shards > 1) {
      EXPECT_GT(warm_a2.messages, 0u);
    }
  }
}

TEST(ShardedSimRegulated, WarmSlotRebuildsOnIncompatibleConfig) {
  auto cfg = base_config(TrafficKind::Audio, RegulationScheme::SigmaRho);
  cfg.duration = 0.5;
  std::unique_ptr<sim::Engine> warm;
  run_multigroup(cfg, warm);
  ASSERT_NE(warm, nullptr);
  EXPECT_EQ(warm->kind(), sim::EngineKind::Single);
  sim::Engine* const single_engine = warm.get();

  cfg.engine = sim::EngineKind::Sharded;
  cfg.shards = 2;
  run_multigroup(cfg, warm);
  EXPECT_EQ(warm->kind(), sim::EngineKind::Sharded);
  EXPECT_NE(warm.get(), single_engine) << "kind change must rebuild";
  sim::Engine* const two_shards = warm.get();

  run_multigroup(cfg, warm);
  EXPECT_EQ(warm.get(), two_shards) << "same config must reuse";

  cfg.shards = 4;
  run_multigroup(cfg, warm);
  EXPECT_NE(warm.get(), two_shards) << "shard-count change must rebuild";
}

TEST(ShardedSimRegulated, SweepRunsOneShardedSimPerPoint) {
  MultiGroupSimConfig cfg =
      base_config(TrafficKind::Audio, RegulationScheme::SigmaRho);
  cfg.collect_trace = false;
  cfg.duration = 1.0;
  cfg.engine = sim::EngineKind::Sharded;
  cfg.shards = 2;
  const std::vector<double> grid{0.4, 0.8};
  const auto results = sweep_multigroup(cfg, grid);
  ASSERT_EQ(results.size(), 2u);
  for (const auto& r : results) {
    EXPECT_EQ(r.shards, 2u);
    EXPECT_GT(r.deliveries, 0u);
  }
  EXPECT_DOUBLE_EQ(results[0].utilization, 0.4);
  EXPECT_DOUBLE_EQ(results[1].utilization, 0.8);
}

}  // namespace
}  // namespace emcast::experiments
