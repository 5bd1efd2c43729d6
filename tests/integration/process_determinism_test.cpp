// Cross-engine conformance suite for the process-per-shard backend: the
// full regulated multigroup model run on EngineKind::Process must produce
// canonical delivery traces BYTE-identical to Single and Sharded — for
// every worker-process count, every regulation scheme, churn on and off
// and warm reuse — plus identical merged summaries (mean and worst
// case, quantile sketch, k-min sample, mode switches, churn counters)
// carried back through the per-shard result blobs.
//
// Suite names deliberately avoid the ShardedSim* concurrency filter:
// these tests fork workers, and fork+TSan is not a supported combination.

#include <gtest/gtest.h>

#include <memory>

#include "experiments/multigroup_sim.hpp"
#include "experiments/sweep.hpp"
#include "traffic/trace_recorder.hpp"

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
  c.sample_deliveries = 64;
  return c;
}

MultiGroupSimResult run_reference(MultiGroupSimConfig c) {
  c.engine = sim::EngineKind::Single;
  c.shards = 1;
  return run_multigroup(c);
}

MultiGroupSimResult run_sharded(MultiGroupSimConfig c, std::size_t shards) {
  c.engine = sim::EngineKind::Sharded;
  c.shards = shards;
  c.threads = 2;
  return run_multigroup(c);
}

MultiGroupSimResult run_process(MultiGroupSimConfig c, std::size_t shards,
                                std::size_t processes) {
  c.engine = sim::EngineKind::Process;
  c.shards = shards;
  c.processes = processes;
  c.process_timeout_seconds = 60.0;
  return run_multigroup(c);
}

/// The full conformance comparison between a reference result and a
/// process-backend result (exact trace, sample, order-independent
/// summaries and counters).
void expect_conformant(const MultiGroupSimResult& proc,
                       const MultiGroupSimResult& ref,
                       const std::string& label) {
  ASSERT_TRUE(proc.trace == ref.trace)
      << label << ": canonical delivery traces differ";
  EXPECT_TRUE(proc.sample == ref.sample)
      << label << ": k-min delivery samples differ";
  EXPECT_EQ(proc.deliveries, ref.deliveries) << label;
  EXPECT_EQ(proc.losses, ref.losses) << label;
  EXPECT_EQ(proc.mode_switches, ref.mode_switches) << label;
  // max/min and the fixed-point mean are order-independent: bit-equal,
  // not approximately equal.
  EXPECT_EQ(proc.worst_case_delay, ref.worst_case_delay) << label;
  EXPECT_EQ(proc.mean_delay, ref.mean_delay) << label;
  // Sketch quantiles merge exactly (bin counts add), so these are
  // bit-equal across engines too.
  EXPECT_EQ(proc.delay_p50, ref.delay_p50) << label;
  EXPECT_EQ(proc.delay_p99, ref.delay_p99) << label;
}

TEST(ProcessSimConformance, WorkerProcessCountNeverChangesResults) {
  const auto cfg = base_config(TrafficKind::Audio, RegulationScheme::SigmaRho);
  const auto ref = run_reference(cfg);
  ASSERT_GT(ref.deliveries, 1000u);
  const auto sharded = run_sharded(cfg, 4);
  expect_conformant(sharded, ref, "sharded reference");
  for (const std::size_t processes : {1u, 2u, 4u}) {
    const auto proc = run_process(cfg, 4, processes);
    const std::string label =
        std::to_string(processes) + " worker processes";
    expect_conformant(proc, ref, label);
    // Same shard blocks, same windows, same cross-shard posts: the round
    // protocol's telemetry must agree with the in-process backend.
    EXPECT_EQ(proc.rounds, sharded.rounds) << label;
    EXPECT_EQ(proc.messages, sharded.messages) << label;
    EXPECT_EQ(proc.processes, processes) << label;
  }
}

TEST(ProcessSimConformance, ShardCountNeverChangesResults) {
  const auto cfg = base_config(TrafficKind::Audio, RegulationScheme::SigmaRho);
  const auto ref = run_reference(cfg);
  for (const std::size_t shards : {1u, 2u, 4u}) {
    const auto proc = run_process(cfg, shards, 2);
    expect_conformant(proc, ref, std::to_string(shards) + " shards");
  }
}

TEST(ProcessSimConformance, AllRegulationSchemesMatch) {
  for (const RegulationScheme reg :
       {RegulationScheme::None, RegulationScheme::CapacityAware,
        RegulationScheme::SigmaRho, RegulationScheme::SigmaRhoLambda,
        RegulationScheme::Adaptive}) {
    auto cfg = base_config(TrafficKind::Audio, reg);
    // High load so the λ bank engages and the adaptive controller
    // actually switches — the state-heaviest paths.
    cfg.utilization = 0.92;
    cfg.duration = 1.0;
    const auto ref = run_reference(cfg);
    ASSERT_GT(ref.deliveries, 0u) << to_string(reg);
    const auto proc = run_process(cfg, 4, 2);
    expect_conformant(proc, ref, to_string(reg));
  }
}

TEST(ProcessSimConformance, ChurnDifferentialMatches) {
  // Churn: fault replay, in-simulation repair, the lookahead-epoch plan
  // and the violation/reconvergence counters — all carried through the
  // result blobs.
  auto cfg = base_config(TrafficKind::Audio, RegulationScheme::Adaptive);
  cfg.utilization = 0.85;
  cfg.churn.enabled = true;  // crash-heavy schedule, as churn suite uses
  cfg.churn.seed = 13;
  cfg.churn.detection_timeout = 0.05;
  cfg.churn.settle_window = 0.2;
  cfg.churn.leave_rate = 0.25;
  cfg.churn.crash_fraction = 0.9;
  cfg.churn.rejoin_rate = 2.0;
  cfg.churn.domain_failure_rate = 1.0;
  const auto ref = run_reference(cfg);
  ASSERT_GT(ref.churn_events, 0u);
  const auto sharded = run_sharded(cfg, 4);
  ASSERT_GT(sharded.lookahead_epochs, 0u) << "no plan: windows stay uniform";
  for (const std::size_t processes : {1u, 2u}) {
    const auto proc = run_process(cfg, 4, processes);
    const std::string label =
        "churn, " + std::to_string(processes) + " processes";
    expect_conformant(proc, ref, label);
    EXPECT_EQ(proc.churn_events, ref.churn_events) << label;
    EXPECT_EQ(proc.churn_repairs, ref.churn_repairs) << label;
    EXPECT_EQ(proc.churn_losses, ref.churn_losses) << label;
    EXPECT_EQ(proc.violations_in_repair, ref.violations_in_repair) << label;
    EXPECT_EQ(proc.violations_steady, ref.violations_steady) << label;
    EXPECT_EQ(proc.reconvergence_samples, ref.reconvergence_samples) << label;
    EXPECT_EQ(proc.reconvergence_max, ref.reconvergence_max) << label;
    EXPECT_EQ(proc.reconvergence_mean, ref.reconvergence_mean) << label;
    EXPECT_EQ(proc.lookahead_epochs, sharded.lookahead_epochs) << label;
    // The plan path's windows: the same rounds and cross-shard posts as
    // the threaded backend.
    EXPECT_EQ(proc.rounds, sharded.rounds) << label;
    EXPECT_EQ(proc.messages, sharded.messages) << label;
  }
}

TEST(ProcessSimConformance, LossInjectionMatches) {
  // Per-host RNG loss streams live on the destination shard; the drop
  // decisions must replay identically inside worker processes.
  auto cfg = base_config(TrafficKind::Audio, RegulationScheme::CapacityAware);
  cfg.loss_rate = 0.05;
  cfg.duration = 1.0;
  const auto ref = run_reference(cfg);
  ASSERT_GT(ref.losses, 0u);
  const auto proc = run_process(cfg, 4, 2);
  expect_conformant(proc, ref, "loss injection");
  EXPECT_EQ(proc.delivery_ratio, ref.delivery_ratio);
}

TEST(ProcessSimConformance, WarmEngineReuseMatchesFresh) {
  // A/B/A across sweep points on one warm process engine: the slot must
  // be reset (never rebuilt) and every point must replay the fresh
  // reference bit-for-bit.
  auto cfg_a = base_config(TrafficKind::Audio, RegulationScheme::SigmaRho);
  cfg_a.duration = 1.0;
  auto cfg_b = cfg_a;
  cfg_b.utilization = 0.85;
  const auto fresh_a = run_reference(cfg_a);
  const auto fresh_b = run_reference(cfg_b);

  auto a = cfg_a;
  a.engine = sim::EngineKind::Process;
  a.shards = 4;
  a.processes = 2;
  auto b = a;
  b.utilization = cfg_b.utilization;
  std::unique_ptr<sim::Engine> warm;
  const auto warm_a1 = run_multigroup(a, warm);
  sim::Engine* const built = warm.get();
  ASSERT_NE(built, nullptr);
  EXPECT_EQ(built->kind(), sim::EngineKind::Process);
  const auto warm_b = run_multigroup(b, warm);
  const auto warm_a2 = run_multigroup(a, warm);
  EXPECT_EQ(warm.get(), built) << "the slot must be reset, not rebuilt";
  expect_conformant(warm_a1, fresh_a, "warm run 1");
  expect_conformant(warm_b, fresh_b, "warm run B");
  expect_conformant(warm_a2, fresh_a, "warm replay of A");
}

TEST(ProcessSimConformance, SweepMatchesSingleSweepPointByPoint) {
  // A Process sweep runs its points one after another on one warm engine
  // (the workers are the parallel axis); each point must equal the
  // Single sweep's.
  auto cfg = base_config(TrafficKind::Audio, RegulationScheme::SigmaRho);
  cfg.duration = 1.0;
  const std::vector<double> grid{0.4, 0.8};
  const auto single = sweep_multigroup(cfg, grid);
  cfg.engine = sim::EngineKind::Process;
  cfg.shards = 4;
  cfg.processes = 2;
  cfg.process_timeout_seconds = 60.0;
  const auto proc = sweep_multigroup(cfg, grid);
  ASSERT_EQ(single.size(), grid.size());
  ASSERT_EQ(proc.size(), grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const std::string label = "point " + std::to_string(i);
    EXPECT_EQ(proc[i].processes, 2u) << label;
    EXPECT_EQ(proc[i].utilization, single[i].utilization) << label;
    expect_conformant(proc[i], single[i], label);
  }
}

TEST(ProcessSimConformance, WarmSlotRebuildsOnProcessKnobChanges) {
  auto cfg = base_config(TrafficKind::Audio, RegulationScheme::SigmaRho);
  cfg.duration = 0.5;
  cfg.engine = sim::EngineKind::Process;
  cfg.shards = 2;
  cfg.processes = 2;
  std::unique_ptr<sim::Engine> warm;
  run_multigroup(cfg, warm);
  sim::Engine* const first = warm.get();
  run_multigroup(cfg, warm);
  EXPECT_EQ(warm.get(), first) << "same config must reuse";
  cfg.process_timeout_seconds = 45.0;
  run_multigroup(cfg, warm);
  EXPECT_NE(warm.get(), first) << "timeout change must rebuild";
  sim::Engine* const second = warm.get();
  cfg.processes = 1;
  run_multigroup(cfg, warm);
  EXPECT_NE(warm.get(), second) << "process-count change must rebuild";
}

TEST(ProcessSimConformance, RecordIsRejectedReplayIsNot) {
  auto cfg = base_config(TrafficKind::Audio, RegulationScheme::SigmaRho);
  cfg.duration = 0.5;

  // Record on the single engine...
  traffic::TraceRecorder recorder(static_cast<std::size_t>(cfg.groups));
  auto rec_cfg = cfg;
  rec_cfg.record = &recorder;
  const auto live = run_multigroup(rec_cfg);
  ASSERT_GT(live.deliveries, 0u);
  const traffic::TraceBuffer buffer = recorder.finish();

  // ...recording on the process engine is rejected up front...
  auto bad = rec_cfg;
  bad.engine = sim::EngineKind::Process;
  bad.shards = 2;
  bad.processes = 2;
  EXPECT_THROW(run_multigroup(bad), std::invalid_argument);

  // ...and replaying the recorded trace on the process engine reproduces
  // the live run's canonical trace (the buffer is read-only, fork-shared).
  auto replay_cfg = cfg;
  replay_cfg.replay = &buffer;
  replay_cfg.engine = sim::EngineKind::Process;
  replay_cfg.shards = 2;
  replay_cfg.processes = 2;
  const auto replayed = run_multigroup(replay_cfg);
  ASSERT_TRUE(replayed.trace == live.trace)
      << "replay on the process engine diverged from the recorded live run";
}

}  // namespace
}  // namespace emcast::experiments
