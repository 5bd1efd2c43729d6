// Record → replay determinism suite (PR 7 acceptance contract): a run
// recorded from a live synthetic workload and replayed through
// traffic::TraceSource produces a byte-identical canonical DeliveryTrace —
// on the Single backend, on the Sharded backend for every shard and
// worker-thread count, and on warm-reused engines.
//
// Why this holds: the replay config derives the identical scenario
// (regulator specs, trees, capacity) and only swaps which sources are
// started, and the trace stores bit-exact double timestamps through
// sim::time_key, so the replayed pipeline computes on the exact float
// operands the live run scheduled.  The suite name matches the ShardedSim*
// concurrency filter, so these runs also ride TSan in CI.

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "experiments/multigroup_sim.hpp"
#include "traffic/trace_format.hpp"
#include "traffic/trace_recorder.hpp"

namespace emcast::experiments {
namespace {

MultiGroupSimConfig base_config(TrafficKind kind) {
  MultiGroupSimConfig c;
  c.kind = kind;
  c.family = TreeFamily::Dsct;
  c.regulation = RegulationScheme::SigmaRho;
  c.utilization = 0.6;
  c.hosts = 96;
  c.duration = 1.0;
  c.warmup = 0.25;
  c.seed = 7;
  c.collect_trace = true;
  return c;
}

/// Run the live workload once, capturing the source boundary.
traffic::TraceBuffer record_live(const MultiGroupSimConfig& cfg,
                                 MultiGroupSimResult* live_out = nullptr) {
  traffic::TraceRecorder rec(static_cast<std::size_t>(cfg.groups));
  MultiGroupSimConfig recording = cfg;
  recording.record = &rec;
  MultiGroupSimResult live = run_multigroup(recording);
  if (live_out != nullptr) *live_out = std::move(live);
  return rec.finish();
}

MultiGroupSimConfig replay_config(const MultiGroupSimConfig& cfg,
                                  const traffic::TraceBuffer& trace) {
  MultiGroupSimConfig c = cfg;
  c.replay = &trace;
  return c;
}

TEST(ShardedSimTraceReplay, RecorderDoesNotPerturbTheRun) {
  const auto cfg = base_config(TrafficKind::Audio);
  const auto plain = run_multigroup(cfg);
  MultiGroupSimResult recorded;
  const traffic::TraceBuffer trace = record_live(cfg, &recorded);
  ASSERT_GT(trace.records(), 0u);
  ASSERT_TRUE(recorded.trace == plain.trace)
      << "attaching a recorder must not change the run";
  EXPECT_EQ(trace.header().seed, cfg.seed);
  EXPECT_EQ(trace.header().fingerprint, workload_fingerprint(cfg));
}

TEST(ShardedSimTraceReplay, ReplayMatchesLiveSingle) {
  const auto cfg = base_config(TrafficKind::Audio);
  MultiGroupSimResult live;
  const traffic::TraceBuffer trace = record_live(cfg, &live);
  const auto replayed = run_multigroup(replay_config(cfg, trace));
  EXPECT_EQ(replayed.deliveries, live.deliveries);
  EXPECT_EQ(replayed.worst_case_delay, live.worst_case_delay);
  ASSERT_TRUE(replayed.trace == live.trace)
      << "recorded-then-replayed run must be byte-identical to live";
}

TEST(ShardedSimTraceReplay, ReplayShardCountsMatchLive) {
  const auto cfg = base_config(TrafficKind::Audio);
  MultiGroupSimResult live;
  const traffic::TraceBuffer trace = record_live(cfg, &live);
  for (const std::size_t shards : {1u, 2u, 4u}) {
    auto c = replay_config(cfg, trace);
    c.engine = sim::EngineKind::Sharded;
    c.shards = shards;
    const auto replayed = run_multigroup(c);
    ASSERT_TRUE(replayed.trace == live.trace)
        << shards << " shards: replayed trace differs from live";
    if (shards > 1) {
      EXPECT_GT(replayed.messages, 0u);
    }
  }
}

TEST(ShardedSimTraceReplay, ReplayWorkerThreadsNeverChangeTheTrace) {
  const auto cfg = base_config(TrafficKind::Audio);
  MultiGroupSimResult live;
  const traffic::TraceBuffer trace = record_live(cfg, &live);
  for (const std::size_t threads : {1u, 2u, 3u, 4u}) {
    auto c = replay_config(cfg, trace);
    c.engine = sim::EngineKind::Sharded;
    c.shards = 4;
    c.threads = threads;
    const auto replayed = run_multigroup(c);
    ASSERT_TRUE(replayed.trace == live.trace)
        << threads << " worker threads: replayed trace differs from live";
  }
}

TEST(ShardedSimTraceReplay, WarmEngineReplayMatchesFresh) {
  // Replay across warm Engine::reset() runs: the TraceSources rewind per
  // start(), so a reused engine replays the point bit-for-bit, on both
  // backends.
  const auto cfg = base_config(TrafficKind::Audio);
  MultiGroupSimResult live;
  const traffic::TraceBuffer trace = record_live(cfg, &live);
  const auto rcfg = replay_config(cfg, trace);

  std::unique_ptr<sim::Engine> warm;
  const auto warm_1 = run_multigroup(rcfg, warm);
  sim::Engine* const built = warm.get();
  const auto warm_2 = run_multigroup(rcfg, warm);
  EXPECT_EQ(warm.get(), built) << "the slot must be reset, not rebuilt";
  ASSERT_TRUE(warm_1.trace == live.trace);
  ASSERT_TRUE(warm_2.trace == live.trace)
      << "a warm-reused engine must replay the trace bit-for-bit";

  auto sharded = rcfg;
  sharded.engine = sim::EngineKind::Sharded;
  sharded.shards = 2;
  sharded.threads = 2;
  std::unique_ptr<sim::Engine> warm_sharded;
  const auto s1 = run_multigroup(sharded, warm_sharded);
  const auto s2 = run_multigroup(sharded, warm_sharded);
  ASSERT_TRUE(s1.trace == live.trace);
  ASSERT_TRUE(s2.trace == live.trace);
}

TEST(ShardedSimTraceReplay, RecordOfReplayIsByteIdentical) {
  // Closure: re-recording a replayed run reproduces the trace bytes
  // exactly — header (same config fingerprint) and records.
  const auto cfg = base_config(TrafficKind::Audio);
  traffic::TraceRecorder rec(static_cast<std::size_t>(cfg.groups));
  MultiGroupSimConfig recording = cfg;
  recording.record = &rec;
  run_multigroup(recording);
  const std::vector<std::uint8_t> original = rec.bytes();
  const traffic::TraceBuffer trace = rec.finish();

  traffic::TraceRecorder again(static_cast<std::size_t>(cfg.groups));
  auto c = replay_config(cfg, trace);
  c.record = &again;
  run_multigroup(c);
  EXPECT_EQ(again.bytes(), original);
}

TEST(ShardedSimTraceReplay, HeteroWorkloadRoundtrips) {
  // Hetero mixes audio and MPEG sources — frame bursts (many records at
  // one instant) ride the same contract.
  auto cfg = base_config(TrafficKind::Hetero);
  MultiGroupSimResult live;
  const traffic::TraceBuffer trace = record_live(cfg, &live);
  ASSERT_GT(live.deliveries, 0u);
  const auto single = run_multigroup(replay_config(cfg, trace));
  ASSERT_TRUE(single.trace == live.trace);
  auto c = replay_config(cfg, trace);
  c.engine = sim::EngineKind::Sharded;
  c.shards = 4;
  const auto sharded = run_multigroup(c);
  ASSERT_TRUE(sharded.trace == live.trace);
}

TEST(ShardedSimTraceReplay, RejectsUnderProvisionedRecorder) {
  auto cfg = base_config(TrafficKind::Audio);
  traffic::TraceRecorder rec(1);  // 3 groups need 3 lanes
  cfg.record = &rec;
  EXPECT_THROW(run_multigroup(cfg), std::invalid_argument);
}

}  // namespace
}  // namespace emcast::experiments
