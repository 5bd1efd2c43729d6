// Process-backend window-round cost vs. the in-process sharded engine
// (PR 10).
//
//   BM_ProcessWindowRound/<shards>        EngineKind::Process — forked
//       workers, barrier and key image in shared memory, handoff frames
//       through shared-memory rings each round, result blobs at the end;
//   BM_ProcessWindowRoundInproc/<shards>  the identical model on
//       EngineKind::Sharded: same shard partition, same per-pair
//       lookahead windows, same round count (pinned byte-identical by
//       the ProcessSimConformance suite) — only the exchange differs.
//
// The pair ratio is therefore exactly the cross-process tax: fork,
// handoff frames through the rings and the result blobs, amortised over
// the model events of the run.  Gated by bench_compare.py
// --ab-only --ab-suffix Inproc so runner speed cancels; the engine is
// kept warm across iterations on both sides (run_multigroup's slot
// overload, the orchestrator's per-worker usage).
//
// items_per_second counts deliveries, and `rounds` / `per_round_us`
// ride along as counters: the protocol's cost axis is microseconds per
// window round, comparable across PR snapshots at equal shard count.

#include <benchmark/benchmark.h>

#include "bench_common.hpp"

#include <chrono>
#include <cstdint>
#include <memory>

#include "experiments/multigroup_sim.hpp"

namespace {

using namespace emcast;
using namespace emcast::experiments;

MultiGroupSimConfig round_config(std::size_t shards, sim::EngineKind kind) {
  MultiGroupSimConfig cfg;
  cfg.kind = TrafficKind::Audio;
  cfg.regulation = RegulationScheme::Adaptive;
  cfg.utilization = 0.7;
  cfg.hosts = 240;
  cfg.groups = 3;
  cfg.duration = 2.0;
  cfg.warmup = 0.5;
  cfg.seed = 11;
  cfg.engine = kind;
  cfg.shards = shards;
  cfg.threads = 0;
  cfg.processes = 0;  // auto: one worker per shard up to the core count
  cfg.sample_deliveries = 64;
  return cfg;
}

void run_rounds(benchmark::State& state, sim::EngineKind kind) {
  const auto cfg =
      round_config(static_cast<std::size_t>(state.range(0)), kind);
  std::unique_ptr<sim::Engine> slot;  // warm engine across iterations
  std::uint64_t deliveries = 0;
  for (auto _ : state) {
    const auto t0 = std::chrono::steady_clock::now();
    const MultiGroupSimResult r = run_multigroup(cfg, slot);
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    state.SetIterationTime(wall);
    deliveries += r.deliveries;
    state.counters["rounds"] = static_cast<double>(r.rounds);
    state.counters["xmsgs"] = static_cast<double>(r.messages);
    state.counters["workers"] = static_cast<double>(
        kind == sim::EngineKind::Process ? r.processes : r.threads);
    if (r.rounds > 0) {
      state.counters["per_round_us"] =
          wall * 1e6 / static_cast<double>(r.rounds);
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(deliveries));
}

void BM_ProcessWindowRound(benchmark::State& state) {
  run_rounds(state, sim::EngineKind::Process);
}
BENCHMARK(BM_ProcessWindowRound)
    ->Arg(2)
    ->Arg(4)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond)
    ->Iterations(3);

void BM_ProcessWindowRoundInproc(benchmark::State& state) {
  run_rounds(state, sim::EngineKind::Sharded);
}
BENCHMARK(BM_ProcessWindowRoundInproc)
    ->Arg(2)
    ->Arg(4)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond)
    ->Iterations(3);

}  // namespace

EMCAST_BENCH_MAIN();
