// Sharded-simulator scaling sweep: shard count x host count over the
// unregulated multigroup model (RegulationScheme::None), against the
// single-threaded reference kernel on the same model.
//
//   BM_ShardedScalingRef/<hosts>          single-threaded Simulator
//   BM_ShardedScaling/<hosts>/<shards>    ShardedSimulator, auto threads
//
// Manual timing: each iteration rebuilds the run but the clock covers
// only the run() itself (overlay construction is excluded), so
// items_per_second is events through the kernel per wall second.
// Speedup at S shards on H hosts = items/s of /H/S over items/s of
// Ref/H.  NOTE: worker threads are capped by the machine;
// MultiGroupSimResult.threads in the console output shows what a
// run actually used — on a 1-core container every configuration
// serialises and the sweep measures pure window/mailbox overhead
// instead of speedup (see BENCH_pr3.json provenance note in ROADMAP).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>

#include "bench_common.hpp"

#include "experiments/multigroup_sim.hpp"

namespace {

using emcast::experiments::MultiGroupSimConfig;
using emcast::experiments::run_multigroup;

MultiGroupSimConfig scaled_config(std::size_t hosts) {
  MultiGroupSimConfig cfg;
  cfg.kind = emcast::experiments::TrafficKind::Audio;
  cfg.regulation = emcast::experiments::RegulationScheme::None;
  cfg.groups = 3;
  cfg.hosts = hosts;
  cfg.duration = 2.0;
  cfg.warmup = 0.5;
  cfg.seed = 11;
  cfg.collect_trace = false;
  return cfg;
}

void BM_ShardedScalingRef(benchmark::State& state) {
  const MultiGroupSimConfig cfg =
      scaled_config(static_cast<std::size_t>(state.range(0)));
  std::uint64_t events = 0;
  for (auto _ : state) {
    const auto r = run_multigroup(cfg);
    state.SetIterationTime(r.run_seconds);
    events += r.events_executed;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
}
BENCHMARK(BM_ShardedScalingRef)
    ->Arg(1024)
    ->Arg(4096)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

void BM_ShardedScaling(benchmark::State& state) {
  MultiGroupSimConfig cfg =
      scaled_config(static_cast<std::size_t>(state.range(0)));
  cfg.engine = emcast::sim::EngineKind::Sharded;
  cfg.shards = static_cast<std::size_t>(state.range(1));
  std::uint64_t events = 0;
  for (auto _ : state) {
    const auto r = run_multigroup(cfg);
    state.SetIterationTime(r.run_seconds);
    events += r.events_executed;
    state.counters["threads"] = static_cast<double>(r.threads);
    state.counters["rounds"] = static_cast<double>(r.rounds);
    state.counters["xmsgs"] = static_cast<double>(r.messages);
    state.counters["lookahead_ms"] = r.lookahead * 1e3;
    // Window-protocol cost axis: synchronisation rounds per simulated
    // second.  Wider windows (the pair-lookahead matrix) push this DOWN
    // at fixed traffic; compare across PR snapshots at equal shard count.
    state.counters["win_per_simsec"] =
        static_cast<double>(r.rounds) / r.horizon;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
}

BENCHMARK(BM_ShardedScaling)
    ->ArgsProduct({{1024, 4096}, {1, 2, 4, 8}})
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

// ---- host-count sweep axis (PR 9) -------------------------------------
//
//   BM_HostScaleSweep/<hosts>/<shards>    hierarchical underlay + compact
//                                         host state (the 10^6-host path)
//
// The per-host counters are the acceptance axis of the scale subsystem:
//   events_per_host   events/s/host — should stay ~flat as N grows
//                     (fan-out work per host is bounded by tree degree);
//   bytes_per_host    HostTable lanes + side tables, per host — the
//                     memory line that must NOT grow with N;
//   provider_mb       delay-provider footprint (compact oracle: R² + M,
//                     not (R + M)²).
// Router count scales ~N/256 to hold the mean attachment-domain size.
MultiGroupSimConfig sweep_config(std::size_t hosts, std::size_t shards) {
  MultiGroupSimConfig cfg;
  cfg.kind = emcast::experiments::TrafficKind::Audio;
  cfg.regulation = emcast::experiments::RegulationScheme::None;
  cfg.groups = 3;
  cfg.hosts = hosts;
  cfg.routers = std::max<std::size_t>(16, hosts / 256);
  cfg.duration = 0.5;
  cfg.warmup = 0.1;
  cfg.seed = 11;
  cfg.engine = emcast::sim::EngineKind::Sharded;
  cfg.shards = shards;
  cfg.sample_deliveries = 128;
  return cfg;
}

void BM_HostScaleSweep(benchmark::State& state) {
  const MultiGroupSimConfig cfg =
      sweep_config(static_cast<std::size_t>(state.range(0)),
                   static_cast<std::size_t>(state.range(1)));
  std::uint64_t events = 0;
  for (auto _ : state) {
    const auto r = run_multigroup(cfg);
    state.SetIterationTime(r.run_seconds);
    events += r.events_executed;
    state.counters["threads"] = static_cast<double>(r.threads);
    state.counters["bytes_per_host"] = r.bytes_per_host;
    state.counters["provider_mb"] =
        static_cast<double>(r.delay_provider_bytes) / (1024.0 * 1024.0);
    state.counters["events_per_host"] =
        static_cast<double>(r.events_executed) /
        (r.run_seconds * static_cast<double>(cfg.hosts));
    state.counters["p99_ms"] = r.delay_p99 * 1e3;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
}

BENCHMARK(BM_HostScaleSweep)
    ->ArgsProduct({{1024, 4096, 10000}, {1, 4}})
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

}  // namespace

EMCAST_BENCH_MAIN();
