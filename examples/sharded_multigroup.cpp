// Sharded multigroup dissemination: run the unregulated multigroup model
// (RegulationScheme::None) on the single-threaded reference kernel and on
// the sharded simulator, verify the canonical delivery traces match
// byte-for-byte, and report the scaling telemetry (rounds, cross-shard
// traffic, events/s).
//
//   ./example_sharded_multigroup [hosts] [shards] [groups]

#include <cstdio>
#include <cstdlib>

#include "experiments/multigroup_sim.hpp"

int main(int argc, char** argv) {
  using namespace emcast;
  experiments::MultiGroupSimConfig cfg;
  cfg.kind = experiments::TrafficKind::Audio;
  cfg.regulation = experiments::RegulationScheme::None;
  cfg.hosts = argc > 1 ? static_cast<std::size_t>(std::atoi(argv[1])) : 665;
  const std::size_t shards =
      argc > 2 ? static_cast<std::size_t>(std::atoi(argv[2])) : 4;
  cfg.groups = argc > 3 ? std::atoi(argv[3]) : 3;
  cfg.duration = 2.0;
  cfg.warmup = 0.5;
  cfg.collect_trace = true;

  std::printf("sharded multigroup: %zu hosts, %d groups, %zu shards\n\n",
              cfg.hosts, cfg.groups, shards);

  const auto ref = experiments::run_multigroup(cfg);
  std::printf("reference   : %8.2f ms wall, %9llu events, %7llu deliveries, "
              "worst %.4f s\n",
              ref.run_seconds * 1e3,
              static_cast<unsigned long long>(ref.events_executed),
              static_cast<unsigned long long>(ref.deliveries),
              ref.worst_case_delay);

  cfg.engine = sim::EngineKind::Sharded;
  cfg.shards = shards;
  const auto sh = experiments::run_multigroup(cfg);
  std::printf("%2zu shards   : %8.2f ms wall, %9llu events, %7llu deliveries, "
              "worst %.4f s\n",
              sh.shards, sh.run_seconds * 1e3,
              static_cast<unsigned long long>(sh.events_executed),
              static_cast<unsigned long long>(sh.deliveries),
              sh.worst_case_delay);
  std::printf("              %llu windows, %llu cross-shard msgs "
              "(%zu/%zu tree edges cross), lookahead %.3f ms, %zu threads\n",
              static_cast<unsigned long long>(sh.rounds),
              static_cast<unsigned long long>(sh.messages),
              sh.cross_edges, sh.total_edges, sh.lookahead * 1e3, sh.threads);

  const bool identical = sh.trace == ref.trace;
  std::printf("\ntrace check : %s (%zu records)\n",
              identical ? "byte-identical" : "MISMATCH",
              ref.trace.size());
  if (identical && sh.run_seconds > 0) {
    std::printf("speedup     : %.2fx on %zu worker thread(s)\n",
                ref.run_seconds / sh.run_seconds, sh.threads);
  }
  return identical ? 0 : 1;
}
