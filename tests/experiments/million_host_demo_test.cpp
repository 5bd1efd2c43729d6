// The 10^6-host demonstration run (ISSUE 9 acceptance): all four
// regulation schemes complete on the hierarchical underlay with the
// compact host-state subsystem, and the scale summaries stay
// byte-identical across shard counts.  Gated behind EMCAST_SLOW_TESTS /
// the ctest `slow` label — a full sweep takes tens of minutes; the
// CI-sized spot checks live in tests/integration/scale_determinism_test
// (same code paths at 10^3..10^4 hosts).
//
// What this run claims (see docs/reproduction.md): the subsystem scales —
// memory per host stays bounded and flat, the run completes, determinism
// holds.  It does NOT claim paper-figure delay numbers at 10^6 hosts; the
// paper's experiments stop at 665 hosts and the traffic here is scaled
// down (short horizon) to keep the demo tractable.

#include <gtest/gtest.h>

#include <cstddef>

#include "experiments/multigroup_sim.hpp"

namespace emcast::experiments {
namespace {

constexpr std::size_t kMillionHosts = 1000000;
constexpr std::size_t kRouters = 4096;  // mean domain ~ 280 hosts

TEST(MillionHostDemo, AllFourSchemesComplete) {
  for (const RegulationScheme scheme :
       {RegulationScheme::CapacityAware, RegulationScheme::SigmaRho,
        RegulationScheme::SigmaRhoLambda, RegulationScheme::Adaptive}) {
    MultiGroupSimConfig c;
    c.regulation = scheme;
    c.hosts = kMillionHosts;
    c.routers = kRouters;
    c.duration = 0.02;  // a few packets per group; fan-out does the rest
    c.warmup = 0.0;
    c.sample_deliveries = 256;
    const MultiGroupSimResult r = run_multigroup(c);
    EXPECT_GT(r.deliveries, kMillionHosts) << to_string(scheme);
    EXPECT_EQ(r.sample.size(), 256u) << to_string(scheme);
    EXPECT_GT(r.delay_p99, 0.0) << to_string(scheme);
    // The memory line this PR exists for: bounded per-host state and a
    // delay provider ~5 orders of magnitude below the full matrix
    // ((4096 + 10^6)^2 * 8 B ~ 8 TB).
    EXPECT_LT(r.bytes_per_host, 2048.0) << to_string(scheme);
    EXPECT_LT(r.delay_provider_bytes, 512u << 20) << to_string(scheme);
  }
}

TEST(MillionHostDemo, ShardCountsAgreeAtScale) {
  // The unregulated model under the sharded backend: summaries (k-min
  // sample, sketch quantiles, delivery count) must be identical for 2 and
  // 4 shards at 10^6 hosts.
  MultiGroupSimConfig base;
  base.regulation = RegulationScheme::None;
  base.engine = sim::EngineKind::Sharded;
  base.hosts = kMillionHosts;
  base.routers = kRouters;
  base.duration = 0.02;
  base.warmup = 0.0;
  base.sample_deliveries = 256;
  base.threads = 2;

  MultiGroupSimConfig two = base;
  two.shards = 2;
  MultiGroupSimConfig four = base;
  four.shards = 4;
  const MultiGroupSimResult r2 = run_multigroup(two);
  const MultiGroupSimResult r4 = run_multigroup(four);
  ASSERT_GT(r2.deliveries, kMillionHosts);
  EXPECT_EQ(r2.deliveries, r4.deliveries);
  EXPECT_EQ(r2.sample, r4.sample);
  EXPECT_EQ(r2.delay_p50, r4.delay_p50);
  EXPECT_EQ(r2.delay_p99, r4.delay_p99);
  EXPECT_LT(r2.bytes_per_host, 512.0);
}

}  // namespace
}  // namespace emcast::experiments
