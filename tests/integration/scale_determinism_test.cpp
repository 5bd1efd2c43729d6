// Scale-mode determinism: the hierarchical underlay + compact host state
// must keep the repo's central contract — byte-identical canonical traces
// across the reference kernel and every shard count — and the streaming
// summaries that replace the full trace at 10^6 hosts (log-binned
// quantile sketch, k-min delivery sample) must themselves be identical
// across shard counts.  Spot-checked here at CI-feasible N; the
// EMCAST_SLOW_TESTS-gated MillionHostDemo runs the real thing.
//
// (Deliberately NOT named ShardedSim*: that prefix is the TSan CI
// filter, and these runs are differential sweeps, not new concurrency
// surface — the engine paths they use are already TSan-covered by the
// ShardedSim suites.)

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <vector>

#include "experiments/multigroup_sim.hpp"

namespace emcast::experiments {
namespace {

TEST(ScaleDeterminism, UnregulatedShardCountsByteIdenticalOnHierarchical) {
  MultiGroupSimConfig base;
  base.regulation = RegulationScheme::None;
  base.hosts = 2000;
  base.routers = 32;
  base.groups = 3;
  base.duration = 1.0;
  base.warmup = 0.25;
  base.collect_trace = true;
  base.sample_deliveries = 64;

  const MultiGroupSimResult reference = run_multigroup(base);
  ASSERT_GT(reference.deliveries, 0u);
  ASSERT_EQ(reference.sample.size(), 64u);

  for (const std::size_t shards : {1u, 2u, 4u}) {
    MultiGroupSimConfig c = base;
    c.engine = sim::EngineKind::Sharded;
    c.shards = shards;
    c.threads = 2;
    const MultiGroupSimResult r = run_multigroup(c);
    EXPECT_EQ(r.trace, reference.trace) << shards << " shards";
    EXPECT_EQ(r.sample, reference.sample) << shards << " shards";
    EXPECT_EQ(r.deliveries, reference.deliveries);
    // Sketch quantiles and the fixed-point mean merge order-independently:
    // exact double equality, not approximate.
    EXPECT_EQ(r.mean_delay, reference.mean_delay) << shards << " shards";
    EXPECT_EQ(r.delay_p50, reference.delay_p50) << shards << " shards";
    EXPECT_EQ(r.delay_p99, reference.delay_p99) << shards << " shards";
  }
}

TEST(ScaleDeterminism, AllFourSchemesByteIdenticalOnHierarchical) {
  for (const RegulationScheme scheme :
       {RegulationScheme::CapacityAware, RegulationScheme::SigmaRho,
        RegulationScheme::SigmaRhoLambda, RegulationScheme::Adaptive}) {
    MultiGroupSimConfig base;
    base.regulation = scheme;
    base.hosts = 900;
    base.routers = 24;
    base.duration = 1.5;
    base.warmup = 0.5;
    base.collect_trace = true;
    base.sample_deliveries = 32;

    MultiGroupSimConfig ref = base;
    ref.engine = sim::EngineKind::Single;
    const MultiGroupSimResult reference = run_multigroup(ref);
    ASSERT_GT(reference.deliveries, 0u) << to_string(scheme);
    ASSERT_EQ(reference.sample.size(), 32u) << to_string(scheme);

    for (const std::size_t shards : {2u, 4u}) {
      MultiGroupSimConfig c = base;
      c.engine = sim::EngineKind::Sharded;
      c.shards = shards;
      c.threads = 2;
      const MultiGroupSimResult r = run_multigroup(c);
      EXPECT_EQ(r.trace, reference.trace)
          << to_string(scheme) << " @ " << shards << " shards";
      EXPECT_EQ(r.sample, reference.sample)
          << to_string(scheme) << " @ " << shards << " shards";
      EXPECT_EQ(r.mean_delay, reference.mean_delay)
          << to_string(scheme) << " @ " << shards << " shards";
      EXPECT_EQ(r.delay_p50, reference.delay_p50);
      EXPECT_EQ(r.delay_p99, reference.delay_p99);
    }
  }
}

TEST(ScaleDeterminism, SampleIsTruncationOfCanonicalDeliverySet) {
  // The k-min sample must be a subset of the full trace — same records,
  // bit for bit — and a pure function of the delivered multiset: a
  // bigger k keeps every record the smaller k kept.
  MultiGroupSimConfig c;
  c.regulation = RegulationScheme::None;
  c.hosts = 1200;
  c.routers = 24;
  c.duration = 0.5;
  c.warmup = 0.0;
  c.collect_trace = true;
  c.sample_deliveries = 16;
  const MultiGroupSimResult small = run_multigroup(c);
  c.sample_deliveries = 64;
  const MultiGroupSimResult big = run_multigroup(c);
  ASSERT_EQ(small.sample.size(), 16u);
  ASSERT_EQ(big.sample.size(), 64u);
  EXPECT_EQ(small.mean_delay, big.mean_delay);
  for (const DeliveryRecord& rec : small.sample) {
    EXPECT_NE(std::find(big.sample.begin(), big.sample.end(), rec),
              big.sample.end());
    EXPECT_NE(std::find(big.trace.begin(), big.trace.end(), rec),
              big.trace.end());
  }
}

TEST(ScaleDeterminism, TenThousandHostSmoke) {
  // CI-sized slice of the host-count sweep axis: 10^4 hosts on the
  // hierarchical underlay, shard counts agree on summaries, and the
  // compact providers hold the memory line (the full DelayMatrix alone
  // would be (routers + hosts)^2 * 8 bytes ~ 0.8 GB here).
  MultiGroupSimConfig base;
  base.regulation = RegulationScheme::None;
  base.hosts = 10000;
  base.routers = 64;
  base.groups = 3;
  base.duration = 0.3;
  base.warmup = 0.1;
  base.sample_deliveries = 128;

  MultiGroupSimConfig b = base;
  b.engine = sim::EngineKind::Sharded;
  b.shards = 4;
  b.threads = 2;
  const MultiGroupSimResult ra = run_multigroup(base);
  const MultiGroupSimResult rb = run_multigroup(b);
  ASSERT_GT(ra.deliveries, 0u);
  EXPECT_EQ(ra.deliveries, rb.deliveries);
  EXPECT_EQ(ra.sample, rb.sample);
  EXPECT_EQ(ra.mean_delay, rb.mean_delay);
  EXPECT_EQ(ra.delay_p50, rb.delay_p50);
  EXPECT_EQ(ra.delay_p99, rb.delay_p99);

  EXPECT_GT(ra.bytes_per_host, 0.0);
  EXPECT_LT(ra.bytes_per_host, 512.0);
  EXPECT_LT(ra.delay_provider_bytes, 8u << 20);  // oracle, not 0.8 GB
  EXPECT_GT(ra.delay_p99, ra.delay_p50);
}

}  // namespace
}  // namespace emcast::experiments
