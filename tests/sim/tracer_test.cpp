#include "sim/tracer.hpp"

#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "util/bytes.hpp"

namespace emcast::sim {
namespace {

Packet make_packet(FlowId flow, Time created) {
  Packet p;
  p.flow = flow;
  p.created = created;
  return p;
}

TEST(DelayTracer, RecordsAge) {
  DelayTracer t;
  t.record(make_packet(0, 1.0), 1.5);
  EXPECT_EQ(t.all().count(), 1u);
  EXPECT_DOUBLE_EQ(t.worst_case(), 0.5);
}

TEST(DelayTracer, WorstCaseIsMaximum) {
  DelayTracer t;
  t.record(make_packet(0, 0.0), 0.3);
  t.record(make_packet(0, 0.0), 0.9);
  t.record(make_packet(0, 0.0), 0.1);
  EXPECT_DOUBLE_EQ(t.worst_case(), 0.9);
}

TEST(DelayTracer, WarmupSamplesDropped) {
  DelayTracer t(2.0);
  t.record(make_packet(0, 0.0), 1.0);   // inside warm-up
  t.record(make_packet(0, 2.5), 3.0);   // after warm-up
  EXPECT_EQ(t.all().count(), 1u);
  EXPECT_EQ(t.dropped_warmup(), 1u);
  EXPECT_DOUBLE_EQ(t.worst_case(), 0.5);
}

TEST(DelayTracer, EmptyWorstCaseIsZero) {
  DelayTracer t;
  EXPECT_DOUBLE_EQ(t.worst_case(), 0.0);
}

TEST(DelayTracer, SetWarmupTakesEffect) {
  DelayTracer t;
  t.set_warmup(10.0);
  EXPECT_DOUBLE_EQ(t.warmup(), 10.0);
  t.record(make_packet(0, 0.0), 5.0);
  EXPECT_EQ(t.all().count(), 0u);
}

TEST(DelayTracer, RecordDelayExplicitValue) {
  DelayTracer t;
  t.record_delay(0.125, 1.0);
  EXPECT_EQ(t.all().count(), 1u);
  EXPECT_DOUBLE_EQ(t.worst_case(), 0.125);
}

TEST(DelayTracer, QuantilesOffByDefault) {
  DelayTracer t;
  t.record_delay(0.5, 1.0);
  EXPECT_FALSE(t.quantiles_enabled());
  EXPECT_DOUBLE_EQ(t.quantile(0.5), 0.0);
}

TEST(DelayTracer, QuantileSketchTracksDelays) {
  DelayTracer t;
  t.enable_quantiles();
  for (int i = 1; i <= 100; ++i) {
    t.record_delay(1e-3 * static_cast<double>(i), 1.0);
  }
  EXPECT_TRUE(t.quantiles_enabled());
  EXPECT_NEAR(t.quantile(0.5), 0.050, 0.050 * 0.05);
  EXPECT_DOUBLE_EQ(t.quantile(1.0), 0.100);  // exact max from the stats
}

TEST(DelayTracer, QuantileSketchRespectsWarmup) {
  DelayTracer t(2.0);
  t.enable_quantiles();
  t.record_delay(9.0, 1.0);   // inside warm-up: sketch must skip it
  t.record_delay(0.5, 3.0);
  EXPECT_DOUBLE_EQ(t.quantile(1.0), 0.5);
}

TEST(DelayTracer, QuantileSketchMergesExactly) {
  // Per-shard tracers merged in any order equal the single tracer: the
  // determinism contract for scale-run summaries.
  DelayTracer whole;
  whole.enable_quantiles();
  DelayTracer a, b;
  a.enable_quantiles();
  b.enable_quantiles();
  for (int i = 1; i <= 200; ++i) {
    const double d = 1e-3 * static_cast<double>(1 + (i * 61) % 199);
    whole.record_delay(d, 1.0);
    (i % 2 ? a : b).record_delay(d, 1.0);
  }
  DelayTracer merged_ab;
  merged_ab.enable_quantiles();
  merged_ab.merge(a);
  merged_ab.merge(b);
  DelayTracer merged_ba;
  merged_ba.enable_quantiles();
  merged_ba.merge(b);
  merged_ba.merge(a);
  EXPECT_EQ(merged_ab.quantile(0.5), whole.quantile(0.5));
  EXPECT_EQ(merged_ba.quantile(0.5), whole.quantile(0.5));
  EXPECT_EQ(merged_ab.quantile(0.99), whole.quantile(0.99));
  EXPECT_EQ(merged_ba.quantile(0.99), whole.quantile(0.99));
}

TEST(DelayTracer, MergedMeanIsBitEqualInEveryOrder) {
  // One fixed sample set split across 1-4 tracers and merged forward, in
  // reverse and through save/load: every fold gives the sequential
  // tracer's mean bit for bit.  This is what makes mean_delay identical
  // on every engine, shard count and worker-process count.
  std::vector<double> delays;
  for (int i = 1; i <= 997; ++i) {
    delays.push_back(0.05 + 0.1 * std::fabs(std::sin(0.37 * i)));
  }
  DelayTracer whole;
  for (const double d : delays) whole.record_delay(d, 1.0);
  for (std::size_t parts = 1; parts <= 4; ++parts) {
    std::vector<DelayTracer> shard(parts);
    for (std::size_t i = 0; i < delays.size(); ++i) {
      shard[i * parts / delays.size()].record_delay(delays[i], 1.0);
    }
    DelayTracer forward, reverse, shipped;
    for (std::size_t k = 0; k < parts; ++k) {
      forward.merge(shard[k]);
      reverse.merge(shard[parts - 1 - k]);
      std::vector<std::uint8_t> blob;
      util::ByteWriter w(blob);
      shard[k].save(w);
      DelayTracer loaded;
      util::ByteReader r(blob.data(), blob.size());
      loaded.load(r);
      shipped.merge(loaded);
    }
    for (const DelayTracer* t : {&forward, &reverse, &shipped}) {
      EXPECT_EQ(t->all().count(), whole.all().count()) << parts << " tracers";
      EXPECT_EQ(t->all().mean(), whole.all().mean()) << parts << " tracers";
      EXPECT_EQ(t->worst_case(), whole.worst_case()) << parts << " tracers";
    }
  }
}

TEST(DelayTracer, CopyPreservesSketch) {
  DelayTracer t;
  t.enable_quantiles();
  t.record_delay(0.25, 1.0);
  DelayTracer copy = t;            // deep copy of the sketch
  copy.record_delay(0.75, 1.0);
  EXPECT_DOUBLE_EQ(t.quantile(1.0), 0.25);
  EXPECT_DOUBLE_EQ(copy.quantile(1.0), 0.75);
}

TEST(DelayTracer, MemoryBytesGrowsWithSketch) {
  DelayTracer plain;
  DelayTracer sketched;
  sketched.enable_quantiles();
  EXPECT_GT(sketched.memory_bytes(), plain.memory_bytes());
}

}  // namespace
}  // namespace emcast::sim
