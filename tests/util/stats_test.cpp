#include "util/stats.hpp"

#include <cmath>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "util/bytes.hpp"

namespace emcast::util {
namespace {

TEST(OnlineStats, EmptyIsZero) {
  OnlineStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 0.0);
  EXPECT_DOUBLE_EQ(s.max(), 0.0);
}

TEST(OnlineStats, SingleSample) {
  OnlineStats s;
  s.add(5.0);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 5.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
}

TEST(OnlineStats, KnownMoments) {
  OnlineStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(OnlineStats, MergeEqualsSequential) {
  OnlineStats a, b, all;
  for (int i = 0; i < 50; ++i) {
    const double x = std::sin(i) * 10.0;
    (i % 2 ? a : b).add(x);
    all.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_EQ(a.mean(), all.mean());
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(OnlineStats, MergeWithEmptyIsIdentity) {
  OnlineStats a, empty;
  a.add(1.0);
  a.add(3.0);
  a.merge(empty);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.mean(), 2.0);
  empty.merge(a);
  EXPECT_EQ(empty.count(), 2u);
  EXPECT_DOUBLE_EQ(empty.mean(), 2.0);
}

TEST(OnlineStats, ResetClears) {
  OnlineStats s;
  s.add(10.0);
  s.reset();
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
}

TEST(OnlineStats, NegativeSamplesCancelExactly) {
  // Two's-complement sum: +x and -x cancel to zero whatever the
  // fraction bits, and a negative mean comes out with its sign.
  OnlineStats s;
  for (double x : {0.1, -0.1, 1e-9, -1e-9, 12345.678, -12345.678}) s.add(x);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.min(), -12345.678);
  EXPECT_EQ(s.max(), 12345.678);
  OnlineStats neg;
  neg.add(-1.5);
  neg.add(-0.5);
  EXPECT_EQ(neg.mean(), -1.0);
}

TEST(OnlineStats, SamplesAreTruncatedTo2PowMinus64) {
  OnlineStats s;
  s.add(0x1p-64);  // the resolution itself: exact
  EXPECT_EQ(s.mean(), 0x1p-64);
  s.reset();
  s.add(0x1p-65);  // below the resolution: truncates to zero
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.max(), 0x1p-65);  // the extrema stay exact
  s.reset();
  s.add(0x1p62 + 0x1p10);  // the whole part uses all 63 value bits
  EXPECT_EQ(s.mean(), 0x1p62 + 0x1p10);
}

TEST(OnlineStats, RejectsWhatTheFixedPointCannotHold) {
  OnlineStats s;
  EXPECT_THROW(s.add(std::nan("")), std::invalid_argument);
  EXPECT_THROW(s.add(HUGE_VAL), std::invalid_argument);
  EXPECT_THROW(s.add(-HUGE_VAL), std::invalid_argument);
  EXPECT_THROW(s.add(0x1p63), std::invalid_argument);
  EXPECT_THROW(s.add(-0x1p63), std::invalid_argument);
  EXPECT_EQ(s.count(), 0u);  // a rejected sample leaves no trace
  s.add(std::nextafter(0x1p63, 0.0));
  s.add(-std::nextafter(0x1p63, 0.0));
  EXPECT_EQ(s.count(), 2u);
  EXPECT_EQ(s.mean(), 0.0);
}

TEST(LogHistogram, QuantileWithinRelativeError) {
  LogHistogram h(1e-6, 100.0, 0.02);
  OnlineStats exact;  // the caller's accumulator over the same samples
  for (int i = 1; i <= 1000; ++i) {
    h.add(static_cast<double>(i) * 1e-3);
    exact.add(static_cast<double>(i) * 1e-3);
  }
  EXPECT_EQ(h.total(), 1000u);
  // Median of 1..1000 ms is ~0.5 s; 2% bins mean ~2% answer error.
  EXPECT_NEAR(h.quantile(0.5, exact), 0.5, 0.5 * 0.05);
  EXPECT_NEAR(h.quantile(0.99, exact), 0.99, 0.99 * 0.05);
  EXPECT_DOUBLE_EQ(h.quantile(1.0, exact), 1.0);  // exact max
}

TEST(LogHistogram, ClampsWithoutDroppingMass) {
  LogHistogram h(1e-3, 1.0, 0.05);
  OnlineStats exact;
  for (const double x : {0.0,     // non-positive clamps into bin 0
                         -2.0,
                         1e-9,    // below lo clamps into bin 0
                         50.0}) { // above hi clamps into the last bin
    h.add(x);
    exact.add(x);
  }
  EXPECT_EQ(h.total(), 4u);
  EXPECT_EQ(h.bins().front(), 3u);
  EXPECT_EQ(h.bins().back(), 1u);
  // Quantiles are clamped to the exact extrema despite bin clamping.
  EXPECT_DOUBLE_EQ(h.quantile(1.0, exact), 50.0);
}

TEST(LogHistogram, EmptySketchQuantileIsZero) {
  const LogHistogram h;
  EXPECT_EQ(h.total(), 0u);
  EXPECT_EQ(h.quantile(0.5, OnlineStats{}), 0.0);
}

TEST(LogHistogram, MergeIsOrderIndependentAndExact) {
  // Partition one sample stream across three sketches, merge in two
  // different orders: both must equal the single-sketch result exactly
  // (integer bin counts — no float drift).
  LogHistogram whole;
  LogHistogram parts[3];
  OnlineStats exact;
  for (int i = 0; i < 3000; ++i) {
    const double x = 1e-4 * static_cast<double>(1 + (i * 37) % 9973);
    whole.add(x);
    parts[i % 3].add(x);
    exact.add(x);
  }
  LogHistogram ab;
  ab.merge(parts[0]);
  ab.merge(parts[1]);
  ab.merge(parts[2]);
  LogHistogram ba;
  ba.merge(parts[2]);
  ba.merge(parts[0]);
  ba.merge(parts[1]);
  EXPECT_EQ(ab.bins(), whole.bins());
  EXPECT_EQ(ba.bins(), whole.bins());
  EXPECT_EQ(ab.quantile(0.5, exact), whole.quantile(0.5, exact));
  EXPECT_EQ(ba.quantile(0.99, exact), whole.quantile(0.99, exact));
}

TEST(LogHistogram, MemoryIsBinsNotSamples) {
  LogHistogram h;
  const std::size_t before = h.memory_bytes();
  for (int i = 0; i < 100000; ++i) h.add(0.001 * (1 + i % 97));
  EXPECT_EQ(h.memory_bytes(), before);  // O(bins), sample-count free
}

TEST(LogHistogram, MergeRejectsAnotherGeometry) {
  LogHistogram wide;
  LogHistogram narrow(1e-3, 1.0, 0.05);
  narrow.add(0.5);
  EXPECT_THROW(wide.merge(narrow), std::invalid_argument);
  EXPECT_THROW(narrow.merge(wide), std::invalid_argument);
  EXPECT_EQ(wide.total(), 0u);
}

TEST(LogHistogram, LoadRejectsAnotherGeometry) {
  // A sketch saved with fewer bins must not load into (and later merge
  // past the end of) a default sketch.
  LogHistogram receiver;
  LogHistogram narrow(1e-3, 1.0, 0.05);
  narrow.add(0.5);
  std::vector<std::uint8_t> narrow_blob;
  ByteWriter nw(narrow_blob);
  narrow.save(nw);
  ByteReader nr(narrow_blob.data(), narrow_blob.size());
  EXPECT_THROW(receiver.load(nr), ByteRangeError);
  EXPECT_EQ(receiver.total(), 0u);

  // A crafted short blob: the receiver's own geometry with its bin count
  // rewritten to 3, cut just past three bins.
  std::vector<std::uint8_t> blob;
  ByteWriter w(blob);
  receiver.save(w);
  const std::size_t count_at = 4 * sizeof(double);  // lo .. log_ratio
  const std::uint32_t short_bins = 3;
  std::memcpy(blob.data() + count_at, &short_bins, sizeof short_bins);
  blob.resize(count_at + sizeof short_bins + 3 * sizeof(std::uint64_t));
  ByteReader r(blob.data(), blob.size());
  EXPECT_THROW(receiver.load(r), ByteRangeError);

  // A blob of the receiver's geometry loads.
  LogHistogram source;
  source.add(0.25);
  OnlineStats exact;
  exact.add(0.25);
  std::vector<std::uint8_t> good;
  ByteWriter gw(good);
  source.save(gw);
  ByteReader gr(good.data(), good.size());
  receiver.load(gr);
  EXPECT_EQ(receiver.bins(), source.bins());
  EXPECT_EQ(receiver.total(), 1u);
  EXPECT_EQ(receiver.quantile(1.0, exact), 0.25);
}

TEST(KMinSample, KeepsSmallestHashesDeterministically) {
  KMinSample<int> s(4);
  for (int i = 0; i < 100; ++i) {
    s.offer(static_cast<std::uint64_t>(i), i);
  }
  EXPECT_EQ(s.size(), 4u);
  EXPECT_EQ(s.offered(), 100u);
  // Winning set is a pure function of the key set: re-offering in any
  // other order reproduces it.
  KMinSample<int> r(4);
  for (int i = 99; i >= 0; --i) {
    r.offer(static_cast<std::uint64_t>(i), i);
  }
  EXPECT_EQ(s.records(), r.records());
}

TEST(KMinSample, MergeEqualsGlobalSample) {
  KMinSample<int> global(8);
  KMinSample<int> shard0(8), shard1(8), shard2(8);
  for (int i = 0; i < 500; ++i) {
    const auto key = static_cast<std::uint64_t>(i * 1000003);
    global.offer(key, i);
    (i % 3 == 0 ? shard0 : i % 3 == 1 ? shard1 : shard2).offer(key, i);
  }
  KMinSample<int> merged(8);
  merged.merge(shard2);
  merged.merge(shard0);
  merged.merge(shard1);
  EXPECT_EQ(merged.records(), global.records());
  EXPECT_EQ(merged.offered(), global.offered());
}

TEST(KMinSample, DisabledSampleCountsOffersOnly) {
  KMinSample<int> s(0);
  s.offer(1, 10);
  s.offer(2, 20);
  EXPECT_EQ(s.size(), 0u);
  EXPECT_EQ(s.offered(), 2u);
  KMinSample<int> other(0);
  other.offer(3, 30);
  s.merge(other);
  EXPECT_EQ(s.offered(), 3u);
  EXPECT_TRUE(s.records().empty());
}

TEST(KMinSample, BoundedMemory) {
  KMinSample<std::uint64_t> s(16);
  for (std::uint64_t i = 0; i < 10000; ++i) s.offer(i, i);
  EXPECT_EQ(s.size(), 16u);
  // Capacity can exceed k by the transient insert slot, not by the
  // offered count.
  EXPECT_LT(s.memory_bytes(), sizeof(s) + 64 * sizeof(std::uint64_t) * 3);
}

}  // namespace
}  // namespace emcast::util
