#pragma once
// Delay measurement.  A DelayTracer sits at a measurement point (MUX exit,
// multicast receiver) and records each packet's age.  Samples inside the
// warm-up window are discarded so transient start-up behaviour does not
// pollute the worst-case statistic, mirroring standard ns-2 methodology.

#include <memory>

#include "sim/packet.hpp"
#include "util/stats.hpp"
#include "util/types.hpp"

namespace emcast::sim {

class DelayTracer {
 public:
  explicit DelayTracer(Time warmup = 0.0) : warmup_(warmup) {}

  DelayTracer(const DelayTracer& other) { *this = other; }
  DelayTracer& operator=(const DelayTracer& other);
  DelayTracer(DelayTracer&&) = default;
  DelayTracer& operator=(DelayTracer&&) = default;

  /// Adjust the warm-up horizon (samples before it are discarded).
  void set_warmup(Time t) { warmup_ = t; }
  Time warmup() const { return warmup_; }

  /// Record the end-to-end delay of `p` observed at time `now`.
  void record(const Packet& p, Time now);

  /// Record an explicit delay value (for per-hop components).
  void record_delay(Time delay, Time now);

  /// Fold another tracer's samples into this one (shard-aware tracing:
  /// each shard of a sharded simulation records into its own tracer with
  /// no cross-thread traffic, and the harness merges at the end).  Every
  /// statistic merges exactly, so the merged tracer equals one sequential
  /// tracer over the same samples bit for bit, in any merge order.
  void merge(const DelayTracer& other);

  /// Marshal the measurement state — aggregate stats, warm-up drop
  /// counter and (when enabled) the quantile sketch — into a
  /// process-backend result blob.  load() replaces this tracer's samples
  /// with the saved ones (the warm-up horizon is config, not state, and
  /// is left untouched); save -> load is bit-exact, so a tracer carried
  /// across a process boundary merges identically to the original.
  void save(util::ByteWriter& w) const;
  void load(util::ByteReader& r);

  Time worst_case() const { return all_.max(); }
  const util::OnlineStats& all() const { return all_; }

  std::uint64_t dropped_warmup() const { return dropped_warmup_; }

  /// Opt-in quantile sketch (off by default: a tracer is embedded per
  /// regulated host, and those must stay a few dozen bytes).  Enabled on
  /// the per-shard measurement tracers at scale, where the full delivery
  /// trace is infeasible: the log-binned sketch (default geometry) merges
  /// exactly (bin counts add), so quantiles are identical across shard
  /// counts and merge orders.  merge() folds a quantile-enabled source
  /// into a quantile-enabled target; sketchless sources contribute
  /// nothing to the sketch (their samples were never binned).
  void enable_quantiles();
  bool quantiles_enabled() const { return quantiles_ != nullptr; }
  /// Inverse-CDF estimate from the sketch; 0 when quantiles are off or
  /// no samples survived warm-up.  q=1 is the exact maximum.
  double quantile(double q) const;

  /// Bytes held by this tracer (self + sketch).
  std::size_t memory_bytes() const;

 private:
  Time warmup_;
  util::OnlineStats all_;
  std::uint64_t dropped_warmup_ = 0;
  std::unique_ptr<util::LogHistogram> quantiles_;
};

}  // namespace emcast::sim
