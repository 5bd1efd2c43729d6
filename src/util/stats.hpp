#pragma once
// Online statistics used by the tracer and the experiment harness: an
// exact count / mean / extrema accumulator, and two streaming mergeable
// summaries for runs too large to trace in full — a log-spaced-bin
// quantile sketch and a deterministic k-min record sample.  All three
// merge order-independently and exactly, so per-shard instances combined
// in any order give the same result, bit for bit, as one global
// instance: the property that lets every engine and shard count report
// identical statistics, and lets 10^6-host runs keep that contract on
// their summaries after the full canonical trace has become infeasible.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace emcast::util {

class ByteReader;
class ByteWriter;

/// Exact count / mean / extrema accumulator.  The sum is a two's-complement
/// fixed-point integer at 2^-64 resolution in 128 bits, so add() and
/// merge() are integer additions, which commute and associate: partials
/// merged in any order give the mean of one sequential accumulation bit
/// for bit.  Each sample is truncated toward zero to a multiple of 2^-64,
/// which is exact for every double of magnitude at least 2^-12; the sum
/// must stay below 2^63 in magnitude.
class OnlineStats {
 public:
  /// Throws std::invalid_argument on NaN, +-inf or |x| >= 2^63.
  void add(double x);
  void merge(const OnlineStats& other);
  void reset() { *this = OnlineStats{}; }

  /// Marshal the exact accumulator state (process-backend result blobs).
  /// save -> load is identity.
  void save(ByteWriter& w) const;
  void load(ByteReader& r);

  std::size_t count() const { return n_; }
  /// The sum converted to double once and divided by the count once.
  double mean() const;
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }

 private:
  void add_to_sum(unsigned __int128 v);

  std::size_t n_ = 0;
  /// sum * 2^64 modulo 2^128, in two words so the accumulator stays
  /// 8-byte aligned (it is embedded in every regulated host's tracer).
  std::uint64_t sum_lo_ = 0;
  std::uint64_t sum_hi_ = 0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Log-spaced-bin histogram over (0, +inf): bin i covers
/// [lo * ratio^i, lo * ratio^(i+1)), so relative resolution is constant
/// across orders of magnitude — the right shape for delay distributions
/// whose tail matters.  Samples below `lo` (including non-positive ones)
/// clamp into bin 0; samples past the top clamp into the last bin.  Mass
/// is never dropped.  The sketch keeps bin counts only: the exact count,
/// extrema and mean live in the caller's OnlineStats over the same samples
/// (DelayTracer's), which quantile() takes as an argument, so a recorded
/// sample costs one accumulator add, not two.
///
/// Merging adds bin counts elementwise, which commutes and associates:
/// per-shard sketches merged in any order equal the single-kernel sketch
/// over the same samples.  Only sketches of one geometry merge; merge()
/// and load() reject any other.  Memory is O(bins), independent of
/// sample count — this is what replaces the full canonical trace at
/// scale.
class LogHistogram {
 public:
  /// Default geometry: 1 microsecond .. ~100 seconds at 2% relative
  /// resolution (rounded up to whole bins).
  explicit LogHistogram(double lo = 1e-6, double hi = 100.0,
                        double relative_error = 0.02);

  void add(double x);
  /// Throws std::invalid_argument when `other`'s geometry differs.
  void merge(const LogHistogram& other);
  void reset();

  /// Marshal the full sketch — geometry and bins — so a loaded sketch
  /// merges exactly with the live sketches it left behind.
  /// load() throws ByteRangeError when the saved geometry differs from
  /// this sketch's: the receiver's geometry is config, not state.
  void save(ByteWriter& w) const;
  void load(ByteReader& r);

  /// Samples binned: the sum of the bin counts, O(bins).
  std::uint64_t total() const;
  std::size_t bin_count() const { return counts_.size(); }
  const std::vector<std::uint64_t>& bins() const { return counts_; }

  /// Inverse-CDF estimate; q in [0,1].  `exact` is the caller's
  /// accumulator over the same samples: q=1 returns its exact maximum,
  /// interior quantiles return the geometric midpoint of the covering bin
  /// — error bounded by the bin ratio — clamped to its exact extrema.
  double quantile(double q, const OnlineStats& exact) const;

  std::size_t memory_bytes() const {
    return sizeof(*this) + counts_.capacity() * sizeof(counts_[0]);
  }

 private:
  std::size_t bin_of(double x) const;

  double lo_ = 0;
  double log_lo_ = 0;
  double inv_log_ratio_ = 0;  ///< 1 / ln(ratio)
  double log_ratio_ = 0;
  std::vector<std::uint64_t> counts_;
};

/// SplitMix64 finalizer: a cheap, high-quality 64-bit mixing function.
/// Used to rank records for KMinSample — purely a function of the key, so
/// the ranking is identical in every process, shard layout and merge
/// order.
inline std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Deterministic bounded sample: keep the k records whose mix64(key) hash
/// is smallest.  Unlike a classic reservoir (which depends on arrival
/// order and RNG stream), the winning set is a pure function of the key
/// multiset — offering the same records to any number of per-shard
/// samples and merging them in any order yields byte-identical contents.
/// That makes it the scale-mode stand-in for the canonical delivery
/// trace: a fixed-size, cross-shard-stable spot-check of individual
/// deliveries.  Ties on the hash break by smaller key, so duplicate-free
/// keys give a unique winning set.
template <typename Record>
class KMinSample {
 public:
  explicit KMinSample(std::size_t k = 256) : k_(k) {}

  void offer(std::uint64_t key, const Record& r) {
    ++offered_;
    if (k_ == 0) return;  // disabled sample: count offers, keep nothing
    const std::uint64_t h = mix64(key);
    if (entries_.size() == k_ && !worse(entries_.back(), h, key)) return;
    Entry e{h, key, r};
    auto it = std::lower_bound(
        entries_.begin(), entries_.end(), e,
        [](const Entry& a, const Entry& b) { return !worse(a, b.hash, b.key); });
    entries_.insert(it, e);
    if (entries_.size() > k_) entries_.pop_back();
  }

  void merge(const KMinSample& other) {
    offered_ += other.offered_;
    if (k_ == 0) return;
    for (const Entry& e : other.entries_) {
      if (entries_.size() == k_ && !worse(entries_.back(), e.hash, e.key)) {
        continue;
      }
      auto it = std::lower_bound(entries_.begin(), entries_.end(), e,
                                 [](const Entry& a, const Entry& b) {
                                   return !worse(a, b.hash, b.key);
                                 });
      entries_.insert(it, e);
      if (entries_.size() > k_) entries_.pop_back();
    }
  }

  void reset() {
    entries_.clear();
    offered_ = 0;
  }

  std::size_t k() const { return k_; }
  std::size_t size() const { return entries_.size(); }
  std::uint64_t offered() const { return offered_; }

  /// Records in ascending (hash, key) order — a canonical order, so two
  /// equal samples compare equal elementwise.
  std::vector<Record> records() const {
    std::vector<Record> out;
    out.reserve(entries_.size());
    for (const Entry& e : entries_) out.push_back(e.record);
    return out;
  }

  std::size_t memory_bytes() const {
    return sizeof(*this) + entries_.capacity() * sizeof(Entry);
  }

 private:
  struct Entry {
    std::uint64_t hash;
    std::uint64_t key;
    Record record;
  };
  /// True when `e` ranks strictly after (hash, key) — i.e. is worse.
  static bool worse(const Entry& e, std::uint64_t hash, std::uint64_t key) {
    return e.hash != hash ? e.hash > hash : e.key > key;
  }

  std::size_t k_;
  std::uint64_t offered_ = 0;
  std::vector<Entry> entries_;  ///< sorted ascending by (hash, key)
};

}  // namespace emcast::util
