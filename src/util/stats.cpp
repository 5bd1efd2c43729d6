#include "util/stats.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

#include "util/bytes.hpp"

namespace emcast::util {

namespace {

using u128 = unsigned __int128;

}  // namespace

void OnlineStats::add(double x) {
  // NaN fails the comparison too.
  if (!(std::fabs(x) < 0x1p63)) {
    throw std::invalid_argument(
        "OnlineStats::add: sample is NaN, infinite or |x| >= 2^63");
  }
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  // |x| = whole + fraction, and the fraction's 64 bits come in two 32-bit
  // halves.  Every subtraction and power-of-two scaling here is exact,
  // and every part goes through a signed truncating hardware conversion
  // (an unsigned one would branch on the fraction's top bit), so the
  // fixed-point image is |x| truncated to a multiple of 2^-64.
  const double a = std::fabs(x);
  const auto whole = static_cast<std::int64_t>(a);
  const double upper = (a - static_cast<double>(whole)) * 0x1p32;
  const auto high = static_cast<std::int64_t>(upper);
  const auto low = static_cast<std::int64_t>(
      (upper - static_cast<double>(high)) * 0x1p32);
  const u128 image = u128(static_cast<std::uint64_t>(whole)) << 64 |
                     static_cast<std::uint64_t>(high) << 32 |
                     static_cast<std::uint64_t>(low);
  add_to_sum(x < 0 ? -image : image);
}

void OnlineStats::add_to_sum(u128 v) {
  const u128 sum = (u128{sum_hi_} << 64 | sum_lo_) + v;
  sum_lo_ = static_cast<std::uint64_t>(sum);
  sum_hi_ = static_cast<std::uint64_t>(sum >> 64);
}

void OnlineStats::merge(const OnlineStats& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  add_to_sum(u128{other.sum_hi_} << 64 | other.sum_lo_);
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  n_ += other.n_;
}

double OnlineStats::mean() const {
  if (n_ == 0) return 0.0;
  const auto sum = static_cast<__int128>(u128{sum_hi_} << 64 | sum_lo_);
  return static_cast<double>(sum) * 0x1p-64 / static_cast<double>(n_);
}

void OnlineStats::save(ByteWriter& w) const {
  w.u64(static_cast<std::uint64_t>(n_));
  w.u64(sum_lo_);
  w.u64(sum_hi_);
  w.f64(min_);
  w.f64(max_);
}

void OnlineStats::load(ByteReader& r) {
  n_ = static_cast<std::size_t>(r.u64());
  sum_lo_ = r.u64();
  sum_hi_ = r.u64();
  min_ = r.f64();
  max_ = r.f64();
}

LogHistogram::LogHistogram(double lo, double hi, double relative_error) {
  assert(lo > 0 && hi > lo && relative_error > 0);
  lo_ = lo;
  log_lo_ = std::log(lo);
  // Bin ratio (1 + 2e) keeps the geometric-midpoint estimate within
  // ~relative_error of any sample in the bin.
  log_ratio_ = std::log1p(2.0 * relative_error);
  inv_log_ratio_ = 1.0 / log_ratio_;
  const auto bins = static_cast<std::size_t>(
      std::ceil((std::log(hi) - log_lo_) * inv_log_ratio_));
  counts_.assign(std::max<std::size_t>(bins, 1), 0);
}

std::size_t LogHistogram::bin_of(double x) const {
  if (!(x > lo_)) return 0;
  const auto idx =
      static_cast<long long>((std::log(x) - log_lo_) * inv_log_ratio_);
  return static_cast<std::size_t>(std::clamp<long long>(
      idx, 0, static_cast<long long>(counts_.size()) - 1));
}

void LogHistogram::add(double x) {
  stats_.add(x);
  ++counts_[bin_of(x)];
}

void LogHistogram::merge(const LogHistogram& other) {
  if (other.lo_ != lo_ || other.log_ratio_ != log_ratio_ ||
      other.counts_.size() != counts_.size()) {
    throw std::invalid_argument("LogHistogram::merge: geometries differ");
  }
  stats_.merge(other.stats_);
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    counts_[i] += other.counts_[i];
  }
}

void LogHistogram::reset() {
  stats_.reset();
  std::fill(counts_.begin(), counts_.end(), 0);
}

void LogHistogram::save(ByteWriter& w) const {
  w.f64(lo_);
  w.f64(log_lo_);
  w.f64(inv_log_ratio_);
  w.f64(log_ratio_);
  w.u32(static_cast<std::uint32_t>(counts_.size()));
  for (const std::uint64_t c : counts_) w.u64(c);
  stats_.save(w);
}

void LogHistogram::load(ByteReader& r) {
  const double lo = r.f64();
  const double log_lo = r.f64();
  const double inv_log_ratio = r.f64();
  const double log_ratio = r.f64();
  const std::uint32_t bins = r.u32();
  if (lo != lo_ || log_lo != log_lo_ || inv_log_ratio != inv_log_ratio_ ||
      log_ratio != log_ratio_ || bins != counts_.size()) {
    throw ByteRangeError("LogHistogram::load: saved geometry differs");
  }
  for (std::uint64_t& c : counts_) c = r.u64();
  stats_.load(r);
}

double LogHistogram::quantile(double q) const {
  if (stats_.count() == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  if (q >= 1.0) return stats_.max();
  const auto target = static_cast<double>(stats_.count()) * q;
  double cum = 0.0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    cum += static_cast<double>(counts_[i]);
    if (cum >= target) {
      // Geometric midpoint of the covering bin, clamped to the exact
      // extrema so clamped-mass bins cannot report impossible values.
      const double mid = std::exp(
          log_lo_ + (static_cast<double>(i) + 0.5) * log_ratio_);
      return std::clamp(mid, stats_.min(), stats_.max());
    }
  }
  return stats_.max();
}

}  // namespace emcast::util
