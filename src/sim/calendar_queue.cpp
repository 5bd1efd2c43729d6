#include "sim/calendar_queue.hpp"

#include <algorithm>

namespace emcast::sim {

void CalendarPendingSet::sort_bucket(std::size_t b) {
  const std::uint32_t head = heads_[b] & kIndexMask;
  if (pool_[head].next == kNil) {  // single node: trivially sorted
    heads_[b] = head | kSortedBit;
    return;
  }
  // Permute the payloads through scratch storage; the chain's node set is
  // reused, so sorting allocates nothing once the buffers are warm.
  scratch_.clear();
  idx_scratch_.clear();
  for (std::uint32_t idx = head; idx != kNil; idx = pool_[idx].next) {
    idx_scratch_.push_back(idx);
    scratch_.push_back(pool_[idx].entry);
  }
  std::sort(scratch_.begin(), scratch_.end(),
            [](const PendingEntry& a, const PendingEntry& b2) {
              return entry_before(a, b2);
            });
  const std::size_t k = idx_scratch_.size();
  for (std::size_t i = 0; i < k; ++i) {
    Node& n = pool_[idx_scratch_[i]];
    n.entry = scratch_[i];
    n.next = i + 1 < k ? idx_scratch_[i + 1] : kNil;
  }
  heads_[b] = idx_scratch_[0] | kSortedBit;
}

void CalendarPendingSet::clear() noexcept {
  // pool_.clear() drops every chain at once (nodes are trivially
  // destructible) while the vector keeps its capacity, so the next
  // promotion rebuild's reserve() is a no-op on a warmed queue.
  pool_.clear();
  free_head_ = kNil;
  std::fill(heads_.begin(), heads_.end(), kNil);
  std::fill(occupied_.begin(), occupied_.end(), 0);
  overflow_.clear();
  year_base_ = 0;
  year_end_ = 0;
  day_shift_ = 0;
  in_buckets_ = 0;
  hint_ = 0;
  size_ = 0;
  cursor_ = kNoCursor;
  small_mode_ = true;
  mode_switches_ = 0;
  rebuilds_ = 0;
  year_advances_ = 0;
}

void CalendarPendingSet::collapse_to_small() {
  // The population drained below the hysteresis floor: hand the bucket
  // chains back to the overflow heap and run heap-only until the count
  // earns the calendar again.  All arrays are retained — a later upgrade
  // rebuild reuses them — so mode churn never allocates in steady state.
  small_mode_ = true;
  ++mode_switches_;
  cursor_ = kNoCursor;
  overflow_.reserve(size_);
  if (in_buckets_ != 0) {
    for (std::size_t w = 0; w < occupied_.size(); ++w) {
      std::uint64_t word = occupied_[w];
      occupied_[w] = 0;
      while (word != 0) {
        const std::size_t b =
            (w << 6) + static_cast<std::size_t>(std::countr_zero(word));
        word &= word - 1;
        std::uint32_t idx = heads_[b] & kIndexMask;
        heads_[b] = kNil;
        while (idx != kNil) {
          const std::uint32_t next = pool_[idx].next;
          overflow_.push(pool_[idx].entry);  // capacity reserved above
          free_node(idx);
          idx = next;
        }
      }
    }
  }
  in_buckets_ = 0;
  hint_ = 0;
}

void CalendarPendingSet::advance_year() {
  // Reached with every bucket empty (heads all kNil, bitmap zero) and the
  // whole population in the overflow heap: re-aim the year at the overflow
  // minimum — keeping the bucket count and day width, which track the
  // population size and spacing, not its position — and admit the new
  // year's events.  No clearing, no scratch, no allocation: the node pool
  // is reserved for the full population at every rebuild.
  ++year_advances_;
  assert(!overflow_.empty() && in_buckets_ == 0);
  year_base_ = overflow_.min().time_key &
               ~((std::uint64_t{1} << day_shift_) - 1);
  const std::uint64_t span = static_cast<std::uint64_t>(heads_.size())
                             << day_shift_;
  year_end_ = year_base_ > ~std::uint64_t{0} - span ? ~std::uint64_t{0}
                                                    : year_base_ + span;
  std::size_t transferred = 0;
  while (!overflow_.empty() && overflow_.min().time_key < year_end_) {
    link_entry(overflow_.pop_min());  // already counted in size_
    ++transferred;
  }
  if (overflow_.size() > 4 * transferred) {
    // The year admitted only a sliver: the day width — derived from a
    // population that has since drained — no longer matches the remaining
    // events' spacing.  Re-derive the geometry from what is actually left.
    rebuild(nullptr);
  }
}

void CalendarPendingSet::rebuild(const PendingEntry* extra) {
  cursor_ = kNoCursor;
  // A push below year_base forced this rebuild: leave a quarter-year of
  // headroom under the new minimum, so a descending key sequence re-bases
  // once per quarter-year of descent instead of on every new minimum.
  const bool underflow =
      extra != nullptr && !heads_.empty() && extra->time_key < year_base_;
  // ---- gather: walk every chain and the overflow heap into scratch.
  // Allocations may throw here; nothing has been torn down yet.
  scratch_.clear();
  if (in_buckets_ != 0) {
    for (std::size_t w = 0; w < occupied_.size(); ++w) {
      std::uint64_t word = occupied_[w];
      while (word != 0) {
        const std::size_t b =
            (w << 6) + static_cast<std::size_t>(std::countr_zero(word));
        word &= word - 1;
        for (std::uint32_t idx = heads_[b] & kIndexMask; idx != kNil;
             idx = pool_[idx].next) {
          scratch_.push_back(pool_[idx].entry);
        }
      }
    }
  }
  scratch_.insert(scratch_.end(), overflow_.begin(), overflow_.end());
  if (extra != nullptr) scratch_.push_back(*extra);
  const std::size_t n = scratch_.size();

  // ---- derive the geometry: bucket count tracks the population, day
  // width tracks the mean key gap of the denser lower half, so bursts get
  // fine days and far-future stragglers ride the overflow heap.
  std::size_t nbuckets = kMinBuckets;
  while (nbuckets < n && nbuckets < kMaxBuckets) nbuckets <<= 1;
  std::uint32_t shift = 0;
  std::uint64_t kmin = 0;
  if (n != 0) {
    kmin = scratch_[0].time_key;
    std::uint64_t kmax = kmin;
    for (const PendingEntry& e : scratch_) {
      kmin = std::min(kmin, e.time_key);
      kmax = std::max(kmax, e.time_key);
    }
    if (n >= 2 && kmax != kmin) {
      // Mean key gap over the trimmed (90th-percentile) span: far-future
      // outliers must not stretch the day width — they ride the overflow
      // heap instead — but the bulk population should fit the year, so
      // drains stream through the buckets rather than cycling events
      // through the overflow heap.  Ceil-log2: rounding the width down
      // would halve the year's coverage.
      const std::size_t trim = n - 1 - n / 10;
      const auto p90 = scratch_.begin() + static_cast<std::ptrdiff_t>(trim);
      std::nth_element(scratch_.begin(), p90, scratch_.end(),
                       [](const PendingEntry& a, const PendingEntry& b) {
                         return a.time_key < b.time_key;
                       });
      const std::uint64_t width = std::max<std::uint64_t>(
          1, (p90->time_key - kmin) / static_cast<std::uint64_t>(trim));
      shift = width <= 1
                  ? 0
                  : static_cast<std::uint32_t>(std::bit_width(width - 1));
      if (shift > kMaxDayShift) shift = kMaxDayShift;
    }
  }
  // The base comes from the STRUCTURE minimum, never the front register:
  // it pins the structure minimum into bucket 0, which guarantees a
  // rebuild with n >= 1 leaves at least one in-year entry — the
  // termination guarantee for locate_min's advance loop.  Keys landing in
  // the (front, base) gap re-base through the underflow slack above.

  // ---- reserve everything the redistribution will touch (still throwing
  // territory; the old structure is intact if anything below throws).
  // Until the next grow rebuild the population is bounded by twice the
  // bucket count, and how it splits between chains and overflow depends on
  // the keys — so every arena is reserved to that count-driven bound.
  // This keeps the whole set allocation-free between rebuilds and makes
  // steady-state capacities a function of operation counts alone.
  const std::size_t staging =
      std::max(n, nbuckets < kMaxBuckets ? 2 * nbuckets : n);
  pool_.reserve(staging);
  scratch_.reserve(staging);
  idx_scratch_.reserve(staging);
  const std::size_t words = (nbuckets + 63) / 64;
  if (heads_.size() < nbuckets) heads_.resize(nbuckets);
  if (occupied_.size() < words) occupied_.resize(words);
  overflow_.reserve(staging);

  // ---- commit: nothrow from here on.
  heads_.resize(nbuckets);
  occupied_.resize(words);
  std::fill(heads_.begin(), heads_.end(), kNil);
  std::fill(occupied_.begin(), occupied_.end(), 0);
  pool_.clear();
  free_head_ = kNil;
  overflow_.clear();
  in_buckets_ = 0;
  hint_ = 0;
  day_shift_ = shift;
  year_base_ = n != 0 ? kmin & ~((std::uint64_t{1} << shift) - 1) : 0;
  if (underflow) {
    const std::uint64_t slack = (static_cast<std::uint64_t>(nbuckets) / 4)
                                << shift;
    year_base_ = year_base_ > slack ? year_base_ - slack : 0;
  }
  const std::uint64_t span = static_cast<std::uint64_t>(nbuckets) << shift;
  year_end_ = year_base_ > ~std::uint64_t{0} - span ? ~std::uint64_t{0}
                                                    : year_base_ + span;
  // size_ is untouched: rebuild restructures, the callers account.
  for (const PendingEntry& e : scratch_) {
    if (e.time_key >= year_end_) {
      overflow_.push(e);  // capacity reserved above: cannot throw
    } else {
      link_entry(e);  // pool capacity reserved above: cannot throw
    }
  }
  ++rebuilds_;
}

}  // namespace emcast::sim
