#include "sim/calendar_queue.hpp"

#include <algorithm>

namespace emcast::sim {

void CalendarPendingSet::reserve_nodes(std::size_t n) {
  // Scratch first: if the pool's reserve then throws, the set is intact
  // and merely holds spare staging.
  scratch_.reserve(n);
  pool_.reserve(n);
}

void CalendarPendingSet::sort_bucket(std::size_t b) {
  const std::uint32_t head = heads_[b] & kIndexMask;
  // Gather the chain's payloads onto the stack while it is short (nearly
  // always: a day is a fraction of the dequeue gap), else into scratch_,
  // whose capacity tracks the pool's (reserve_nodes), so sorting never
  // allocates.  The sorted payloads go back along the same chain.
  PendingEntry stack[kStackSortMax];
  std::size_t k = 0;
  std::uint32_t idx = head;
  for (; idx != kNil && k < kStackSortMax; idx = pool_[idx].next) {
    stack[k++] = pool_[idx].entry;
  }
  const PendingEntry* sorted = stack;
  if (idx == kNil) {
    for (std::size_t i = 1; i < k; ++i) {
      const PendingEntry x = stack[i];
      std::size_t j = i;
      for (; j != 0 && entry_before(x, stack[j - 1]); --j) {
        stack[j] = stack[j - 1];
      }
      stack[j] = x;
    }
  } else {
    scratch_.assign(stack, stack + k);
    for (; idx != kNil; idx = pool_[idx].next) {
      scratch_.push_back(pool_[idx].entry);
    }
    std::sort(scratch_.begin(), scratch_.end(),
              [](const PendingEntry& a, const PendingEntry& b2) {
                return entry_before(a, b2);
              });
    sorted = scratch_.data();
    k = scratch_.size();
  }
  ++sorts_;
  sorted_entries_ += k;
  for (idx = head; idx != kNil; idx = pool_[idx].next) {
    pool_[idx].entry = *sorted++;
  }
  heads_[b] = head | kSortedBit;
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
  grow_at_ = 0;
  cursor_ = kNoCursor;
  pops_ = 0;
  gap_pops_ = 0;
  gap_key_ = 0;
  gap_started_ = false;
  small_mode_ = true;
  mode_switches_ = 0;
  rebuilds_ = 0;
  year_advances_ = 0;
  sorts_ = 0;
  sorted_entries_ = 0;
  overflow_pushes_ = 0;
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

bool CalendarPendingSet::take_gap_shift(std::uint32_t& shift) {
  const std::uint64_t now = front_.time_key;
  const std::uint64_t pops = pops_ - gap_pops_;
  // A front below the measurement's start means pushes below earlier
  // pops: the measurement restarts here.
  const bool measured = gap_started_ && now >= gap_key_;
  if (measured && pops < kMinGapPops) return false;  // keep measuring
  if (measured) {
    const auto bits =
        static_cast<std::uint32_t>(std::bit_width((now - gap_key_) / pops));
    shift = bits > 2 ? bits - 2 : 0;  // 2^(floor(log2 gap) - 1)
  }
  gap_started_ = true;
  gap_key_ = now;
  gap_pops_ = pops_;
  return measured;
}

CalendarPendingSet::Geometry CalendarPendingSet::geometry_for(
    std::size_t n, std::uint32_t shift) {
  const std::size_t want =
      std::bit_ceil(std::max<std::size_t>(n, 1) * kBucketsPerEntry);
  Geometry g{std::clamp(want, kMinBuckets, kMaxBuckets), shift};
  if (want > g.buckets) {
    // Capped bucket count: widen the days by the same factor, so the year
    // keeps its span.
    g.shift += static_cast<std::uint32_t>(std::countr_zero(want / g.buckets));
  }
  g.shift = std::min(g.shift, kMaxDayShift);
  return g;
}

void CalendarPendingSet::aim_year(std::uint64_t anchor, std::uint64_t first) {
  const std::uint64_t day_mask = (std::uint64_t{1} << day_shift_) - 1;
  const std::uint64_t span = static_cast<std::uint64_t>(heads_.size())
                             << day_shift_;
  year_base_ = anchor & ~day_mask;
  // An idle stretch longer than a year: start at the structure minimum,
  // so the year admits at least one entry.
  if (first - year_base_ >= span) year_base_ = first & ~day_mask;
  year_end_ = year_base_ > ~std::uint64_t{0} - span ? ~std::uint64_t{0}
                                                    : year_base_ + span;
  hint_ = 0;
}

void CalendarPendingSet::advance_year() {
  // Reached with every bucket empty (heads all kNil, bitmap zero) and the
  // whole structured population in the overflow heap, while pop_min
  // still holds the entry being popped in the front register.  Re-derive
  // the geometry from the pops of the year just ended, re-aim the year at
  // the front key — the engine's clock, below every key its events will
  // push — and admit the new year's events.
  ++year_advances_;
  assert(!overflow_.empty() && in_buckets_ == 0);
  Geometry g{heads_.size(), day_shift_};
  std::uint32_t shift = 0;
  const bool measured = take_gap_shift(shift);
  if (measured) g = geometry_for(size_, shift);
  const std::size_t words = (g.buckets + 63) / 64;
  // All allocation first (none on a warmed set): the transfer below then
  // links without allocating, and a throw leaves the old year intact.
  reserve_nodes(size_);
  heads_.reserve(g.buckets);
  occupied_.reserve(words);
  if (g.buckets != heads_.size() || g.shift != day_shift_) {
    // Every bucket is empty, so a new geometry is just a resize.
    heads_.resize(g.buckets, kNil);
    occupied_.resize(words, 0);
    day_shift_ = g.shift;
    ++rebuilds_;
  }
  if (measured) grow_at_ = 4 * std::max(size_, kSmallModeMax);
  aim_year(front_.time_key, overflow_.min().time_key);
  while (!overflow_.empty() && overflow_.min().time_key < year_end_) {
    link_entry(overflow_.pop_min());  // already counted in size_
  }
}

void CalendarPendingSet::rebuild(const PendingEntry* extra) {
  cursor_ = kNoCursor;
  // A push below year_base forced this rebuild: leave a quarter-year of
  // headroom under the new minimum, so a descending key sequence re-bases
  // once per quarter-year of descent instead of on every new minimum.
  const bool underflow =
      extra != nullptr && !small_mode_ && extra->time_key < year_base_;
  const std::size_t n =
      in_buckets_ + overflow_.size() + (extra != nullptr ? 1 : 0);
  // ---- reserve everything the gather and redistribution touch: the old
  // structure is intact if anything here throws.  The arenas track the
  // population, not the bucket count; growth past them between rebuilds
  // goes through alloc_node's geometric reserve.
  reserve_nodes(n);
  overflow_.reserve(n);

  // ---- gather: walk every chain and the overflow heap into scratch.
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
  assert(scratch_.size() == n && n != 0);

  // ---- derive the geometry: from the dequeue gap once one is measured,
  // else from the population's spread.
  std::uint64_t kmin = scratch_[0].time_key;
  for (const PendingEntry& e : scratch_) kmin = std::min(kmin, e.time_key);
  std::uint32_t shift = 0;
  Geometry g{};
  if (take_gap_shift(shift)) {
    g = geometry_for(n, shift);
  } else {
    // The year spans the 90th-percentile key range from its anchor, the
    // front key (twice that after an underflow, whose headroom takes a
    // quarter-year below the anchor): far-future outliers must not
    // stretch it — they ride the overflow heap instead — but the bulk
    // population should fit, so drains stream through the buckets.
    g = geometry_for(n, 0);
    const std::size_t trim = n - 1 - n / 10;
    const auto p90 = scratch_.begin() + static_cast<std::ptrdiff_t>(trim);
    std::nth_element(scratch_.begin(), p90, scratch_.end(),
                     [](const PendingEntry& a, const PendingEntry& b) {
                       return a.time_key < b.time_key;
                     });
    const std::uint64_t width = (p90->time_key - front_.time_key) /
                                static_cast<std::uint64_t>(g.buckets);
    g.shift = std::min(static_cast<std::uint32_t>(std::bit_width(width)) +
                           (underflow ? 1u : 0u),
                       kMaxDayShift);
  }
  const std::size_t words = (g.buckets + 63) / 64;
  heads_.reserve(g.buckets);
  occupied_.reserve(words);

  // ---- commit: nothrow from here on.
  heads_.resize(g.buckets);
  occupied_.resize(words);
  std::fill(heads_.begin(), heads_.end(), kNil);
  std::fill(occupied_.begin(), occupied_.end(), 0);
  pool_.clear();
  free_head_ = kNil;
  overflow_.clear();
  in_buckets_ = 0;
  day_shift_ = g.shift;
  grow_at_ = 4 * std::max(n, kSmallModeMax);
  // The year is aimed at the front register's key (every structured key
  // is at or above it), with the underflow headroom below it.
  std::uint64_t anchor = front_.time_key;
  if (underflow) {
    const std::uint64_t slack = (static_cast<std::uint64_t>(g.buckets) / 4)
                                << g.shift;
    anchor = anchor > slack ? anchor - slack : 0;
  }
  aim_year(anchor, kmin);
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
