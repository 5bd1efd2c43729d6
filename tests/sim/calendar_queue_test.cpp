// Determinism tests for the calendar-queue pending set: the (time, seq)
// contract says the queue fires every workload in exactly (time, push
// order) — across bucket resizes, year advances, underflow re-basing,
// lazy sorts, mode switches and compaction.  Each scenario drives the
// EventQueue and a test-local reference (an ordered set of (time, push
// index), erased on cancel) through the same scripted push/pop/cancel
// sequence and compares the fired (time, id) traces.

#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "sim/event_queue.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace emcast::sim {
namespace {

struct TraceEvent {
  Time time;
  int id;
  bool operator==(const TraceEvent&) const = default;
};

/// One scripted operation, pre-generated so the queue and the reference
/// see exactly the same sequence (the script must not depend on queue
/// internals).
struct Op {
  enum Kind { kPush, kPop, kCancel } kind;
  double time = 0.0;    // kPush
  std::size_t victim = 0;  // kCancel: index into the push log
};

std::vector<TraceEvent> run_script(const std::vector<Op>& ops) {
  EventQueue q;
  std::vector<TraceEvent> trace;
  std::vector<EventHandle> handles;
  int next_id = 0;
  for (const Op& op : ops) {
    switch (op.kind) {
      case Op::kPush: {
        const int id = next_id++;
        handles.push_back(q.push(op.time, [&trace, id] {
          trace.push_back(TraceEvent{0.0, id});  // time patched below
        }));
        break;
      }
      case Op::kPop: {
        if (q.empty()) break;
        const std::size_t at = trace.size();
        const Time t = q.fire_next();
        EXPECT_EQ(trace.size(), at + 1) << "event did not record itself";
        trace.back().time = t;
        break;
      }
      case Op::kCancel: {
        if (handles.empty()) break;
        handles[op.victim % handles.size()].cancel();
        break;
      }
    }
  }
  while (!q.empty()) {
    const std::size_t at = trace.size();
    const Time t = q.fire_next();
    EXPECT_EQ(trace.size(), at + 1);
    trace.back().time = t;
  }
  return trace;
}

/// The contract itself: pending events ordered by (time, push index).
/// -0.0 and +0.0 compare equal, so they tie and fall to the push index,
/// as the contract says.  Cancelling a fired or cancelled event erases
/// nothing.
std::vector<TraceEvent> reference_script(const std::vector<Op>& ops) {
  std::set<std::pair<double, int>> pending;
  std::vector<double> pushed;  // push index -> time
  std::vector<TraceEvent> trace;
  const auto pop = [&pending, &trace] {
    const auto front = pending.begin();
    trace.push_back(TraceEvent{front->first, front->second});
    pending.erase(front);
  };
  for (const Op& op : ops) {
    switch (op.kind) {
      case Op::kPush:
        pending.emplace(op.time, static_cast<int>(pushed.size()));
        pushed.push_back(op.time);
        break;
      case Op::kPop:
        if (!pending.empty()) pop();
        break;
      case Op::kCancel:
        if (!pushed.empty()) {
          const std::size_t id = op.victim % pushed.size();
          pending.erase({pushed[id], static_cast<int>(id)});
        }
        break;
    }
  }
  while (!pending.empty()) pop();
  return trace;
}

void expect_identical(const std::vector<Op>& ops) {
  const auto ref_trace = reference_script(ops);
  const auto cal_trace = run_script(ops);
  ASSERT_EQ(ref_trace.size(), cal_trace.size());
  for (std::size_t i = 0; i < ref_trace.size(); ++i) {
    ASSERT_EQ(ref_trace[i], cal_trace[i]) << "divergence at event " << i;
  }
}

std::vector<Op> random_workload(std::uint64_t seed, int n, double pop_bias,
                                double cancel_bias, auto&& time_of) {
  util::Rng rng(seed);
  std::vector<Op> ops;
  ops.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const double r = rng.uniform();
    if (r < pop_bias) {
      ops.push_back(Op{Op::kPop, 0.0, 0});
    } else if (r < pop_bias + cancel_bias) {
      ops.push_back(Op{Op::kCancel, 0.0,
                       static_cast<std::size_t>(rng.uniform_int(0, 1 << 20))});
    } else {
      ops.push_back(Op{Op::kPush, time_of(rng), 0});
    }
  }
  return ops;
}

TEST(CalendarDeterminism, UniformPushPopCancel) {
  expect_identical(random_workload(
      11, 6000, 0.3, 0.15, [](util::Rng& r) { return r.uniform(0.0, 1e3); }));
}

TEST(CalendarDeterminism, HeavySimultaneityTieBreaksBySequence) {
  // Few distinct timestamps: ties everywhere, including inside one bucket.
  expect_identical(random_workload(12, 4000, 0.25, 0.1, [](util::Rng& r) {
    return static_cast<double>(r.uniform_int(0, 7)) * 2.5;
  }));
}

TEST(CalendarDeterminism, BurstyClustersAcrossRebuilds) {
  // Tight clusters spaced far apart: stresses lazy intra-bucket sorting
  // and the day-width estimator across grow/shrink rebuilds.
  expect_identical(random_workload(13, 6000, 0.3, 0.1, [](util::Rng& r) {
    return static_cast<double>(r.uniform_int(0, 31)) * 1e3 +
           r.uniform(0.0, 1e-3);
  }));
}

TEST(CalendarDeterminism, FarHorizonExercisesOverflowYear) {
  expect_identical(random_workload(14, 6000, 0.3, 0.1, [](util::Rng& r) {
    return r.uniform() < 0.8 ? r.uniform(0.0, 10.0)
                             : r.uniform(1e6, 1e9);
  }));
}

TEST(CalendarDeterminism, DescendingPushesRebaseTheYear) {
  // Every push is a new global minimum: worst case for year re-basing.
  std::vector<Op> ops;
  for (int i = 0; i < 3000; ++i) {
    ops.push_back(Op{Op::kPush, 3000.0 - i, 0});
  }
  expect_identical(ops);
}

TEST(CalendarDeterminism, NegativeTimesAndSignedZeros) {
  expect_identical(random_workload(15, 3000, 0.25, 0.1, [](util::Rng& r) {
    const double t = r.uniform(-500.0, 500.0);
    return t < 1.0 && t > -1.0 ? (t < 0 ? -0.0 : +0.0) : t;
  }));
}

TEST(CalendarDeterminism, DrainRefillCyclesReaimTheYear) {
  // Repeated full drains exercise the O(1) empty-queue re-aim path and
  // the shrink rebuilds back to the minimum bucket count.
  std::vector<Op> ops;
  util::Rng rng(16);
  double base = 0.0;
  for (int round = 0; round < 20; ++round) {
    const int burst = 5 + static_cast<int>(rng.uniform_int(0, 200));
    for (int i = 0; i < burst; ++i) {
      ops.push_back(Op{Op::kPush, base + rng.uniform(0.0, 50.0), 0});
    }
    for (int i = 0; i < burst + 5; ++i) ops.push_back(Op{Op::kPop, 0.0, 0});
    base += 1e4;  // jump the horizon so every refill re-aims
  }
  expect_identical(ops);
}

TEST(CalendarQueue, WorkloadActuallyExercisesTheCalendarMachinery) {
  // White-box: the scripted scenarios above are only meaningful if
  // they actually drive resizes and the overflow year, so pin that here.
  // (An 8% far tail: under the day-width estimator's 90th-percentile
  // trim, so the tail rides the overflow year — and, at ~320 records,
  // above the small-mode floor, so the in-year events exhaust and the
  // year advances while the set is still in calendar mode.)
  EventQueue q;
  util::Rng rng(17);
  std::vector<EventHandle> handles;
  for (int i = 0; i < 4000; ++i) {
    const double t = rng.uniform() < 0.92 ? rng.uniform(0.0, 10.0)
                                          : rng.uniform(1e6, 1e9);
    handles.push_back(q.push(t, [] {}));
  }
  const auto& cal = q.pending_set();
  EXPECT_FALSE(cal.small_mode());
  EXPECT_GT(cal.bucket_count(), 16u) << "bucket count never grew";
  EXPECT_GT(cal.overflow_count(), 255u) << "overflow year never used";
  EXPECT_GT(cal.rebuild_count(), 0u);
  for (std::size_t i = 0; i < handles.size(); i += 3) handles[i].cancel();
  double prev = -1.0;
  std::size_t popped = 0;
  std::uint64_t advances_while_calendar = 0;
  while (!q.empty()) {
    if (!cal.small_mode()) advances_while_calendar = cal.year_advance_count();
    const Time t = q.fire_next();
    EXPECT_GE(t, prev);
    prev = t;
    ++popped;
  }
  EXPECT_EQ(popped, 4000u - (4000u + 2) / 3);
  EXPECT_GT(advances_while_calendar, 0u) << "year never advanced";
}

TEST(CalendarQueue, SmallPopulationsRunOnTheHeapPolicyPath) {
  // Size-adaptive small mode: below the threshold every structured entry
  // lives in the overflow heap and the bucket machinery stays cold.
  EventQueue q;
  std::vector<EventHandle> handles;
  for (int i = 0; i < 1000; ++i) {
    handles.push_back(q.push(static_cast<double>(i), [] {}));
  }
  const auto& cal = q.pending_set();
  EXPECT_TRUE(cal.small_mode());
  EXPECT_EQ(cal.in_bucket_count(), 0u) << "buckets touched below threshold";
  EXPECT_EQ(cal.rebuild_count(), 0u);
  EXPECT_EQ(cal.overflow_count(), 999u);  // population minus the front
  double prev = -1.0;
  while (!q.empty()) {
    const Time t = q.fire_next();
    EXPECT_GE(t, prev);
    prev = t;
  }
  EXPECT_EQ(cal.mode_switches(), 0u);
}

TEST(CalendarQueue, ModeTransitionsHaveHysteresisAndPreserveOrder) {
  // Grow through the upgrade threshold, drain through the collapse
  // threshold, and check the pop stream stays exactly (time, seq)-sorted
  // across both transitions.
  EventQueue q;
  const int n = 3000;
  util::Rng rng(18);
  std::vector<double> times;
  for (int i = 0; i < n; ++i) times.push_back(rng.uniform(0.0, 100.0));
  for (const double t : times) q.push(t, [] {});
  const auto& cal = q.pending_set();
  EXPECT_FALSE(cal.small_mode()) << "upgrade threshold never crossed";
  EXPECT_EQ(cal.mode_switches(), 1u);
  EXPECT_GT(cal.in_bucket_count(), 0u);
  double prev = -1.0;
  std::size_t popped = 0;
  while (!q.empty()) {
    const Time t = q.fire_next();
    ASSERT_GE(t, prev) << "order broke at pop " << popped;
    prev = t;
    ++popped;
  }
  EXPECT_EQ(popped, static_cast<std::size_t>(n));
  EXPECT_TRUE(cal.small_mode()) << "collapse threshold never crossed";
  EXPECT_EQ(cal.mode_switches(), 2u);
  EXPECT_EQ(cal.in_bucket_count(), 0u);
}

TEST(CalendarQueue, CompactionPurgesDeadRecordsInBucketsAndOverflow) {
  EventQueue q;
  std::vector<EventHandle> handles;
  const int n = 2000;
  for (int i = 0; i < n; ++i) {
    // Half near-term (buckets), half far-future (overflow year).
    const double t = i % 2 == 0 ? 1.0 + i : 1e9 + i;
    handles.push_back(q.push(t, [] {}));
  }
  for (int i = 0; i < n; ++i) {
    if (i % 10 != 0) handles[static_cast<std::size_t>(i)].cancel();
  }
  // Compaction must have reclaimed dead records in both regions.
  EXPECT_LT(q.size_including_dead(), 600u);
  EXPECT_EQ(q.live_count(), 200u);
  std::size_t popped = 0;
  double prev = 0.0;
  while (!q.empty()) {
    const Time t = q.fire_next();
    EXPECT_GT(t, prev);
    prev = t;
    ++popped;
  }
  EXPECT_EQ(popped, 200u);
}

TEST(CalendarQueue, SteadyRateKeepsSortedBucketsShortAcrossBinades) {
  // A steady event rate from t = 1 s to t = 12 s: 4096 sources, each
  // re-arming after a uniform hold of mean 50 ms.  Double keys halve the
  // key spacing of one event rate at every power of two of t, so a day
  // width fixed in key units doubles the entries per sorted bucket at
  // t = 2, 4 and 8 s.  Sized from the dequeue gap, a day keeps the same
  // share of the rate in every binade.  The sorted entries are counted
  // per binade of the firing time.
  struct Source {
    EventQueue* q;
    util::Rng* rng;
    Time t;
    void operator()() const {
      const Time next = t + rng->uniform(0.0, 0.1);
      if (next < 12.0) q->push(next, Source{q, rng, next});
    }
  };
  EventQueue q;
  util::Rng rng(19);
  for (int i = 0; i < 4096; ++i) {
    const Time t = 1.0 + rng.uniform(0.0, 0.1);
    q.push(t, Source{&q, &rng, t});
  }
  struct Binade {
    std::uint64_t pops = 0;
    std::uint64_t sorts = 0;
    std::uint64_t sorted = 0;
  };
  Binade binades[4];  // [1, 2), [2, 4), [4, 8), [8, 12) s
  const CalendarPendingSet& cal = q.pending_set();
  while (!q.empty()) {
    const Time t = q.next_time();
    Binade& b = binades[t < 2.0 ? 0 : t < 4.0 ? 1 : t < 8.0 ? 2 : 3];
    const std::uint64_t sorts_before = cal.sort_count();
    const std::uint64_t sorted_before = cal.sorted_entries();
    q.fire_next();
    ++b.pops;
    b.sorts += cal.sort_count() - sorts_before;
    b.sorted += cal.sorted_entries() - sorted_before;
  }
  EXPECT_GT(cal.year_advance_count(), 4u);
  // A day fixed in key units sorts about every entry, in buckets of about
  // 5, 10, 20 and 40 entries in the four binades; here a fifth of the
  // entries are sorted, in buckets of about 2.
  const auto per_sort = [](const Binade& b) {
    return static_cast<double>(b.sorted) / static_cast<double>(b.sorts);
  };
  for (int i = 0; i < 4; ++i) {
    ASSERT_GT(binades[i].sorts, 1000u) << "binade " << i;
    EXPECT_LT(static_cast<double>(binades[i].sorted),
              0.5 * static_cast<double>(binades[i].pops))
        << "binade " << i;
    EXPECT_LT(per_sort(binades[i]), 4.0) << "binade " << i;
  }
  EXPECT_LT(per_sort(binades[3]), 1.5 * per_sort(binades[0]))
      << "sorted buckets grew from t = 1 s to t = 8 s";
}

TEST(CalendarSimulator, FullKernelMatchesHeapKernel) {
  // A self-rescheduling workload with jitter and cancellations, driven
  // end-to-end through the Simulator.  The digest was recorded when a
  // heap-ordered kernel still ran beside the calendar one and both
  // produced this exact trace.
  Simulator sim;
  std::vector<std::pair<Time, int>> trace;
  util::Rng rng(18);
  struct Tick {
    Simulator* s;
    std::vector<std::pair<Time, int>>* out;
    util::Rng* rng;
    int id;
    int* budget;
    void operator()() const {
      out->emplace_back(s->now(), id);
      if (--*budget > 0) {
        const double jitter = rng->uniform(0.0, 0.5);
        s->schedule_in(0.01 + jitter, Tick{s, out, rng, id + 1, budget});
        if (rng->uniform() < 0.2) {
          // Shoot-and-cancel: a decoy that must never fire.
          auto h = s->schedule_in(jitter, Tick{s, out, rng, -1, budget});
          h.cancel();
        }
      }
    }
  };
  int budget = 3000;
  sim.schedule_in(0.0, Tick{&sim, &trace, &rng, 0, &budget});
  sim.run();
  ASSERT_EQ(trace.size(), 3000u);
  for (const auto& [t, id] : trace) EXPECT_NE(id, -1);
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](std::uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (word >> (8 * byte)) & 0xffU;
      h *= 0x100000001b3ULL;
    }
  };
  mix(trace.size());
  for (const auto& [t, id] : trace) {
    mix(time_key(t));
    mix(static_cast<std::uint32_t>(id));
  }
  EXPECT_EQ(h, 0xfbd5f2f5a6d4d856ULL) << std::hex << h;
}

}  // namespace
}  // namespace emcast::sim
