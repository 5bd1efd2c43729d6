// Engine-internal semantics of the slot-based event queue: handle
// generations across slot reuse, cancel-after-fire, sequence-space
// exhaustion, dead-entry compaction, and the ordering bit-tricks.

#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "sim/event_queue.hpp"

namespace emcast::sim {

/// White-box access for the generation/compaction tests.
class EventQueueTestPeer {
 public:
  static void set_next_seq(EventQueue& q, std::uint64_t s) {
    q.next_seq_ = s;
  }
  static std::uint64_t seq_limit() { return EventQueue::kSeqLimit; }
  static std::uint32_t slot_of(const EventHandle& h) { return h.slot_; }
  static std::uint64_t generation_of(const EventHandle& h) { return h.seq_; }
  static std::size_t dead_pending(const EventQueue& q) {
    return q.dead_pending_;
  }
};

namespace {

TEST(EventEngine, FiredSlotIsReusedWithFreshGeneration) {
  EventQueue q;
  auto h1 = q.push(1.0, [] {});
  q.fire_next();
  auto h2 = q.push(2.0, [] {});
  // Same storage slot, different generation.
  EXPECT_EQ(EventQueueTestPeer::slot_of(h1), EventQueueTestPeer::slot_of(h2));
  EXPECT_NE(EventQueueTestPeer::generation_of(h1),
            EventQueueTestPeer::generation_of(h2));
  EXPECT_FALSE(h1.pending());
  EXPECT_TRUE(h2.pending());
}

TEST(EventEngine, StaleHandleCannotCancelSlotsNewOccupant) {
  EventQueue q;
  auto stale = q.push(1.0, [] {});
  q.fire_next();  // fires; slot freed
  bool fired = false;
  auto live = q.push(2.0, [&] { fired = true; });
  stale.cancel();  // must be a no-op against the recycled slot
  EXPECT_TRUE(live.pending());
  ASSERT_FALSE(q.empty());
  q.fire_next();
  EXPECT_TRUE(fired);
}

TEST(EventEngine, CancelAfterFireThenReuseManyTimes) {
  EventQueue q;
  std::vector<EventHandle> stale;
  for (int round = 0; round < 100; ++round) {
    auto h = q.push(static_cast<double>(round), [] {});
    stale.push_back(h);
    q.fire_next();
    // Every retired handle stays inert no matter how often its slot
    // cycles.
    for (auto& s : stale) {
      s.cancel();
      EXPECT_FALSE(s.pending());
    }
  }
  EXPECT_TRUE(q.empty());
}

TEST(EventEngine, GenerationSpaceNearLimitStillOrdersCorrectly) {
  EventQueue q;
  EventQueueTestPeer::set_next_seq(q, EventQueueTestPeer::seq_limit() - 3);
  std::vector<int> order;
  q.push(5.0, [&] { order.push_back(0); });
  q.push(5.0, [&] { order.push_back(1); });
  auto h = q.push(5.0, [&] { order.push_back(2); });
  h.cancel();
  while (!q.empty()) q.fire_next();
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
}

TEST(EventEngine, GenerationSpaceExhaustionThrowsInsteadOfWrapping) {
  EventQueue q;
  EventQueueTestPeer::set_next_seq(q, EventQueueTestPeer::seq_limit() - 1);
  q.push(1.0, [] {});  // the last representable sequence number
  EXPECT_THROW(q.push(2.0, [] {}), std::length_error);
}

TEST(EventEngine, MassCancelTriggersCompaction) {
  EventQueue q;
  std::vector<EventHandle> handles;
  const int n = 1000;
  for (int i = 0; i < n; ++i) {
    handles.push_back(q.push(1.0 + i, [] {}));
  }
  for (int i = 0; i < n; ++i) {
    if (i % 10 != 0) handles[static_cast<std::size_t>(i)].cancel();
  }
  // Compaction must have reclaimed dead records: far fewer than the 900
  // cancellations can remain.
  EXPECT_LT(q.size_including_dead(), 300u);
  EXPECT_EQ(q.live_count(), 100u);
  double prev = 0.0;
  int popped = 0;
  while (!q.empty()) {
    const Time t = q.fire_next();
    EXPECT_GT(t, prev);
    prev = t;
    ++popped;
  }
  EXPECT_EQ(popped, 100);
}

TEST(EventEngine, DeadRecordCountIsExact) {
  // Every cancel counts its dead record once and every skim uncounts it
  // once, so the count reaches zero exactly when the last dead record
  // leaves the pending set (below the compaction floor, so only skims
  // remove them).
  EventQueue q;
  std::vector<EventHandle> handles;
  for (int i = 0; i < 40; ++i) {
    handles.push_back(q.push(1.0 + i, [] {}));
  }
  // Cancel the odd times 1, 3, ..., 39 and the last time, 40.
  for (std::size_t i = 0; i < 40; i += 2) handles[i].cancel();
  handles[39].cancel();
  EXPECT_EQ(EventQueueTestPeer::dead_pending(q), 21u);
  EXPECT_EQ(q.next_time(), 2.0);  // skims the dead record at 1.0
  EXPECT_EQ(EventQueueTestPeer::dead_pending(q), 20u);
  while (!q.empty()) q.fire_next();  // skims 3, 5, ..., 37 on the way
  EXPECT_EQ(EventQueueTestPeer::dead_pending(q), 2u)
      << "the records at 39 and 40 sit behind the last live event";
  EXPECT_EQ(q.next_time(), kTimeInfinity);
  EXPECT_EQ(EventQueueTestPeer::dead_pending(q), 0u);
  EXPECT_EQ(q.size_including_dead(), 0u);
}

TEST(EventEngine, SignedZerosAreATieBrokenBySchedulingOrder) {
  // -0.0 == +0.0, so the documented (time, seq) contract makes scheduling
  // order decide — the integer time key must not order them apart.
  EventQueue q;
  std::vector<int> order;
  q.push(+0.0, [&] { order.push_back(0); });
  q.push(-0.0, [&] { order.push_back(1); });
  q.push(+0.0, [&] { order.push_back(2); });
  while (!q.empty()) q.fire_next();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(EventEngine, NegativeTimesOrderCorrectly) {
  // The order-preserving double→uint64 key must handle negatives.
  EventQueue q;
  std::vector<double> order;
  for (double t : {3.5, -2.0, 0.0, -7.25, 1.0, -0.5}) {
    q.push(t, [&order, t] { order.push_back(t); });
  }
  while (!q.empty()) q.fire_next();
  EXPECT_EQ(order, (std::vector<double>{-7.25, -2.0, -0.5, 0.0, 1.0, 3.5}));
}

TEST(EventEngine, InterleavedCancelKeepsDeterministicTieBreak) {
  EventQueue q;
  std::vector<int> order;
  std::vector<EventHandle> handles;
  // Scramble slot assignment: cancel odd pushes so their slots recycle.
  for (int i = 0; i < 50; ++i) {
    handles.push_back(q.push(10.0, [&order, i] { order.push_back(i); }));
    if (i % 2 == 1) handles.back().cancel();
  }
  while (!q.empty()) q.fire_next();
  ASSERT_EQ(order.size(), 25u);
  for (std::size_t i = 1; i < order.size(); ++i) {
    EXPECT_LT(order[i - 1], order[i]);  // scheduling order, despite reuse
  }
}

TEST(EventEngine, CaptureDestructorMayCancelItsOwnHandle) {
  // RAII-guard pattern: the capture cancels its own handle on
  // destruction.  cancel() must vacate the slot before running the
  // destructor, so the reentrant cancel is a stale-handle no-op.
  EventQueue q;
  EventHandle handle;
  struct SelfCancel {
    EventHandle* h;
    ~SelfCancel() {
      if (h != nullptr) h->cancel();
    }
    SelfCancel(EventHandle* handle) : h(handle) {}
    SelfCancel(SelfCancel&& o) noexcept : h(o.h) { o.h = nullptr; }
    void operator()() const {}
  };
  handle = q.push(1.0, SelfCancel{&handle});
  handle.cancel();  // must not recurse
  EXPECT_FALSE(handle.pending());
  EXPECT_TRUE(q.empty());
  // The slot must be cleanly reusable afterwards.
  bool fired = false;
  q.push(2.0, [&] { fired = true; });
  while (!q.empty()) q.fire_next();
  EXPECT_TRUE(fired);
}

TEST(EventEngine, DefaultedMoveGuardMayCancelDuringRelocation) {
  // The harder reentrancy case: a guard whose move constructor is
  // DEFAULTED, so the moved-from source still holds the handle pointer
  // and its destructor — which runs when cancel() or fire_next()
  // destroys the capture in its slot — calls cancel() mid-teardown.
  struct Guard {
    EventHandle* h;
    ~Guard() {
      if (h != nullptr) h->cancel();
    }
    explicit Guard(EventHandle* handle) : h(handle) {}
    Guard(Guard&&) = default;
    void operator()() const {}
  };
  {
    // The argument temporary also keeps `h` (defaulted move), so it
    // cancels the event as the push expression ends — the engine must
    // survive that storm of cancels without recursion or corruption.
    EventQueue q;
    EventHandle handle;
    handle = q.push(1.0, Guard{&handle});
    EXPECT_FALSE(handle.pending());  // cancelled by the temp's destructor
    handle.cancel();                 // and again explicitly: still a no-op
    EXPECT_TRUE(q.empty());
  }
  {
    // Mid-fire reentrancy: disarm the local after the move, so only the
    // stored capture holds the handle — its destructor then runs as
    // fire_next() destroys the fired capture and cancels that very event.
    EventQueue q;
    EventHandle handle;
    Guard local{&handle};
    handle = q.push(1.0, std::move(local));
    local.h = nullptr;  // defaulted move left it armed; disarm
    ASSERT_TRUE(handle.pending());
    int popped = 0;
    while (!q.empty()) {
      q.fire_next();
      ++popped;
    }
    EXPECT_EQ(popped, 1);
    EXPECT_FALSE(handle.pending());
    // Slot was freed exactly once: two new events must get distinct slots.
    auto a = q.push(2.0, [] {});
    auto b = q.push(3.0, [] {});
    EXPECT_NE(EventQueueTestPeer::slot_of(a), EventQueueTestPeer::slot_of(b));
    EXPECT_EQ(q.live_count(), 2u);
  }
}

TEST(EventEngine, CallbackRunsInItsSlotAndReleasesItOnThrow) {
  // fire_next() runs the callback where push() constructed it.  While it
  // runs, its handle is stale (cancel is a no-op) and its slot is off the
  // free list, so a push from inside gets another slot.  When it throws,
  // the capture is destroyed, the slot is released, and the exception
  // reaches the caller.
  struct Probe {
    const void** constructed_at;
    const void** called_at;
    int* destroyed;
    std::function<void()>* body;
    Probe(const void** c, const void** a, int* d, std::function<void()>* b)
        : constructed_at(c), called_at(a), destroyed(d), body(b) {}
    Probe(Probe&& o) noexcept
        : constructed_at(o.constructed_at), called_at(o.called_at),
          destroyed(o.destroyed), body(o.body) {
      *constructed_at = this;
      o.destroyed = nullptr;
    }
    ~Probe() {
      if (destroyed != nullptr) ++*destroyed;
    }
    void operator()() {
      *called_at = this;
      (*body)();
    }
  };
  EventQueue q;
  EventHandle self;
  EventHandle inner;
  const void* constructed_at = nullptr;
  const void* called_at = nullptr;
  int destroyed = 0;
  std::function<void()> body = [&] {
    EXPECT_FALSE(self.pending());
    self.cancel();  // a stale handle: must not release the running slot
    inner = q.push(2.0, [] {});
    EXPECT_EQ(destroyed, 0) << "capture destroyed while running";
    throw std::runtime_error("thrown by the callback");
  };
  self = q.push(1.0, Probe(&constructed_at, &called_at, &destroyed, &body));
  const std::uint32_t running = EventQueueTestPeer::slot_of(self);
  EXPECT_THROW(q.fire_next(), std::runtime_error);
  EXPECT_EQ(called_at, constructed_at) << "the capture was moved to fire";
  EXPECT_NE(EventQueueTestPeer::slot_of(inner), running)
      << "a push reused the slot of the running callback";
  EXPECT_EQ(destroyed, 1);
  EXPECT_EQ(q.live_count(), 1u);
  EXPECT_TRUE(inner.pending());
  // Released exactly once: the next push reuses it, the one after does not.
  const EventHandle after = q.push(3.0, [] {});
  EXPECT_EQ(EventQueueTestPeer::slot_of(after), running);
  const EventHandle last = q.push(4.0, [] {});
  EXPECT_NE(EventQueueTestPeer::slot_of(last), running);
  EXPECT_EQ(q.fire_next(), 2.0);
  EXPECT_EQ(q.fire_next(), 3.0);
  EXPECT_EQ(q.fire_next(), 4.0);
  EXPECT_TRUE(q.empty());
}

TEST(EventEngine, QueueDestructionWithCrossCancellingCapturesIsSafe) {
  // RAII-guard captures that cancel OTHER handles on destruction: during
  // queue teardown every capture destructor runs, and each cancel must
  // find the occupant words alive and already vacated (stale-handle
  // no-op) — not freed memory, and never a compaction of a half-destroyed
  // queue.  Enough events to cross the compaction floor if the cancels
  // were (wrongly) honoured.
  struct CrossCancel {
    std::vector<EventHandle>* all = nullptr;
    std::size_t other = 0;
    CrossCancel(std::vector<EventHandle>* a, std::size_t o)
        : all(a), other(o) {}
    CrossCancel(CrossCancel&& o) noexcept : all(o.all), other(o.other) {
      o.all = nullptr;
    }
    ~CrossCancel() {
      if (all != nullptr) (*all)[other].cancel();
    }
    void operator()() const {}
  };
  std::vector<EventHandle> handles(300);
  auto queue = std::make_unique<EventQueue>();
  for (std::size_t i = 0; i < handles.size(); ++i) {
    handles[i] = queue->push(1.0 + static_cast<double>(i),
                             CrossCancel{&handles, (i + 7) % 300});
  }
  queue.reset();  // must not touch freed occupants or the pending set
}

TEST(EventEngine, ThrowingCopyDuringPushLeaksNoSlot) {
  struct ThrowingCopy {
    bool armed;
    explicit ThrowingCopy(bool a) : armed(a) {}
    ThrowingCopy(const ThrowingCopy& o) : armed(o.armed) {
      if (armed) throw std::runtime_error("copy refused");
    }
    ThrowingCopy(ThrowingCopy&&) noexcept = default;
    void operator()() const {}
  };
  EventQueue q;
  ThrowingCopy armed(true);
  for (int i = 0; i < 3; ++i) {
    EXPECT_THROW(q.push(1.0, armed), std::runtime_error);  // lvalue → copy
  }
  EXPECT_EQ(q.live_count(), 0u);
  EXPECT_TRUE(q.empty());
  // The failed pushes must have returned their slot: the next push reuses
  // slot 0 rather than walking the slot space.
  auto h = q.push(1.0, [] {});
  EXPECT_EQ(EventQueueTestPeer::slot_of(h), 0u);
  q.fire_next();
}

TEST(EventEngine, DiscardableReturnValuesAreAccepted) {
  EventQueue q;
  int calls = 0;
  q.push(1.0, [&calls] { return ++calls; });  // non-void return, discarded
  while (!q.empty()) q.fire_next();
  EXPECT_EQ(calls, 1);
}

TEST(EventEngine, LiveCountTracksPushPopCancel) {
  EventQueue q;
  EXPECT_EQ(q.live_count(), 0u);
  auto a = q.push(1.0, [] {});
  auto b = q.push(2.0, [] {});
  EXPECT_EQ(q.live_count(), 2u);
  a.cancel();
  EXPECT_EQ(q.live_count(), 1u);
  q.fire_next();
  EXPECT_EQ(q.live_count(), 0u);
  EXPECT_TRUE(q.empty());
  (void)b;
}

}  // namespace
}  // namespace emcast::sim
