#include "sim/event_queue.hpp"

#include <cmath>

#include <vector>

#include <gtest/gtest.h>

namespace emcast::sim {
namespace {

TEST(EventQueue, EmptyInitially) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.next_time(), kTimeInfinity);
}

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.push(3.0, [&] { order.push_back(3); });
  q.push(1.0, [&] { order.push_back(1); });
  q.push(2.0, [&] { order.push_back(2); });
  while (!q.empty()) q.fire_next();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, SimultaneousEventsFireInSchedulingOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.push(5.0, [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) q.fire_next();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, CancelPreventsFiring) {
  EventQueue q;
  bool fired = false;
  auto h = q.push(1.0, [&] { fired = true; });
  h.cancel();
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(fired);
}

TEST(EventQueue, CancelIsIdempotent) {
  EventQueue q;
  auto h = q.push(1.0, [] {});
  h.cancel();
  h.cancel();
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, CancelAfterFireIsNoop) {
  EventQueue q;
  auto h = q.push(1.0, [] {});
  q.fire_next();
  EXPECT_FALSE(h.pending());
  h.cancel();  // must not crash or corrupt
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, PendingReflectsState) {
  EventQueue q;
  EventHandle none;
  EXPECT_FALSE(none.pending());
  auto h = q.push(1.0, [] {});
  EXPECT_TRUE(h.pending());
  h.cancel();
  EXPECT_FALSE(h.pending());
}

TEST(EventQueue, CancelInMiddleSkipsOnlyThatEvent) {
  EventQueue q;
  std::vector<int> order;
  q.push(1.0, [&] { order.push_back(1); });
  auto h = q.push(2.0, [&] { order.push_back(2); });
  q.push(3.0, [&] { order.push_back(3); });
  h.cancel();
  while (!q.empty()) q.fire_next();
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

TEST(EventQueue, NextTimeSkipsCancelled) {
  EventQueue q;
  auto h = q.push(1.0, [] {});
  q.push(2.0, [] {});
  h.cancel();
  EXPECT_DOUBLE_EQ(q.next_time(), 2.0);
}

TEST(EventQueue, RejectsNonFiniteTime) {
  EventQueue q;
  EXPECT_THROW(q.push(kTimeInfinity, [] {}), std::invalid_argument);
  EXPECT_THROW(q.push(std::nan(""), [] {}), std::invalid_argument);
}

TEST(EventQueue, LargeVolumeStaysSorted) {
  EventQueue q;
  // Deterministic pseudo-random times.
  std::uint64_t x = 88172645463325252ULL;
  for (int i = 0; i < 10000; ++i) {
    x ^= x << 13; x ^= x >> 7; x ^= x << 17;
    q.push(static_cast<double>(x % 100000) / 1000.0, [] {});
  }
  double prev = -1.0;
  while (!q.empty()) {
    const Time t = q.fire_next();
    EXPECT_GE(t, prev);
    prev = t;
  }
}

}  // namespace
}  // namespace emcast::sim
