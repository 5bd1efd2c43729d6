#include "sim/fifo_queue.hpp"

#include <utility>
#include <vector>

#include <gtest/gtest.h>

namespace emcast::sim {
namespace {

Packet make_packet(std::uint64_t id, Bits size) {
  Packet p;
  p.id = id;
  p.size = size;
  return p;
}

std::vector<std::uint64_t> pop_all(FifoQueue& q) {
  std::vector<std::uint64_t> ids;
  while (!q.empty()) ids.push_back(q.pop().id);
  return ids;
}

TEST(FifoQueue, StartsEmpty) {
  FifoQueue q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
  EXPECT_DOUBLE_EQ(q.backlog_bits(), 0.0);
  EXPECT_EQ(q.front(), nullptr);
}

TEST(FifoQueue, FifoOrder) {
  FifoQueue q;
  q.push(make_packet(1, 100));
  q.push(make_packet(2, 100));
  q.push(make_packet(3, 100));
  EXPECT_EQ(q.pop().id, 1u);
  EXPECT_EQ(q.pop().id, 2u);
  EXPECT_EQ(q.pop().id, 3u);
}

TEST(FifoQueue, BacklogAccountsBits) {
  FifoQueue q;
  q.push(make_packet(1, 100));
  q.push(make_packet(2, 250));
  EXPECT_DOUBLE_EQ(q.backlog_bits(), 350.0);
  q.pop();
  EXPECT_DOUBLE_EQ(q.backlog_bits(), 250.0);
  q.pop();
  EXPECT_DOUBLE_EQ(q.backlog_bits(), 0.0);
}

TEST(FifoQueue, PeakBacklogIsHighWaterMark) {
  FifoQueue q;
  q.push(make_packet(1, 100));
  q.push(make_packet(2, 200));
  q.pop();
  q.push(make_packet(3, 50));
  EXPECT_DOUBLE_EQ(q.peak_backlog_bits(), 300.0);
}

TEST(FifoQueue, FrontPeeksWithoutRemoving) {
  FifoQueue q;
  q.push(make_packet(7, 64));
  ASSERT_NE(q.front(), nullptr);
  EXPECT_EQ(q.front()->id, 7u);
  EXPECT_EQ(q.size(), 1u);
}

TEST(FifoQueue, TotalEnqueuedIsCumulative) {
  FifoQueue q;
  for (int i = 0; i < 5; ++i) q.push(make_packet(static_cast<std::uint64_t>(i), 10));
  while (!q.empty()) q.pop();
  q.push(make_packet(99, 10));
  EXPECT_EQ(q.total_enqueued(), 6u);
}

TEST(FifoQueue, ClearResetsBacklogButNotPeak) {
  FifoQueue q;
  q.push(make_packet(1, 500));
  q.clear();
  EXPECT_TRUE(q.empty());
  EXPECT_DOUBLE_EQ(q.backlog_bits(), 0.0);
  EXPECT_DOUBLE_EQ(q.peak_backlog_bits(), 500.0);
}

TEST(FifoQueue, GrowthWhileWrappedKeepsFifoOrderAndCounters) {
  FifoQueue q;
  for (std::uint64_t i = 1; i <= 4; ++i) q.push(make_packet(i, 10));
  ASSERT_EQ(q.capacity(), FifoQueue::kInitialCapacity);
  EXPECT_EQ(q.pop().id, 1u);
  EXPECT_EQ(q.pop().id, 2u);
  // The next two pushes wrap around to the front of the ring; the third
  // finds it full and doubles it while the live range is wrapped.
  q.push(make_packet(5, 10));
  q.push(make_packet(6, 10));
  EXPECT_EQ(q.capacity(), FifoQueue::kInitialCapacity);
  q.push(make_packet(7, 10));
  EXPECT_EQ(q.capacity(), 2 * FifoQueue::kInitialCapacity);
  EXPECT_EQ(q.size(), 5u);
  EXPECT_DOUBLE_EQ(q.backlog_bits(), 50.0);
  EXPECT_DOUBLE_EQ(q.peak_backlog_bits(), 50.0);
  EXPECT_EQ(q.total_enqueued(), 7u);
  ASSERT_NE(q.front(), nullptr);
  EXPECT_EQ(q.front()->id, 3u);
  EXPECT_EQ(pop_all(q), (std::vector<std::uint64_t>{3, 4, 5, 6, 7}));
  EXPECT_DOUBLE_EQ(q.backlog_bits(), 0.0);
}

TEST(FifoQueue, PopNewestBeforeRemovesAcrossTheWrapPoint) {
  FifoQueue q;
  for (std::uint64_t i = 0; i < 8; ++i) q.push(make_packet(i, 10), 0.0);
  ASSERT_EQ(q.capacity(), 8u);
  for (int i = 0; i < 5; ++i) q.pop();
  // Ids 5, 6, 7 sit in the last three slots; ids 8..12, all stamped at
  // the decision instant, wrap into slots 0..4.
  for (std::uint64_t i = 8; i <= 12; ++i) q.push(make_packet(i, 10), 3.0);
  ASSERT_EQ(q.capacity(), 8u);
  // The newest entry stamped before 3.0 is id 7, in the ring's last slot:
  // removing it shifts the tied entries back across the wrap point.
  EXPECT_EQ(q.pop_newest_before(3.0).id, 7u);
  EXPECT_EQ(q.size(), 7u);
  EXPECT_DOUBLE_EQ(q.backlog_bits(), 70.0);
  EXPECT_TRUE(q.has_entry_before(3.0));
  EXPECT_EQ(q.pop_newest_before(3.0).id, 6u);
  EXPECT_EQ(q.pop_newest_before(3.0).id, 5u);
  EXPECT_FALSE(q.has_entry_before(3.0));
  // Everything left is tied: the pick falls back to the front.
  EXPECT_EQ(q.pop_newest_before(3.0).id, 8u);
  EXPECT_EQ(q.pop_newest().id, 12u);
  EXPECT_EQ(pop_all(q), (std::vector<std::uint64_t>{9, 10, 11}));
  EXPECT_EQ(q.capacity(), 8u);
  EXPECT_EQ(q.total_enqueued(), 13u);
}

TEST(FifoQueue, ClearKeepsCapacity) {
  FifoQueue q;
  for (std::uint64_t i = 0; i < 10; ++i) q.push(make_packet(i, 10));
  const std::size_t cap = q.capacity();
  EXPECT_EQ(cap, 16u);
  q.clear();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.front(), nullptr);
  EXPECT_EQ(q.capacity(), cap);
  EXPECT_EQ(q.heap_bytes(), cap * FifoQueue::kEntryBytes);
  for (std::uint64_t i = 20; i < 30; ++i) q.push(make_packet(i, 10));
  EXPECT_EQ(q.capacity(), cap);
  EXPECT_EQ(q.pop().id, 20u);
  EXPECT_EQ(q.total_enqueued(), 20u);
}

TEST(FifoQueue, HeapBytesIsCapacityTimesEntrySize) {
  FifoQueue q;
  EXPECT_EQ(q.capacity(), 0u);
  EXPECT_EQ(q.heap_bytes(), 0u) << "an unused queue allocates nothing";
  q.push(make_packet(1, 10));
  EXPECT_EQ(q.heap_bytes(),
            FifoQueue::kInitialCapacity * FifoQueue::kEntryBytes);
  for (std::uint64_t i = 2; i <= 5; ++i) q.push(make_packet(i, 10));
  EXPECT_EQ(q.capacity(), 2 * FifoQueue::kInitialCapacity);
  EXPECT_EQ(q.heap_bytes(), q.capacity() * FifoQueue::kEntryBytes);
  while (!q.empty()) q.pop();
  EXPECT_EQ(q.heap_bytes(), q.capacity() * FifoQueue::kEntryBytes)
      << "popping does not shrink the ring";
}

TEST(FifoQueue, MoveCarriesEntriesAndCounters) {
  FifoQueue a;
  a.push(make_packet(1, 100));
  a.push(make_packet(2, 50));
  a.pop();
  FifoQueue b(std::move(a));
  EXPECT_EQ(b.size(), 1u);
  EXPECT_EQ(b.front()->id, 2u);
  EXPECT_DOUBLE_EQ(b.peak_backlog_bits(), 150.0);
  EXPECT_EQ(b.total_enqueued(), 2u);
  EXPECT_TRUE(a.empty()) << "a moved-from queue is empty and unallocated";
  EXPECT_EQ(a.heap_bytes(), 0u);
  FifoQueue c;
  c = std::move(b);
  EXPECT_EQ(c.pop().id, 2u);
  EXPECT_DOUBLE_EQ(c.backlog_bits(), 0.0);
}

}  // namespace
}  // namespace emcast::sim
