// SpinBarrier: generation counting, reuse across many rounds, and the
// acq_rel visibility edge the sharded scheduler relies on (writes before
// a party's arrive are visible to every party after the release).

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "util/barrier.hpp"

namespace emcast::util {
namespace {

TEST(SpinBarrier, SinglePartyIsANoop) {
  SpinBarrier barrier(1);
  for (int i = 0; i < 100; ++i) barrier.arrive_and_wait();
  SUCCEED();
}

TEST(SpinBarrier, LockstepRoundsNeverSplit) {
  // Each thread bumps its per-round slot, then barriers; after the
  // barrier every thread must observe every other thread's bump for the
  // round — any split (a thread escaping a round early) trips the check.
  constexpr std::size_t kThreads = 4;
  constexpr int kRounds = 2000;
  SpinBarrier barrier(kThreads);
  std::vector<std::atomic<int>> progress(kThreads);
  for (auto& p : progress) p.store(0);
  std::atomic<bool> split{false};

  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int r = 1; r <= kRounds; ++r) {
        progress[t].store(r, std::memory_order_relaxed);
        barrier.arrive_and_wait();
        for (std::size_t other = 0; other < kThreads; ++other) {
          if (progress[other].load(std::memory_order_relaxed) < r) {
            split.store(true);
          }
        }
        barrier.arrive_and_wait();
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_FALSE(split.load()) << "a thread escaped a barrier round early";
}

TEST(SpinBarrier, PlainWritesAreVisibleAcrossTheBarrier) {
  // The scheduler publishes plain (non-atomic) state across barriers —
  // window bounds, mailbox spills.  Model that exactly: one writer, many
  // readers, no atomics on the payload.
  constexpr std::size_t kThreads = 3;
  constexpr int kRounds = 500;
  SpinBarrier barrier(kThreads);
  std::uint64_t payload = 0;  // plain memory, written by thread 0 only
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int r = 1; r <= kRounds; ++r) {
        if (t == 0) payload = static_cast<std::uint64_t>(r) * 1000003u;
        barrier.arrive_and_wait();
        if (payload != static_cast<std::uint64_t>(r) * 1000003u) {
          ++mismatches;
        }
        barrier.arrive_and_wait();
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(SpinBarrier, IdleStepRunsWhileALatePartyIsAway) {
  // The process backend's workers move ring bytes in the idle step, so a
  // party waiting long enough to yield must run it; the party that
  // releases the generation never waits and never runs its own.
  SpinBarrier barrier(2);
  std::atomic<int> early_idles{0};
  int late_idles = 0;
  std::thread late([&] {
    // Arrive once the early party has idled (or after 5 s, so that a
    // missing idle step fails below instead of hanging).
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (early_idles.load() == 0 &&
           std::chrono::steady_clock::now() < give_up) {
      std::this_thread::yield();
    }
    barrier.arrive_and_wait([&] { ++late_idles; });
  });
  barrier.arrive_and_wait([&] { ++early_idles; });
  late.join();
  EXPECT_GT(early_idles.load(), 0);
  EXPECT_EQ(late_idles, 0);
  EXPECT_EQ(barrier.generation(), 1u);
}

}  // namespace
}  // namespace emcast::util
