// Transport and process-backend robustness: the failure paths the
// process backend must turn into clean diagnostics instead of hangs or
// leaks, and the frames its workers write.
//
//   - shm rings carry frames larger than the ring (streamed through in
//     chunks and reassembled), and a frame written just before the
//     writer's exit is still read;
//   - frames round-trip bit for bit, and truncated, padded or corrupt
//     frames are rejected, never misread;
//   - a worker process killed mid-window, a model exception and a stalled
//     worker each surface as a thrown runtime_error — never a hang;
//   - 100 warm reset+run cycles on the process engine leave the fd table
//     and the mappings exactly as they found them (the region and the
//     children are run()-scoped).
//
// Suite names stay outside the ShardedSim* concurrency filter:
// these tests fork, and fork+TSan is not a supported combination.

#include <gtest/gtest.h>

#include <dirent.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <bit>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "sim/context.hpp"
#include "sim/transport.hpp"
#include "util/rng.hpp"

namespace emcast::sim {
namespace {

std::vector<std::uint8_t> pattern_frame(std::size_t n, std::uint8_t seed) {
  std::vector<std::uint8_t> f(n);
  for (std::size_t i = 0; i < n; ++i) {
    f[i] = static_cast<std::uint8_t>(seed + i * 131);
  }
  return f;
}

/// Block (yielding) until `in` holds a complete frame; return it.
std::vector<std::uint8_t> read_frame(RingReader& in) {
  std::span<const std::uint8_t> payload;
  while (!in.next(payload)) {
    in.pump();
    std::this_thread::yield();
  }
  return {payload.begin(), payload.end()};
}

/// Two rings in one region, one per direction.
struct RingPair {
  explicit RingPair(std::size_t capacity)
      : region(2 * ShmRing::footprint(capacity)),
        a_to_b(ShmRing::create(region.data(), capacity)),
        b_to_a(ShmRing::create(
            region.data() + ShmRing::footprint(capacity), capacity)) {}
  SharedRegion region;
  ShmRing* a_to_b;
  ShmRing* b_to_a;
};

TEST(TransportShm, FramesSurviveIncludingLargerThanRing) {
  // Ping-pong small frames, then a frame far larger than the ring, then
  // an empty frame — all must arrive intact and in order.
  RingPair rings(4096);
  const auto big = pattern_frame(1u << 20, 7);
  std::thread peer([&] {
    RingReader in(rings.a_to_b);
    EXPECT_EQ(read_frame(in), pattern_frame(100, 3));
    rings.b_to_a->write_frame(pattern_frame(200, 5));
    EXPECT_EQ(read_frame(in), big);
    rings.b_to_a->write_frame({});
  });
  RingReader in(rings.b_to_a);
  rings.a_to_b->write_frame(pattern_frame(100, 3));
  EXPECT_EQ(read_frame(in), pattern_frame(200, 5));
  rings.a_to_b->write_frame(big);
  EXPECT_TRUE(read_frame(in).empty());
  peer.join();
}

TEST(TransportShm, FullRingRunsTheIdleStep) {
  // A writer facing a full ring runs its idle step between attempts: the
  // process backend's workers drain their own incoming rings there.
  RingPair rings(64);
  RingReader in(rings.a_to_b);
  int idles = 0;
  rings.a_to_b->write_frame(pattern_frame(1000, 9), [&] {
    ++idles;
    in.pump();
  });
  EXPECT_GT(idles, 0);
  EXPECT_EQ(read_frame(in), pattern_frame(1000, 9));
}

TEST(TransportShm, FrameSentJustBeforePeerExitIsDelivered) {
  // A worker writes its bye frame and exits at once, so the parent can
  // observe the exit before it has read the frame.  What the worker wrote
  // stays readable: reap it first, then read.
  RingPair rings(4096);
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    rings.a_to_b->write_frame(pattern_frame(10, 7));
    _exit(0);
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
  RingReader in(rings.a_to_b);
  EXPECT_TRUE(in.pump());
  std::span<const std::uint8_t> payload;
  ASSERT_TRUE(in.next(payload));
  EXPECT_EQ(std::vector<std::uint8_t>(payload.begin(), payload.end()),
            pattern_frame(10, 7));
  EXPECT_TRUE(in.empty());
}

// ---------------------------------------------------------------- frames

CrossShardMsg random_msg(util::Rng& rng) {
  CrossShardMsg m;
  m.packet.id = rng.next();
  m.packet.flow = static_cast<FlowId>(rng.uniform_int(0, 40));
  m.packet.group = static_cast<GroupId>(rng.uniform_int(-1, 7));
  m.packet.size = rng.uniform(0.0, 1e6);
  m.packet.created = rng.uniform(0.0, 100.0);
  m.packet.hop_arrival = rng.uniform(0.0, 100.0);
  m.deliver_at = rng.uniform(0.0, 200.0);
  m.seq = rng.next();
  m.source_shard = static_cast<std::uint32_t>(rng.uniform_int(0, 15));
  m.dest_host = static_cast<std::int32_t>(rng.uniform_int(0, 100000));
  return m;
}

bool msg_equal(const CrossShardMsg& a, const CrossShardMsg& b) {
  // Field-by-field bit comparison (memcmp on the struct would compare
  // padding): every double must survive exactly, no field dropped.
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  return a.packet.id == b.packet.id && a.packet.flow == b.packet.flow &&
         a.packet.group == b.packet.group &&
         bits(a.packet.size) == bits(b.packet.size) &&
         bits(a.packet.created) == bits(b.packet.created) &&
         bits(a.packet.hop_arrival) == bits(b.packet.hop_arrival) &&
         bits(a.deliver_at) == bits(b.deliver_at) && a.seq == b.seq &&
         a.source_shard == b.source_shard && a.dest_host == b.dest_host;
}

std::vector<std::uint8_t> handoff_frame(util::Rng& rng, std::uint32_t dest,
                                        int count) {
  std::vector<CrossShardMsg> msgs;
  for (int i = 0; i < count; ++i) msgs.push_back(random_msg(rng));
  std::vector<std::uint8_t> out;
  put_handoff(out, dest, msgs);
  return out;
}

TEST(TransportFrame, HandoffRoundTripRandomBatches) {
  util::Rng rng(0xC0DEC5EEDULL);
  Frame back;
  for (int iter = 0; iter < 50; ++iter) {
    const auto dest = static_cast<std::uint32_t>(rng.uniform_int(0, 31));
    std::vector<CrossShardMsg> msgs;
    const int count = static_cast<int>(rng.uniform_int(0, 64));
    for (int i = 0; i < count; ++i) msgs.push_back(random_msg(rng));
    std::vector<std::uint8_t> out;
    put_handoff(out, dest, msgs);
    decode_frame(out, back);
    ASSERT_EQ(back.tag, FrameTag::kHandoff);
    ASSERT_EQ(back.shard, dest);
    ASSERT_EQ(back.msgs.size(), msgs.size());
    for (std::size_t i = 0; i < msgs.size(); ++i) {
      ASSERT_TRUE(msg_equal(back.msgs[i], msgs[i])) << "msg " << i;
    }
  }
}

TEST(TransportFrame, ResultAndByeRoundTrip) {
  util::Rng rng(77);
  Frame back;
  for (int iter = 0; iter < 50; ++iter) {
    std::vector<std::uint8_t> out;
    const auto shard = static_cast<std::uint32_t>(rng.uniform_int(0, 15));
    std::vector<std::uint8_t> blob;
    const int nb = static_cast<int>(rng.uniform_int(0, 200));
    for (int i = 0; i < nb; ++i) {
      blob.push_back(static_cast<std::uint8_t>(rng.next()));
    }
    put_result(out, shard, blob);
    decode_frame(out, back);
    EXPECT_EQ(back.tag, FrameTag::kResult);
    EXPECT_EQ(back.shard, shard);
    EXPECT_EQ(back.bytes, blob);

    out.clear();
    const ByeCounts bye{rng.next(), rng.next(), rng.next()};
    put_bye(out, bye);
    decode_frame(out, back);
    EXPECT_EQ(back.tag, FrameTag::kBye);
    EXPECT_EQ(back.bye.rounds, bye.rounds);
    EXPECT_EQ(back.bye.events, bye.events);
    EXPECT_EQ(back.bye.posted, bye.posted);
  }
}

TEST(TransportFrame, ErrorFrameRoundTripsArbitraryText) {
  const std::string cases[] = {
      std::string{}, std::string{"boom"},
      std::string("x\0y\xffz", 5),  // embedded NUL + high bytes
      std::string(3000, 'a')};
  Frame back;
  for (const std::string& msg : cases) {
    std::vector<std::uint8_t> out;
    put_error(out, msg);
    decode_frame(out, back);
    EXPECT_EQ(back.tag, FrameTag::kError);
    EXPECT_EQ(std::string(back.bytes.begin(), back.bytes.end()), msg);
  }
}

TEST(TransportFrame, EveryTruncationPrefixIsRejected) {
  util::Rng rng(99);
  const auto out = handoff_frame(rng, 3, 5);
  Frame back;
  for (std::size_t len = 0; len < out.size(); ++len) {
    EXPECT_THROW(decode_frame({out.data(), len}, back), TransportError)
        << "prefix of " << len << " bytes must be rejected";
  }
  // The untruncated frame still parses (the loop above must not have
  // depended on a corrupt buffer).
  decode_frame(out, back);
  EXPECT_EQ(back.msgs.size(), 5u);
}

TEST(TransportFrame, TrailingGarbageIsRejected) {
  std::vector<std::uint8_t> out;
  put_bye(out, {1, 2, 3});
  out.push_back(0x00);
  Frame back;
  EXPECT_THROW(decode_frame(out, back), TransportError);
}

TEST(TransportFrame, UnknownTagIsRejected) {
  std::vector<std::uint8_t> out;
  put_bye(out, {1, 2, 3});
  Frame back;
  for (const std::uint8_t tag : {0, 5, 255}) {
    out[0] = tag;
    EXPECT_THROW(decode_frame(out, back), TransportError) << int{tag};
  }
}

TEST(TransportFrame, CountExceedingPayloadIsRejectedNotAllocated) {
  // A corrupt message count far beyond the actual payload must throw
  // (checked against remaining bytes), not attempt a huge allocation.
  util::Rng rng(5);
  auto out = handoff_frame(rng, 1, 1);
  // Layout: tag u8, destination u32, count u64, messages.
  const std::size_t count_off = 1 + 4;
  const std::uint64_t huge = std::uint64_t{1} << 40;
  std::memcpy(out.data() + count_off, &huge, sizeof huge);
  Frame back;
  EXPECT_THROW(decode_frame(out, back), TransportError);
}

TEST(TransportFrame, RandomCorruptionNeverCrashes) {
  // Fuzz: flip random bytes in valid frames; decode must either succeed
  // or throw TransportError — never crash, never read out of bounds
  // (ASan/UBSan builds of this test are the real teeth).
  util::Rng rng(0xFACADE);
  const auto pristine = handoff_frame(rng, 2, 8);
  Frame back;
  for (int iter = 0; iter < 500; ++iter) {
    std::vector<std::uint8_t> buf = pristine;
    const int flips = static_cast<int>(rng.uniform_int(1, 8));
    for (int i = 0; i < flips; ++i) {
      const auto pos = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<int>(buf.size()) - 1));
      buf[pos] ^= static_cast<std::uint8_t>(1 + rng.uniform_int(0, 254));
    }
    try {
      decode_frame(buf, back);  // payload-only corruption still parses
    } catch (const TransportError&) {
      // expected for most corruptions
    }
  }
}

// ------------------------------------------------------- process backend

EngineConfig tiny_process_config(std::size_t processes) {
  EngineConfig c;
  c.kind = EngineKind::Process;
  c.shards = 2;
  c.processes = processes;
  c.lookahead = 1.0;
  c.shard_of = {0, 1};
  c.timeout_seconds = 10.0;
  return c;
}

/// True when this process has no child left, running or unreaped.
bool no_children_left() {
  return ::waitpid(-1, nullptr, WNOHANG) == -1 && errno == ECHILD;
}

TEST(ProcessSimRobust, KilledWorkerSurfacesAsDiagnosticNotHang) {
  Engine e(tiny_process_config(2));
  const pid_t parent = ::getpid();
  e.set_deliver([parent](SimContext ctx, HostId h, const Packet& p) {
    // Simulate a mid-run SIGKILL: the worker owning shard 1 dies without
    // a word at t >= 3.  Deliver handlers only ever run in workers (the
    // parent executes nothing), so the pid check is pure paranoia.
    if (h == 1 && ctx.now() >= 3.0 && ::getpid() != parent) {
      ::kill(::getpid(), SIGKILL);
    }
    Packet q = p;
    ctx.deliver(h == 0 ? 1 : 0, q, ctx.now() + 1.5);
  });
  SimContext ctx0 = e.context(0);
  Packet p{};
  ctx0.schedule_at(0.0, [ctx0, p] { ctx0.deliver(1, p, 2.0); });
  try {
    e.run(50.0);
    FAIL() << "a killed worker must abort the run";
  } catch (const std::runtime_error& ex) {
    const std::string what = ex.what();
    EXPECT_NE(what.find("process backend"), std::string::npos) << what;
    EXPECT_NE(what.find("worker 1"), std::string::npos) << what;
    EXPECT_NE(what.find("signal"), std::string::npos)
        << "diagnostic should name the wait status: " << what;
  }
  EXPECT_TRUE(no_children_left());
}

TEST(ProcessSimRobust, ModelErrorMessageCrossesTheBoundary) {
  Engine e(tiny_process_config(2));
  e.set_deliver([](SimContext, HostId, const Packet&) {});
  SimContext ctx1 = e.context(1);
  ctx1.schedule_at(1.0, [] {
    throw std::logic_error("distinctive model failure at t=1");
  });
  try {
    e.run(10.0);
    FAIL() << "a model exception in a worker must abort the run";
  } catch (const std::runtime_error& ex) {
    const std::string what = ex.what();
    EXPECT_NE(what.find("distinctive model failure at t=1"),
              std::string::npos)
        << what;
  }
  EXPECT_TRUE(no_children_left());
}

TEST(ProcessSimRobust, StalledWorkerSurfacesAsTimeout) {
  // The parent's one deadline: a worker stuck in a window (here a model
  // event that sleeps far past timeout_seconds) stops the barrier, and the
  // run fails once timeout_seconds pass without progress.
  EngineConfig c = tiny_process_config(2);
  c.timeout_seconds = 0.5;
  Engine e(c);
  e.set_deliver([](SimContext, HostId, const Packet&) {});
  SimContext ctx1 = e.context(1);
  ctx1.schedule_at(1.0, [] {
    std::this_thread::sleep_for(std::chrono::seconds(3));
  });
  const auto start = std::chrono::steady_clock::now();
  try {
    e.run(10.0);
    FAIL() << "a stalled worker must fail the run";
  } catch (const std::runtime_error& ex) {
    const std::string what = ex.what();
    EXPECT_NE(what.find("timeout"), std::string::npos) << what;
  }
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(3));
  EXPECT_TRUE(no_children_left());
}

TEST(ProcessSimRobust, SetupTimeCrossShardPostRunsOnce) {
  // A cross-shard deliver() issued before run() is staged in the parent's
  // mailbox, which every worker inherits; it must still execute once, as
  // on the threaded backend.
  for (const EngineKind kind : {EngineKind::Sharded, EngineKind::Process}) {
    for (const std::size_t workers : {1u, 2u}) {
      EngineConfig c = tiny_process_config(workers);
      c.kind = kind;
      c.threads = workers;
      Engine e(c);
      e.set_deliver([](SimContext, HostId, const Packet&) {});
      e.context(0).deliver(1, Packet{}, 2.0);
      EXPECT_EQ(e.run(10.0), 1u)
          << to_string(kind) << ", " << workers << " workers";
    }
  }
}

// Each burst (6000 messages of 80 bytes) exceeds a worker-to-worker ring
// within one round: a worker blocked on a full ring must keep draining
// its own incoming rings.  The comments inside are those of the hub relay
// this test was first written for; the body is kept byte for byte.
TEST(ProcessSimRobust, BulkHandoffsBothWaysDoNotDeadlockTheRelay) {
  // Regression: the hub used to relay handoff frames straight to their
  // destination worker while that worker was itself still blocked sending
  // its own egress to the hub — once each direction exceeded the ring,
  // neither side could drain and the run died on the transport deadline.
  // The hub now holds a worker's inbound frames until its RoundDone.
  Engine e(tiny_process_config(2));
  // ~73 wire bytes per message: both bursts comfortably exceed the
  // 256-KB per-direction ring within a single round.
  constexpr int kBulk = 6000;
  e.set_deliver([](SimContext, HostId, const Packet&) {});
  SimContext ctx0 = e.context(0);
  SimContext ctx1 = e.context(1);
  Packet p{};
  ctx0.schedule_at(0.0, [ctx0, p] {
    for (int i = 0; i < kBulk; ++i) {
      Packet q = p;
      ctx0.deliver(1, q, 2.0);
    }
  });
  ctx1.schedule_at(0.0, [ctx1, p] {
    for (int i = 0; i < kBulk; ++i) {
      Packet q = p;
      ctx1.deliver(0, q, 2.0);
    }
  });
  EXPECT_EQ(e.run(10.0), 2u + 2u * kBulk);  // 2 burst events + deliveries
}

std::size_t open_fd_count() {
  std::size_t n = 0;
  DIR* d = ::opendir("/proc/self/fd");
  if (d == nullptr) return 0;
  while (::readdir(d) != nullptr) ++n;
  ::closedir(d);
  return n;
}

std::size_t mapping_count() {
  std::ifstream maps("/proc/self/maps");
  std::size_t n = 0;
  for (std::string line; std::getline(maps, line);) ++n;
  return n;
}

TEST(ProcessSimRobust, HundredWarmResetsLeakNothing) {
  Engine e(tiny_process_config(2));
  std::uint64_t total = 0;
  const auto run_once = [&] {
    e.set_deliver([](SimContext ctx, HostId h, const Packet& p) {
      if (p.id < 3) {  // the id counts the hops
        Packet q = p;
        q.id++;
        ctx.deliver(h == 0 ? 1 : 0, q, ctx.now() + 1.5);
      }
    });
    SimContext ctx0 = e.context(0);
    Packet p{};
    ctx0.schedule_at(0.0, [ctx0, p] { ctx0.deliver(1, p, 2.0); });
    total += e.run(20.0);
    e.reset();
    e.set_deliver({});
  };
  run_once();  // warm-up: lazy allocations (stdio, gtest) settle
  const std::size_t fds_before = open_fd_count();
  const std::size_t maps_before = mapping_count();
  ASSERT_GT(fds_before, 0u);
  ASSERT_GT(maps_before, 0u);
  for (int i = 0; i < 100; ++i) run_once();
  EXPECT_EQ(open_fd_count(), fds_before)
      << "fds leaked across 100 warm reset+run cycles";
  EXPECT_EQ(mapping_count(), maps_before)
      << "mappings leaked across 100 warm reset+run cycles";
  EXPECT_EQ(total, 101u * 5u);  // 1 seed + 4 hops per run, every run equal
  EXPECT_TRUE(no_children_left());
}

TEST(ProcessSimRobust, ResetReleasesEverythingBetweenRuns) {
  // Between runs no region or children may exist: the fd table right
  // after a run equals the table before the engine ever ran.
  const std::size_t fds_bare = open_fd_count();
  {
    Engine e(tiny_process_config(2));
    e.set_deliver([](SimContext, HostId, const Packet&) {});
    SimContext ctx0 = e.context(0);
    Packet p{};
    ctx0.schedule_at(0.0, [ctx0, p] { ctx0.deliver(1, p, 2.0); });
    e.run(10.0);
    EXPECT_EQ(open_fd_count(), fds_bare);
    e.reset();
    EXPECT_EQ(open_fd_count(), fds_bare);
  }
  EXPECT_EQ(open_fd_count(), fds_bare);
}

}  // namespace
}  // namespace emcast::sim
