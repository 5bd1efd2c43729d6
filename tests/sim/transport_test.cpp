// Transport and process-backend robustness: the failure paths the
// distributed backend must turn into clean diagnostics instead of hangs
// or leaks.
//
//   - framing over both transports, including frames larger than the shm
//     ring (streamed through in chunks and reassembled);
//   - blocked operations observe the deadline and the peer probe;
//   - accept/connect failure paths of the TCP listener;
//   - a worker process killed mid-window surfaces as a thrown
//     runtime_error naming the signal — never a hang;
//   - 100 warm reset+run cycles on the process engine leave the fd table
//     exactly as they found it (channels and children are run()-scoped).
//
// Suite names stay outside the ShardedSim*/SpscRing* concurrency filter:
// these tests fork, and fork+TSan is not a supported combination.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <dirent.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "sim/context.hpp"
#include "sim/transport.hpp"

namespace emcast::sim {
namespace {

std::vector<std::uint8_t> pattern_frame(std::size_t n, std::uint8_t seed) {
  std::vector<std::uint8_t> f(n);
  for (std::size_t i = 0; i < n; ++i) {
    f[i] = static_cast<std::uint8_t>(seed + i * 131);
  }
  return f;
}

void exercise_pair(ChannelPair pair) {
  // Ping-pong small frames, then a frame far larger than any ring, then
  // an empty frame — all must arrive intact and in order.
  const auto big = pattern_frame(1u << 20, 7);
  std::thread peer([&] {
    std::vector<std::uint8_t> buf;
    pair.worker_end->recv_frame(buf);
    EXPECT_EQ(buf, pattern_frame(100, 3));
    pair.worker_end->send_frame(pattern_frame(200, 5));
    pair.worker_end->recv_frame(buf);
    EXPECT_EQ(buf.size(), big.size());
    EXPECT_EQ(buf, big);
    pair.worker_end->send_frame(std::vector<std::uint8_t>{});
  });
  std::vector<std::uint8_t> buf;
  pair.hub_end->send_frame(pattern_frame(100, 3));
  pair.hub_end->recv_frame(buf);
  EXPECT_EQ(buf, pattern_frame(200, 5));
  pair.hub_end->send_frame(big);
  pair.hub_end->recv_frame(buf);
  EXPECT_TRUE(buf.empty());
  peer.join();
}

TEST(TransportShm, FramesSurviveIncludingLargerThanRing) {
  exercise_pair(make_shm_pair(/*ring_bytes=*/4096));
}

TEST(TransportSocket, FramesSurvive) { exercise_pair(make_socket_pair()); }

TEST(TransportShm, BlockedRecvObservesDeadline) {
  ChannelPair pair = make_shm_pair(4096);
  pair.hub_end->set_timeout(0.2);
  std::vector<std::uint8_t> buf;
  try {
    pair.hub_end->recv_frame(buf);
    FAIL() << "recv with no sender must time out";
  } catch (const TransportError& e) {
    EXPECT_NE(std::string(e.what()).find("timeout"), std::string::npos)
        << e.what();
  }
}

TEST(TransportShm, BlockedRecvObservesPeerProbe) {
  ChannelPair pair = make_shm_pair(4096);
  pair.hub_end->set_timeout(30.0);
  pair.hub_end->set_peer_probe([] { return std::string("peer gone (test)"); });
  std::vector<std::uint8_t> buf;
  try {
    pair.hub_end->recv_frame(buf);
    FAIL() << "probe-reported death must abort the recv";
  } catch (const TransportError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("peer died"), std::string::npos) << what;
    EXPECT_NE(what.find("peer gone (test)"), std::string::npos) << what;
  }
}

TEST(TransportShm, FrameSentJustBeforePeerExitIsDelivered) {
  // A worker sends its Bye frame and exits at once: the hub's empty poll
  // can run before the frame lands and its probe after the exit.  The
  // probe below plays that peer, so the frame arrives between the two.
  ChannelPair pair = make_shm_pair(4096);
  Channel* peer = pair.worker_end.get();
  pair.hub_end->set_timeout(30.0);
  pair.hub_end->set_peer_probe([peer] {
    peer->send_frame(pattern_frame(10, 7));
    return std::string("worker 0 exited with status 0 mid-protocol");
  });
  std::vector<std::uint8_t> buf;
  pair.hub_end->recv_frame(buf);
  EXPECT_EQ(buf, pattern_frame(10, 7));
}

TEST(TransportSocket, PeerCloseSurfacesAsError) {
  ChannelPair pair = make_socket_pair();
  pair.worker_end->send_frame(pattern_frame(10, 1));
  pair.worker_end.reset();  // close the peer end
  std::vector<std::uint8_t> buf;
  // The frame written before the close is still readable...
  pair.hub_end->recv_frame(buf);
  EXPECT_EQ(buf, pattern_frame(10, 1));
  // ...the next read hits EOF and must throw, not hang or return junk.
  EXPECT_THROW(pair.hub_end->recv_frame(buf), TransportError);
}

TEST(TransportSocket, AcceptTimesOutCleanly) {
  try {
    socket_listen_accept(/*port=*/0, /*timeout_seconds=*/0.2);
    FAIL() << "accept with no connector must time out";
  } catch (const TransportError& e) {
    EXPECT_NE(std::string(e.what()).find("accept timeout"), std::string::npos)
        << e.what();
  }
}

TEST(TransportSocket, ConnectToDeadPortFailsCleanly) {
  // Reserve an ephemeral port, then close it: the subsequent connect is
  // refused (or, on exotic network namespaces, times out) — either way a
  // TransportError, never a hang.
  const int probe = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(probe, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(probe, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
  socklen_t len = sizeof addr;
  ASSERT_EQ(::getsockname(probe, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  const std::uint16_t port = ntohs(addr.sin_port);
  ::close(probe);
  EXPECT_THROW(socket_connect("127.0.0.1", port, 1.0), TransportError);
}

TEST(TransportSocket, ListenAcceptConnectRoundTrip) {
  // The cross-host path: a fixed port (as a real multi-host launch would
  // configure), the listener on a thread, the connector retrying until
  // the listener's bind wins the race.
  const std::uint16_t port = 45917;
  std::thread server([&] {
    ListenResult lr = socket_listen_accept(port, 5.0);
    EXPECT_EQ(lr.bound_port, port);
    std::vector<std::uint8_t> buf;
    lr.channel->recv_frame(buf);
    lr.channel->send_frame(buf);  // echo
  });
  std::unique_ptr<Channel> client;
  for (int attempt = 0;; ++attempt) {
    try {
      client = socket_connect("127.0.0.1", port, 1.0);
      break;
    } catch (const TransportError&) {
      ASSERT_LT(attempt, 200) << "listener never came up";
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  client->send_frame(pattern_frame(64, 9));
  std::vector<std::uint8_t> buf;
  client->recv_frame(buf);
  EXPECT_EQ(buf, pattern_frame(64, 9));
  server.join();
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

TEST(ProcessSimRobust, KilledWorkerSurfacesAsDiagnosticNotHang) {
  Engine e(tiny_process_config(2));
  const pid_t hub = ::getpid();
  e.set_deliver([hub](SimContext ctx, HostId h, const Packet& p) {
    // Simulate a mid-run SIGKILL: the worker owning shard 1 dies without
    // a word at t >= 3.  Deliver handlers only ever run in workers (the
    // hub executes nothing), so the pid check is pure paranoia.
    if (h == 1 && ctx.now() >= 3.0 && ::getpid() != hub) {
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
    EXPECT_NE(what.find("signal"), std::string::npos)
        << "diagnostic should name the wait status: " << what;
  }
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
}

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

TEST(ProcessSimRobust, HundredWarmResetsLeakNothing) {
  for (const TransportKind tk : {TransportKind::Shm, TransportKind::Socket}) {
    EngineConfig c = tiny_process_config(2);
    c.transport = tk;
    Engine e(c);
    std::uint64_t total = 0;
    const auto run_once = [&] {
      e.set_deliver([](SimContext ctx, HostId h, const Packet& p) {
        if (p.hops < 3) {
          Packet q = p;
          q.hops++;
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
    ASSERT_GT(fds_before, 0u);
    for (int i = 0; i < 100; ++i) run_once();
    EXPECT_EQ(open_fd_count(), fds_before)
        << to_string(tk) << ": fds leaked across 100 warm reset+run cycles";
    EXPECT_EQ(total, 101u * 5u);  // 1 seed + 4 hops per run, every run equal
  }
}

TEST(ProcessSimRobust, ResetReleasesEverythingBetweenRuns) {
  // Between runs no channels or children may exist: the fd table right
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
