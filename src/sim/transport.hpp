#pragma once
// Byte transport of the process-per-shard backend: a frame-oriented duplex
// Channel between the hub (parent) process and one worker process.  Two
// implementations behind one interface:
//
//   shared memory  — a pair of lock-free SPSC byte rings in one
//                    MAP_SHARED | MAP_ANONYMOUS mapping created BEFORE
//                    fork(), so both processes address the same pages.
//                    The local (same-host) fast path: no syscalls per
//                    frame, spin-plus-yield waits.
//   sockets        — length-prefixed frames over an AF_UNIX socketpair
//                    created before fork(), so it too links a hub and its
//                    workers on one host.
//
// Framing is identical on both: [u32 length][payload bytes], payload
// being one complete wire-codec frame (sim/wire_codec.hpp).  Frames may
// exceed the ring/socket buffer: send() streams the bytes as space frees
// and try_recv_frame() reassembles across reads, so a 10-MB handoff batch
// moves through a 256-KB ring correctly (just with more wakeups).
//
// Failure semantics — the part the robustness tests pin:
//   - every blocking operation (send against a full ring/socket,
//     recv_frame) carries a deadline; exceeding it throws TransportError
//     ("timeout after N s"), never hangs;
//   - an installed peer probe (waitpid on the hub side, parent-pid watch
//     on the worker side) is polled while waiting: a dead peer turns the
//     wait into an immediate TransportError carrying the probe's
//     diagnostic (exit status / signal), which is how a killed worker
//     mid-window surfaces as a clean abort instead of a hang;
//   - a closed/reset socket (EOF, EPIPE, ECONNRESET) is a TransportError
//     at the next operation.
//
// Channels own their OS resources (fds, mappings) and release them in the
// destructor — the no-fd/shm-leak-across-resets regression test counts on
// exactly that.

#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

namespace emcast::sim {

/// Transport selection for the process backend (EngineConfig::transport).
enum class TransportKind {
  Shm,     ///< shared-memory rings (same host; the default)
  Socket,  ///< stream-socket frames over an AF_UNIX socketpair (same host)
};

const char* to_string(TransportKind kind);

class TransportError : public std::runtime_error {
 public:
  explicit TransportError(const std::string& what)
      : std::runtime_error(what) {}
};

/// One duplex frame channel between two processes.  NOT thread-safe: one
/// thread per direction per end (the process backend is single-threaded
/// in each process, so one thread total per end).
class Channel {
 public:
  virtual ~Channel() = default;
  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  /// Deadline for every blocking operation (default 30 s).
  void set_timeout(double seconds) { timeout_seconds_ = seconds; }
  double timeout() const { return timeout_seconds_; }

  /// Liveness probe polled while blocked: return "" while the peer lives,
  /// or a human-readable cause of death ("killed by signal 9") to fail
  /// the wait immediately with that diagnostic.
  void set_peer_probe(std::function<std::string()> probe) {
    probe_ = std::move(probe);
  }

  /// Send one frame (length prefix + payload).  Blocks while the pipe is
  /// full; TransportError on deadline or peer death.
  virtual void send_frame(const std::uint8_t* data, std::size_t n) = 0;
  void send_frame(const std::vector<std::uint8_t>& buf) {
    send_frame(buf.data(), buf.size());
  }

  /// Non-blocking poll: complete frame available -> fill `out`, true.
  /// Partial bytes are buffered internally across calls.
  virtual bool try_recv_frame(std::vector<std::uint8_t>& out) = 0;

  /// Blocking receive with the channel deadline; TransportError on
  /// timeout, EOF or peer death.
  void recv_frame(std::vector<std::uint8_t>& out);

 protected:
  Channel() = default;
  /// One bounded wait step while blocked (yield or poll); throws on a
  /// dead peer.  `elapsed` is seconds since the operation started.
  void check_blocked(double elapsed, const char* op) const;

  std::function<std::string()> probe_;
  double timeout_seconds_ = 30.0;
};

/// Monotonic seconds (CLOCK_MONOTONIC) — deadline bookkeeping.
double monotonic_seconds();

/// Both ends of a freshly created channel.  After fork(), each process
/// keeps exactly one end and destroys the other.
struct ChannelPair {
  std::unique_ptr<Channel> hub_end;
  std::unique_ptr<Channel> worker_end;
};

/// Shared-memory pair: MUST be created before fork() (the mapping is
/// inherited; a pair created after fork would not be shared).
/// `ring_bytes` is the per-direction ring capacity.
ChannelPair make_shm_pair(std::size_t ring_bytes = 1u << 18);

/// AF_UNIX socketpair: like the shm pair, create it before fork().
ChannelPair make_socket_pair();

}  // namespace emcast::sim
