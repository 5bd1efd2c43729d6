#include "sim/transport.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sched.h>
#include <sys/mman.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <ctime>
#include <limits>
#include <new>
#include <utility>

namespace emcast::sim {

const char* to_string(TransportKind kind) {
  switch (kind) {
    case TransportKind::Shm:
      return "shm";
    case TransportKind::Socket:
      return "socket";
  }
  return "?";
}

double monotonic_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

void Channel::check_blocked(double elapsed, const char* op) const {
  if (probe_) {
    const std::string dead = probe_();
    if (!dead.empty()) {
      throw TransportError(std::string("transport: peer died while ") + op +
                           ": " + dead);
    }
  }
  if (elapsed > timeout_seconds_) {
    throw TransportError(std::string("transport: ") + op + " timeout after " +
                         std::to_string(timeout_seconds_) + " s");
  }
  sched_yield();
}

void Channel::recv_frame(std::vector<std::uint8_t>& out) {
  const double start = monotonic_seconds();
  while (!try_recv_frame(out)) {
    try {
      check_blocked(monotonic_seconds() - start, "recv");
    } catch (const TransportError&) {
      // A worker sends its last frame and exits at once, so the probe can
      // report the exit after the empty poll above missed that frame.
      // What the peer wrote before exiting stays readable: poll once
      // more before giving up.
      if (try_recv_frame(out)) return;
      throw;
    }
  }
}

namespace {

std::string errno_string(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

/// Reassembles [u32 length][payload] frames from a byte stream that
/// arrives in arbitrary chunks.  `off_` defers the O(n) compaction until
/// the buffer fully drains (the common case between rounds).
class FrameAssembler {
 public:
  void append(const std::uint8_t* p, std::size_t n) {
    buf_.insert(buf_.end(), p, p + n);
  }

  bool extract(std::vector<std::uint8_t>& out) {
    const std::size_t have = buf_.size() - off_;
    if (have < 4) return false;
    std::uint32_t len = 0;
    std::memcpy(&len, buf_.data() + off_, 4);
    if (have < 4 + static_cast<std::size_t>(len)) return false;
    out.assign(buf_.begin() + static_cast<std::ptrdiff_t>(off_ + 4),
               buf_.begin() + static_cast<std::ptrdiff_t>(off_ + 4 + len));
    off_ += 4 + len;
    if (off_ == buf_.size()) {
      buf_.clear();
      off_ = 0;
    }
    return true;
  }

 private:
  std::vector<std::uint8_t> buf_;
  std::size_t off_ = 0;
};

void put_len_prefix(std::uint8_t (&prefix)[4], std::size_t n) {
  if (n > std::numeric_limits<std::uint32_t>::max()) {
    throw TransportError("transport: frame exceeds 4 GiB length prefix");
  }
  const std::uint32_t len = static_cast<std::uint32_t>(n);
  std::memcpy(prefix, &len, 4);
}

// -- shared-memory rings ----------------------------------------------------

static_assert(std::atomic<std::uint64_t>::is_always_lock_free,
              "cross-process rings need lock-free 64-bit atomics");

/// Producer/consumer cursors of one SPSC byte ring, each on its own cache
/// line (they live in shared pages; false sharing here is cross-process).
struct RingCursors {
  alignas(64) std::atomic<std::uint64_t> head{0};  ///< bytes produced
  alignas(64) std::atomic<std::uint64_t> tail{0};  ///< bytes consumed
};

/// One anonymous shared mapping holding both directions' cursors and
/// buffers.  Shared between the two Channel ends of a pair; each process
/// unmaps once its last end is destroyed.
struct ShmMapping {
  void* base = nullptr;
  std::size_t bytes = 0;
  ~ShmMapping() {
    if (base != nullptr) ::munmap(base, bytes);
  }
};

class ShmChannel final : public Channel {
 public:
  ShmChannel(std::shared_ptr<ShmMapping> map, RingCursors* tx,
             std::uint8_t* tx_buf, RingCursors* rx, std::uint8_t* rx_buf,
             std::size_t ring_bytes)
      : map_(std::move(map)),
        tx_(tx),
        tx_buf_(tx_buf),
        rx_(rx),
        rx_buf_(rx_buf),
        cap_(ring_bytes) {}

  void send_frame(const std::uint8_t* data, std::size_t n) override {
    std::uint8_t prefix[4];
    put_len_prefix(prefix, n);
    write_bytes(prefix, 4);
    write_bytes(data, n);
  }

  bool try_recv_frame(std::vector<std::uint8_t>& out) override {
    read_available();
    return assembler_.extract(out);
  }

 private:
  /// Streams `n` bytes through the ring, waiting for the consumer when it
  /// is full.  The deadline clock restarts on every chunk of progress, so
  /// a frame larger than the ring only times out when the peer stops
  /// draining, not merely because it is large.
  void write_bytes(const std::uint8_t* p, std::size_t n) {
    std::size_t done = 0;
    double blocked_since = -1.0;
    while (done < n) {
      const std::uint64_t head = tx_->head.load(std::memory_order_relaxed);
      const std::uint64_t tail = tx_->tail.load(std::memory_order_acquire);
      const std::size_t free = cap_ - static_cast<std::size_t>(head - tail);
      if (free == 0) {
        const double now = monotonic_seconds();
        if (blocked_since < 0.0) blocked_since = now;
        check_blocked(now - blocked_since, "send");
        continue;
      }
      blocked_since = -1.0;
      const std::size_t chunk = free < (n - done) ? free : (n - done);
      const std::size_t pos = static_cast<std::size_t>(head % cap_);
      const std::size_t first = chunk < (cap_ - pos) ? chunk : (cap_ - pos);
      std::memcpy(tx_buf_ + pos, p + done, first);
      std::memcpy(tx_buf_, p + done + first, chunk - first);
      tx_->head.store(head + chunk, std::memory_order_release);
      done += chunk;
    }
  }

  void read_available() {
    const std::uint64_t tail = rx_->tail.load(std::memory_order_relaxed);
    const std::uint64_t head = rx_->head.load(std::memory_order_acquire);
    const std::size_t avail = static_cast<std::size_t>(head - tail);
    if (avail == 0) return;
    const std::size_t pos = static_cast<std::size_t>(tail % cap_);
    const std::size_t first = avail < (cap_ - pos) ? avail : (cap_ - pos);
    assembler_.append(rx_buf_ + pos, first);
    assembler_.append(rx_buf_, avail - first);
    rx_->tail.store(tail + avail, std::memory_order_release);
  }

  std::shared_ptr<ShmMapping> map_;
  RingCursors* tx_;
  std::uint8_t* tx_buf_;
  RingCursors* rx_;
  std::uint8_t* rx_buf_;
  std::size_t cap_;
  FrameAssembler assembler_;
};

// -- stream sockets ---------------------------------------------------------

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    throw TransportError(errno_string("transport: fcntl(O_NONBLOCK)"));
  }
}

class SocketChannel final : public Channel {
 public:
  explicit SocketChannel(int fd) : fd_(fd) { set_nonblocking(fd_); }
  ~SocketChannel() override {
    if (fd_ >= 0) ::close(fd_);
  }

  void send_frame(const std::uint8_t* data, std::size_t n) override {
    std::uint8_t prefix[4];
    put_len_prefix(prefix, n);
    write_bytes(prefix, 4);
    write_bytes(data, n);
  }

  bool try_recv_frame(std::vector<std::uint8_t>& out) override {
    if (assembler_.extract(out)) return true;
    std::uint8_t chunk[65536];
    for (;;) {
      const ssize_t got = ::recv(fd_, chunk, sizeof chunk, 0);
      if (got > 0) {
        assembler_.append(chunk, static_cast<std::size_t>(got));
        continue;
      }
      if (got == 0) {
        eof_ = true;
        break;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      throw peer_gone(errno_string("transport: recv"));
    }
    if (assembler_.extract(out)) return true;
    if (eof_) throw peer_gone("transport: peer closed the connection");
    return false;
  }

 private:
  /// Attach the probe's cause-of-death to a connection failure: "peer
  /// closed" alone hides WHY (a SIGKILLed worker closes its fds too).
  TransportError peer_gone(const std::string& base) const {
    if (probe_) {
      const std::string dead = probe_();
      if (!dead.empty()) return TransportError(base + " (" + dead + ")");
    }
    return TransportError(base);
  }

  void write_bytes(const std::uint8_t* p, std::size_t n) {
    std::size_t done = 0;
    double blocked_since = -1.0;
    while (done < n) {
      const ssize_t sent = ::send(fd_, p + done, n - done, MSG_NOSIGNAL);
      if (sent > 0) {
        done += static_cast<std::size_t>(sent);
        blocked_since = -1.0;
        continue;
      }
      if (sent < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        const double now = monotonic_seconds();
        if (blocked_since < 0.0) blocked_since = now;
        check_blocked(now - blocked_since, "send");
        continue;
      }
      if (sent < 0 && errno == EINTR) continue;
      throw peer_gone(errno_string("transport: send"));
    }
  }

  int fd_ = -1;
  bool eof_ = false;
  FrameAssembler assembler_;
};

}  // namespace

ChannelPair make_shm_pair(std::size_t ring_bytes) {
  if (ring_bytes == 0) {
    throw TransportError("transport: shm ring capacity must be > 0");
  }
  const std::size_t meta = 2 * sizeof(RingCursors);
  const std::size_t total = meta + 2 * ring_bytes;
  void* base = ::mmap(nullptr, total, PROT_READ | PROT_WRITE,
                      MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  if (base == MAP_FAILED) {
    throw TransportError(errno_string("transport: mmap(MAP_SHARED)"));
  }
  auto map = std::make_shared<ShmMapping>();
  map->base = base;
  map->bytes = total;

  auto* cursors = static_cast<RingCursors*>(base);
  RingCursors* a = new (&cursors[0]) RingCursors();  // hub -> worker
  RingCursors* b = new (&cursors[1]) RingCursors();  // worker -> hub
  auto* bufs = static_cast<std::uint8_t*>(base) + meta;
  std::uint8_t* buf_a = bufs;
  std::uint8_t* buf_b = bufs + ring_bytes;

  ChannelPair pair;
  pair.hub_end =
      std::make_unique<ShmChannel>(map, a, buf_a, b, buf_b, ring_bytes);
  pair.worker_end =
      std::make_unique<ShmChannel>(map, b, buf_b, a, buf_a, ring_bytes);
  return pair;
}

ChannelPair make_socket_pair() {
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
    throw TransportError(errno_string("transport: socketpair"));
  }
  ChannelPair pair;
  pair.hub_end = std::make_unique<SocketChannel>(fds[0]);
  pair.worker_end = std::make_unique<SocketChannel>(fds[1]);
  return pair;
}

ListenResult socket_listen_accept(std::uint16_t port, double timeout_seconds) {
  const int lfd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (lfd < 0) throw TransportError(errno_string("transport: socket"));
  const int one = 1;
  ::setsockopt(lfd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_ANY);
  addr.sin_port = htons(port);
  if (::bind(lfd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(lfd, 1) != 0) {
    const std::string err = errno_string("transport: bind/listen");
    ::close(lfd);
    throw TransportError(err);
  }
  socklen_t len = sizeof addr;
  ::getsockname(lfd, reinterpret_cast<sockaddr*>(&addr), &len);

  pollfd pfd{lfd, POLLIN, 0};
  const double start = monotonic_seconds();
  for (;;) {
    const double left = timeout_seconds - (monotonic_seconds() - start);
    if (left <= 0.0) {
      ::close(lfd);
      throw TransportError("transport: accept timeout after " +
                           std::to_string(timeout_seconds) + " s");
    }
    const int ms = left > 100.0 ? 100000 : static_cast<int>(left * 1000.0) + 1;
    const int ready = ::poll(&pfd, 1, ms);
    if (ready < 0 && errno != EINTR) {
      const std::string err = errno_string("transport: poll(accept)");
      ::close(lfd);
      throw TransportError(err);
    }
    if (ready > 0) break;
  }
  const int fd = ::accept(lfd, nullptr, nullptr);
  ::close(lfd);
  if (fd < 0) throw TransportError(errno_string("transport: accept"));

  ListenResult result;
  result.channel = std::make_unique<SocketChannel>(fd);
  result.bound_port = ntohs(addr.sin_port);
  return result;
}

std::unique_ptr<Channel> socket_connect(const std::string& host,
                                        std::uint16_t port,
                                        double timeout_seconds) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw TransportError(errno_string("transport: socket"));
  set_nonblocking(fd);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    throw TransportError("transport: bad address \"" + host + "\"");
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 &&
      errno != EINPROGRESS) {
    const std::string err = errno_string("transport: connect");
    ::close(fd);
    throw TransportError(err);
  }

  pollfd pfd{fd, POLLOUT, 0};
  const double start = monotonic_seconds();
  for (;;) {
    const double left = timeout_seconds - (monotonic_seconds() - start);
    if (left <= 0.0) {
      ::close(fd);
      throw TransportError("transport: connect timeout after " +
                           std::to_string(timeout_seconds) + " s");
    }
    const int ms = left > 100.0 ? 100000 : static_cast<int>(left * 1000.0) + 1;
    const int ready = ::poll(&pfd, 1, ms);
    if (ready < 0 && errno != EINTR) {
      const std::string err = errno_string("transport: poll(connect)");
      ::close(fd);
      throw TransportError(err);
    }
    if (ready > 0) break;
  }
  int soerr = 0;
  socklen_t slen = sizeof soerr;
  ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &soerr, &slen);
  if (soerr != 0) {
    ::close(fd);
    throw TransportError("transport: connect to " + host + ":" +
                         std::to_string(port) +
                         " failed: " + std::strerror(soerr));
  }
  return std::make_unique<SocketChannel>(fd);
}

}  // namespace emcast::sim
