#include "sim/transport.hpp"

#include <sched.h>
#include <sys/mman.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <limits>
#include <new>

#include "util/bytes.hpp"

namespace emcast::sim {

SharedRegion::SharedRegion(std::size_t bytes) : bytes_(bytes) {
  void* base = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                      MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  if (base == MAP_FAILED) {
    throw TransportError(std::string("transport: mmap(MAP_SHARED): ") +
                         std::strerror(errno));
  }
  base_ = static_cast<std::uint8_t*>(base);
}

SharedRegion::~SharedRegion() { ::munmap(base_, bytes_); }

// -- rings ------------------------------------------------------------------

static_assert(std::atomic<std::uint64_t>::is_always_lock_free,
              "cross-process rings need address-free 64-bit atomics");
static_assert(sizeof(ShmRing) % 64 == 0);

std::size_t ShmRing::footprint(std::size_t capacity) {
  return sizeof(ShmRing) + (capacity + 63) / 64 * 64;
}

ShmRing* ShmRing::create(void* at, std::size_t capacity) {
  if (capacity == 0) {
    throw TransportError("transport: ring capacity must be > 0");
  }
  return new (at) ShmRing(capacity);
}

void ShmRing::write_frame(std::span<const std::uint8_t> payload,
                          const std::function<void()>& idle) {
  if (payload.size() > std::numeric_limits<std::uint32_t>::max()) {
    throw TransportError("transport: frame exceeds the 4 GiB length prefix");
  }
  const auto len = static_cast<std::uint32_t>(payload.size());
  std::uint8_t prefix[sizeof len];
  std::memcpy(prefix, &len, sizeof len);
  write_bytes(prefix, sizeof prefix, idle);
  write_bytes(payload.data(), payload.size(), idle);
}

void ShmRing::write_bytes(const std::uint8_t* p, std::size_t n,
                          const std::function<void()>& idle) {
  std::size_t done = 0;
  while (done < n) {
    const std::uint64_t head = head_.load(std::memory_order_relaxed);
    const std::uint64_t tail = tail_.load(std::memory_order_acquire);
    const std::size_t free = cap_ - static_cast<std::size_t>(head - tail);
    if (free == 0) {
      if (idle) idle();
      sched_yield();
      continue;
    }
    const std::size_t chunk = std::min(free, n - done);
    const std::size_t pos = static_cast<std::size_t>(head % cap_);
    const std::size_t first = std::min(chunk, cap_ - pos);
    std::memcpy(bytes() + pos, p + done, first);
    std::memcpy(bytes(), p + done + first, chunk - first);
    head_.store(head + chunk, std::memory_order_release);
    done += chunk;
  }
}

std::size_t ShmRing::read_into(std::vector<std::uint8_t>& out) {
  const std::uint64_t tail = tail_.load(std::memory_order_relaxed);
  const std::uint64_t head = head_.load(std::memory_order_acquire);
  const std::size_t avail = static_cast<std::size_t>(head - tail);
  if (avail == 0) return 0;
  const std::size_t pos = static_cast<std::size_t>(tail % cap_);
  const std::size_t first = std::min(avail, cap_ - pos);
  out.insert(out.end(), bytes() + pos, bytes() + pos + first);
  out.insert(out.end(), bytes(), bytes() + (avail - first));
  tail_.store(tail + avail, std::memory_order_release);
  return avail;
}

bool RingReader::pump() {
  if (off_ > 0) {  // drop the frames already taken
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(off_));
    off_ = 0;
  }
  return ring_->read_into(buf_) != 0;
}

bool RingReader::next(std::span<const std::uint8_t>& payload) {
  std::uint32_t len = 0;
  const std::size_t have = buf_.size() - off_;
  if (have < sizeof len) return false;
  std::memcpy(&len, buf_.data() + off_, sizeof len);
  if (have - sizeof len < len) return false;
  payload = {buf_.data() + off_ + sizeof len, len};
  off_ += sizeof len + len;
  return true;
}

// -- frames -------------------------------------------------------------------

namespace {

/// Guard a count read from a frame against the bytes behind it BEFORE
/// reserving memory for it: a corrupt count must throw, not allocate.
void check_count(const util::ByteReader& r, std::uint64_t count,
                 std::size_t elem_bytes) {
  if (count > r.remaining() / elem_bytes) {
    throw TransportError("transport: frame count exceeds its payload");
  }
}

void read_bytes(util::ByteReader& r, std::vector<std::uint8_t>& out) {
  const std::uint64_t size = r.u64();
  check_count(r, size, 1);
  out.resize(size);
  if (size != 0) r.bytes(out.data(), size);
}

}  // namespace

void put_handoff(std::vector<std::uint8_t>& out, std::uint32_t dest_shard,
                 std::span<const CrossShardMsg> msgs) {
  util::ByteWriter w(out);
  w.u8(static_cast<std::uint8_t>(FrameTag::kHandoff));
  w.u32(dest_shard);
  w.u64(msgs.size());
  w.bytes(msgs.data(), msgs.size_bytes());
}

void put_result(std::vector<std::uint8_t>& out, std::uint32_t shard,
                std::span<const std::uint8_t> blob) {
  util::ByteWriter w(out);
  w.u8(static_cast<std::uint8_t>(FrameTag::kResult));
  w.u32(shard);
  w.u64(blob.size());
  w.bytes(blob.data(), blob.size());
}

void put_bye(std::vector<std::uint8_t>& out, const ByeCounts& counts) {
  util::ByteWriter w(out);
  w.u8(static_cast<std::uint8_t>(FrameTag::kBye));
  w.u64(counts.rounds);
  w.u64(counts.events);
  w.u64(counts.posted);
}

void put_error(std::vector<std::uint8_t>& out, std::string_view what) {
  util::ByteWriter w(out);
  w.u8(static_cast<std::uint8_t>(FrameTag::kError));
  w.u64(what.size());
  w.bytes(what.data(), what.size());
}

void decode_frame(std::span<const std::uint8_t> payload, Frame& out) {
  util::ByteReader r(payload.data(), payload.size());
  try {
    const std::uint8_t tag = r.u8();
    switch (static_cast<FrameTag>(tag)) {
      case FrameTag::kHandoff: {
        out.shard = r.u32();
        const std::uint64_t count = r.u64();
        check_count(r, count, sizeof(CrossShardMsg));
        out.msgs.resize(count);
        if (count != 0) {
          r.bytes(out.msgs.data(), count * sizeof(CrossShardMsg));
        }
        break;
      }
      case FrameTag::kResult:
        out.shard = r.u32();
        read_bytes(r, out.bytes);
        break;
      case FrameTag::kBye:
        out.bye.rounds = r.u64();
        out.bye.events = r.u64();
        out.bye.posted = r.u64();
        break;
      case FrameTag::kError:
        read_bytes(r, out.bytes);
        break;
      default:
        throw TransportError("transport: unknown frame tag " +
                             std::to_string(tag));
    }
    out.tag = static_cast<FrameTag>(tag);
  } catch (const util::ByteRangeError&) {
    throw TransportError("transport: truncated frame");
  }
  if (!r.done()) throw TransportError("transport: trailing bytes in frame");
}

}  // namespace emcast::sim
