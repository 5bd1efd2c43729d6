#pragma once
// Shared-memory byte transport of the process backend
// (sim/process_backend.hpp): a MAP_SHARED region mapped before fork(),
// single-producer single-consumer byte rings placed in it, frame
// reassembly in the reader's private memory, and the four frames that
// worker processes write.
//
// On a ring a frame is [u32 length][payload]; the payload is a tag byte
// plus util::ByteWriter fields, read back with the bounds-checked
// util::ByteReader.  Frames may exceed a ring: the writer streams the
// bytes as the reader frees space, and the reader reassembles them, so a
// multi-megabyte result blob moves through a 256-KB ring.
//
// Nothing here watches a clock.  A writer facing a full ring runs the
// caller's idle step, then yields; deciding that a run has stalled is the
// process backend parent's job.  A region unmaps when its SharedRegion is
// destroyed, in each process that holds a copy, so a finished run leaves
// no mapping behind.

#include <atomic>
#include <cstdint>
#include <functional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "sim/mailbox.hpp"

namespace emcast::sim {

/// The process backend's transport.  Shared memory is the only one; the
/// enum stays so that configurations naming it keep building.
enum class TransportKind { Shm };

/// A malformed frame, or a transport resource the OS refused.
class TransportError : public std::runtime_error {
 public:
  explicit TransportError(const std::string& what)
      : std::runtime_error(what) {}
};

/// An anonymous MAP_SHARED mapping, zero-filled.  Map it before fork():
/// parent and children then address the same pages at the same address.
class SharedRegion {
 public:
  explicit SharedRegion(std::size_t bytes);
  ~SharedRegion();
  SharedRegion(const SharedRegion&) = delete;
  SharedRegion& operator=(const SharedRegion&) = delete;

  std::uint8_t* data() const { return base_; }

 private:
  std::uint8_t* base_ = nullptr;
  std::size_t bytes_ = 0;
};

/// A single-producer single-consumer byte ring placed in a SharedRegion;
/// producer and consumer may be different processes.
class ShmRing {
 public:
  static constexpr std::size_t kDefaultCapacity = std::size_t{1} << 18;

  /// Region bytes a ring of `capacity` bytes occupies (a multiple of 64).
  static std::size_t footprint(std::size_t capacity);
  /// Build an empty ring of `capacity` (> 0) bytes at `at`, which must be
  /// 64-byte aligned with footprint(capacity) bytes behind it.
  static ShmRing* create(void* at, std::size_t capacity);

  ShmRing(const ShmRing&) = delete;
  ShmRing& operator=(const ShmRing&) = delete;

  /// Producer: write one frame, streaming it through as the consumer
  /// frees space.  Each time the ring is full, `idle` (when set) runs
  /// before a yield.
  void write_frame(std::span<const std::uint8_t> payload,
                   const std::function<void()>& idle = {});

  /// Consumer: append every byte written so far to `out`; returns how
  /// many moved.
  std::size_t read_into(std::vector<std::uint8_t>& out);

 private:
  explicit ShmRing(std::size_t capacity) : cap_(capacity) {}
  std::uint8_t* bytes() { return reinterpret_cast<std::uint8_t*>(this + 1); }
  void write_bytes(const std::uint8_t* p, std::size_t n,
                   const std::function<void()>& idle);

  // Cursors on their own cache lines: the two sides live in different
  // processes, so false sharing here crosses processes.
  alignas(64) std::atomic<std::uint64_t> head_{0};  ///< bytes produced
  alignas(64) std::atomic<std::uint64_t> tail_{0};  ///< bytes consumed
  alignas(64) const std::size_t cap_;
};

/// The reading end of a ShmRing, in the reader's private memory: pump()
/// moves bytes out of the ring, so its writer can go on, and next() hands
/// back complete frames.
class RingReader {
 public:
  explicit RingReader(ShmRing* ring) : ring_(ring) {}

  /// Move everything written so far out of the ring; true when any byte
  /// moved.
  bool pump();

  /// Take the next complete frame's payload, valid until the next pump();
  /// false when no complete frame is buffered.
  bool next(std::span<const std::uint8_t>& payload);

  /// True when no byte of a frame is left buffered.
  bool empty() const { return off_ == buf_.size(); }

 private:
  ShmRing* ring_;
  std::vector<std::uint8_t> buf_;
  std::size_t off_ = 0;  ///< start of the first frame not yet taken
};

// -- frames ---------------------------------------------------------------

/// The first payload byte of every frame.
enum class FrameTag : std::uint8_t {
  kHandoff = 1,  ///< worker -> worker: cross-shard messages for one shard
  kResult = 2,   ///< worker -> parent: one shard's model result blob
  kBye = 3,      ///< worker -> parent: telemetry, the worker is done
  kError = 4,    ///< worker -> parent: the model exception's what()
};

/// The telemetry of a worker's bye frame.
struct ByeCounts {
  std::uint64_t rounds = 0;  ///< counted by worker 0 only
  std::uint64_t events = 0;
  std::uint64_t posted = 0;
  std::uint64_t spilled = 0;
};

// Each put_* appends one frame payload to `out`.  Handoffs cross as the
// bytes of CrossShardMsg: it is trivially copyable, and both ends run one
// binary after fork().
void put_handoff(std::vector<std::uint8_t>& out, std::uint32_t dest_shard,
                 std::span<const CrossShardMsg> msgs);
void put_result(std::vector<std::uint8_t>& out, std::uint32_t shard,
                std::span<const std::uint8_t> blob);
void put_bye(std::vector<std::uint8_t>& out, const ByeCounts& counts);
void put_error(std::vector<std::uint8_t>& out, std::string_view what);

/// A decoded frame; reuse one across decodes to keep its vectors warm.
struct Frame {
  FrameTag tag = FrameTag::kHandoff;
  std::uint32_t shard = 0;            ///< handoff: destination; result: source
  std::vector<CrossShardMsg> msgs;    ///< handoff
  std::vector<std::uint8_t> bytes;    ///< result blob, or error text
  ByeCounts bye;                      ///< bye
};

/// Decode one frame payload into `out`.  Throws TransportError on an
/// unknown tag, a truncated body, a count larger than the bytes behind it
/// (checked before anything is reserved) or trailing bytes.
void decode_frame(std::span<const std::uint8_t> payload, Frame& out);

}  // namespace emcast::sim
