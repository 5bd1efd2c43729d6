#pragma once
// Cross-shard staging mailbox of the sharded simulator.  One mailbox per
// ordered (source shard, destination shard) pair: the source's worker
// thread is the only producer, the destination's worker the only
// consumer, so the fast path is a lock-free SPSC ring.  Messages are
// *staged* during a window and drained only at window barriers, which is
// what makes the ring's fixed capacity safe to overflow into a
// producer-private spill vector: between the end-of-window barrier and
// the next window, producers are provably quiescent, so the consumer may
// read the spill without synchronisation beyond the barrier edge itself.
//
// Ordering.  post() stamps each message with a per-mailbox sequence
// number; the drain phase merges all of a shard's incoming mailboxes and
// sorts by (deliver_at, source shard, seq) before scheduling, so the
// local schedule order — and with it the (time, seq) fire order of the
// destination shard — is a pure function of the model, not of thread
// timing or mailbox capacity.

#include <cstdint>
#include <vector>

#include "sim/packet.hpp"
#include "util/spsc_ring.hpp"
#include "util/types.hpp"

namespace emcast::sim {

/// A packet handed from one shard to another, arriving at `deliver_at`
/// (>= the posting window's end — the conservative lookahead contract).
struct CrossShardMsg {
  Packet packet;
  Time deliver_at = 0;
  std::uint64_t seq = 0;          ///< per-mailbox post order
  std::uint32_t source_shard = 0;
  std::int32_t dest_host = -1;    ///< model routing key (host index)
};
static_assert(std::is_trivially_copyable_v<CrossShardMsg>);

/// Deterministic drain order: (deliver_at, source shard, seq).  Times are
/// compared through their order-preserving integer image, exactly like
/// the pending-set policies, so drains agree bit-for-bit with event
/// ordering.
bool msg_before(const CrossShardMsg& a, const CrossShardMsg& b);

class ShardMailbox {
 public:
  ShardMailbox() = default;
  ShardMailbox(const ShardMailbox&) = delete;
  ShardMailbox& operator=(const ShardMailbox&) = delete;

  /// Size the ring and pre-warm the spill arena.  Call before the shard
  /// workers start (not thread-safe).
  void init(std::uint32_t source_shard, std::size_t ring_capacity);

  /// Producer (source shard's worker, during its window): stage a packet.
  /// A full ring spills — allocation-free once the spill vector has grown
  /// past the high-water mark of any earlier window.
  void post(const Packet& p, std::int32_t dest_host, Time deliver_at);

  /// Consumer (destination shard's worker, at a window barrier): append
  /// every staged message to `out` and leave the mailbox empty.  Must
  /// only run while producers are quiescent (between windows).
  void drain_into(std::vector<CrossShardMsg>& out);

  /// Consumer-side injection (process backend): append a message that a
  /// REMOTE worker process's copy of this mailbox already stamped — seq,
  /// source shard and the posted/spilled telemetry all belong to the
  /// producer's copy, so none are touched here.  The worker injects what
  /// its incoming shared-memory rings carried after the exchange barrier;
  /// the next drain merges injected messages into the same
  /// (deliver_at, source shard, seq) sort as native ones, which is
  /// exactly why cross-process handoffs land in the identical order the
  /// threaded backend produces.  Only legal between windows.
  void inject(const CrossShardMsg& m) { spill_.push_back(m); }

  /// Rewind for a new run: empty the ring and spill arenas WITHOUT
  /// releasing them and restart the per-mailbox sequence and telemetry
  /// counters.  NOT thread-safe — call only between runs, with every
  /// worker quiescent.  Never allocates.
  void reset();

  std::uint64_t posted() const { return posted_; }
  std::uint64_t spilled() const { return spilled_; }

  /// Arena introspection for the zero-allocation steady-state proofs.
  const void* ring_buffer() const { return ring_.buffer(); }
  std::size_t spill_capacity() const { return spill_.capacity(); }

 private:
  util::SpscRing<CrossShardMsg> ring_;
  std::vector<CrossShardMsg> spill_;  ///< producer-owned between barriers
  std::uint64_t next_seq_ = 0;        ///< producer-side post counter
  std::uint64_t posted_ = 0;
  std::uint64_t spilled_ = 0;
  std::uint32_t source_shard_ = 0;
};

}  // namespace emcast::sim
