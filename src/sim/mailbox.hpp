#pragma once
// Cross-shard staging mailbox of the rounds engines.  One mailbox per
// ordered (source shard, destination shard) pair: one vector that the
// source's worker appends to during a window and the destination's worker
// empties at the next drain.  Producer and consumer never touch it at the
// same time — posts happen inside windows, drains between them, and the
// round barriers that separate the two phases order every access — so
// the mailbox needs no synchronisation of its own.
//
// Ordering.  post() stamps each message with a per-mailbox sequence
// number; the drain phase merges all of a shard's incoming mailboxes and
// sorts by (deliver_at, source shard, seq) before scheduling, so the
// local schedule order — and with it the (time, seq) fire order of the
// destination shard — is a pure function of the model, not of thread
// timing.

#include <cstdint>
#include <span>
#include <vector>

#include "sim/packet.hpp"
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
  /// A mailbox whose posts are stamped with `source_shard`.
  explicit ShardMailbox(std::uint32_t source_shard)
      : source_shard_(source_shard) {}
  ShardMailbox(const ShardMailbox&) = delete;
  ShardMailbox& operator=(const ShardMailbox&) = delete;

  /// Producer (source shard's worker, during its window): stamp the next
  /// sequence number and stage the packet.  Allocation-free once the
  /// staging vector has grown past every earlier window's high-water mark.
  void post(const Packet& p, std::int32_t dest_host, Time deliver_at);

  /// Consumer-side injection (process backend): append a message that a
  /// REMOTE worker process's copy of this mailbox already stamped — seq,
  /// source shard and the posted count belong to the producer's copy, so
  /// none are touched here.  The worker injects what its incoming
  /// shared-memory rings carried after the exchange barrier; the next
  /// drain merges injected messages into the same
  /// (deliver_at, source shard, seq) sort as native ones, which is
  /// exactly why cross-process handoffs land in the identical order the
  /// threaded backend produces.  Only legal between windows.
  void inject(const CrossShardMsg& m) { staged_.push_back(m); }

  /// The messages staged since the last clear(), in post order.  A drain
  /// (the destination shard's worker, at a window barrier, or the process
  /// backend's egress) reads them and then clears; it must only run while
  /// producers are quiescent (between windows).
  std::span<const CrossShardMsg> staged() const { return staged_; }

  /// Empty the mailbox, keeping the staging vector's capacity.
  void clear() { staged_.clear(); }

  /// Rewind for a new run: empty the staging vector WITHOUT releasing it
  /// and restart the sequence.  Call only between runs, with every worker
  /// quiescent.  Never allocates.
  void reset() {
    staged_.clear();
    posted_ = 0;
  }

  /// Messages posted since the last reset; the next post's seq.
  std::uint64_t posted() const { return posted_; }

  /// Arena introspection for the zero-allocation steady-state proofs.
  std::size_t staging_capacity() const { return staged_.capacity(); }

 private:
  std::vector<CrossShardMsg> staged_;
  std::uint64_t posted_ = 0;
  std::uint32_t source_shard_;
};

}  // namespace emcast::sim
