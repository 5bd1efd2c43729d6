#pragma once
// One shard of a sharded simulation: a partition of the model owning its
// own discrete-event kernel (a full Simulator), plus the outgoing side of
// the cross-shard mailboxes.
//
// Model code running inside a shard schedules local events through sim()
// exactly as in a single-threaded simulation; a handoff whose destination
// lives in another shard goes through post(), which stages the packet in
// the per-pair mailbox for the destination's next window.  post() is only
// legal with deliver_at >= (current window end), i.e. at least `lookahead`
// ahead of the shard clock — the conservative-synchronisation contract
// the window scheduler derives from the minimum cross-shard link latency.

#include <cassert>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "sim/mailbox.hpp"
#include "sim/simulator.hpp"
#include "util/types.hpp"

namespace emcast::sim {

class RoundsCore;
class Shard;

/// Invoked once per drain with the round's cross-shard messages, already
/// in the deterministic (deliver_at, source shard, seq) order, while the
/// shard is between windows; the handler schedules the model's local
/// reactions via shard.sim().schedule_at(msg.deliver_at, ...), in array
/// order, so the local sequence numbers follow the drain order.  Handlers
/// must ONLY schedule locally — calling Shard::post from a handler is
/// forbidden (and asserted): drain phases run concurrently across
/// workers, so a post issued mid-drain could race the destination's own
/// drain of the same mailbox.  Posting is legal exactly where models do
/// it anyway — from events executing inside a window.
using ShardMsgHandler =
    std::function<void(Shard&, std::span<const CrossShardMsg>)>;

class Shard {
 public:
  Shard(const Shard&) = delete;
  Shard& operator=(const Shard&) = delete;

  /// The shard-local kernel.  Scheduling through it is exactly the
  /// single-threaded API; components need not know they are sharded.
  Simulator& sim() { return sim_; }
  const Simulator& sim() const { return sim_; }

  std::size_t index() const { return index_; }
  std::size_t shard_count() const { return outgoing_.size(); }
  Time now() const { return sim_.now(); }

  /// The conservative lookahead the window scheduler runs under.
  Time lookahead() const { return lookahead_; }

  /// Hand `p` to `dest_shard`, arriving at `deliver_at`.  The arrival
  /// must respect the lookahead contract: deliver_at >= now + lookahead,
  /// and on the scalar and plan paths deliver_at >= the end of the window
  /// being run.  (Violations would let a message land inside an
  /// already-executing window; the destination kernel's schedule_at also
  /// rejects any time in its past, so a broken model fails loudly, not
  /// silently — in a Debug build at this post, not in a later drain.)
  void post(std::size_t dest_shard, const Packet& p, std::int32_t dest_host,
            Time deliver_at) {
    assert(dest_shard != index_ && "post to self: schedule locally instead");
    assert(!in_drain_ &&
           "post from a message handler: handlers may only schedule "
           "locally (see ShardMsgHandler)");
    assert(deliver_at >= sim_.now() + post_floor(dest_shard) &&
           "cross-shard post violates the lookahead contract");
    assert(deliver_at >= window_end_ &&
           "cross-shard post lands inside the window being run");
    outgoing_[dest_shard]->post(p, dest_host, deliver_at);
  }

  /// The effective lower bound on (deliver_at - now) for posts to
  /// `dest_shard`: the scalar lookahead floor, or the pair-specific floor
  /// when a lookahead matrix is installed (+inf for a pair the matrix
  /// declares edge-free — any post to it is a contract violation).
  Time post_floor(std::size_t dest_shard) const {
    return post_floor_.empty() ? lookahead_ : post_floor_[dest_shard];
  }

  std::uint64_t events_executed() const { return sim_.events_executed(); }

  /// Arena introspection for the zero-allocation steady-state proofs.
  std::size_t drain_buffer_capacity() const { return drain_buf_.capacity(); }
  const ShardMailbox* incoming(std::size_t source) const {
    return incoming_[source].get();
  }

 private:
  friend class RoundsCore;
  Shard() = default;

  /// Warm rewind for a new run (RoundsCore::reset, which then re-derives
  /// the lookahead floors): discard the kernel's pending events with its
  /// arenas kept warm, rewind the incoming mailboxes (staging vectors and
  /// sequence counters — producers are quiescent between runs by the
  /// round protocol) and keep the drain-buffer arena.  Never allocates.
  void reset();

  /// Between-windows step (destination worker thread): drain every
  /// incoming mailbox, sort the round's messages into the deterministic
  /// (deliver_at, source shard, seq) order, and hand them to the model's
  /// message handler for local scheduling.
  void drain_and_schedule();

  Simulator sim_;
  std::size_t index_ = 0;
  Time lookahead_ = 0;
  /// Outgoing mailboxes indexed by destination shard (self = nullptr).
  /// The pointers target the destination shard's incoming array, so the
  /// producer side is this shard's worker thread by construction.
  std::vector<ShardMailbox*> outgoing_;
  /// Incoming mailboxes indexed by source shard (self = nullptr).
  std::vector<std::unique_ptr<ShardMailbox>> incoming_;
  std::vector<CrossShardMsg> drain_buf_;  ///< per-round merge staging
  /// Per-destination lookahead floors when a pair matrix is installed
  /// (this shard's row of the closed matrix); empty means the scalar
  /// lookahead_ bounds every pair.  Debug-assert data only —
  /// the window protocol's safety derives from the scheduler's bound.
  std::vector<Time> post_floor_;
  /// End of the window this shard is running on the scalar and plan
  /// paths, -infinity outside windows and on the pair-matrix path, where
  /// windows differ per shard and post_floor_ stands in.  Recorded by
  /// RoundsCore::run_window in Debug builds only, for post()'s assert.
  Time window_end_ = -kTimeInfinity;
  const ShardMsgHandler* handler_ = nullptr;
  /// True while drain_and_schedule runs its handlers (assert-only guard
  /// for the no-post-from-handler contract above).
  bool in_drain_ = false;
};

}  // namespace emcast::sim
