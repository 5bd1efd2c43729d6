#include "sim/mailbox.hpp"

#include "sim/pending_entry.hpp"

namespace emcast::sim {

bool msg_before(const CrossShardMsg& a, const CrossShardMsg& b) {
  const std::uint64_t ka = time_key(a.deliver_at);
  const std::uint64_t kb = time_key(b.deliver_at);
  if (ka != kb) return ka < kb;
  if (a.source_shard != b.source_shard) return a.source_shard < b.source_shard;
  return a.seq < b.seq;
}

void ShardMailbox::init(std::uint32_t source_shard, std::size_t ring_capacity) {
  source_shard_ = source_shard;
  ring_.reset_capacity(ring_capacity);
  spill_.reserve(64);  // grows to the true high-water mark during warm-up
}

void ShardMailbox::post(const Packet& p, std::int32_t dest_host,
                        Time deliver_at) {
  CrossShardMsg m;
  m.packet = p;
  m.deliver_at = deliver_at;
  m.seq = next_seq_++;
  m.source_shard = source_shard_;
  m.dest_host = dest_host;
  ++posted_;
  if (!ring_.try_push(m)) {
    spill_.push_back(m);
    ++spilled_;
  }
}

void ShardMailbox::reset() {
  ring_.rewind();
  spill_.clear();  // capacity retained: the spill arena stays warm
  next_seq_ = 0;
  posted_ = 0;
  spilled_ = 0;
}

void ShardMailbox::drain_into(std::vector<CrossShardMsg>& out) {
  // Ring entries precede spill entries in post (seq) order: within one
  // window the ring fills monotonically and only then spills, and drains
  // empty both.
  CrossShardMsg m;
  while (ring_.try_pop(m)) out.push_back(m);
  out.insert(out.end(), spill_.begin(), spill_.end());
  spill_.clear();
}

}  // namespace emcast::sim
