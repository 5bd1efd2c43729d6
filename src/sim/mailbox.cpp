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

void ShardMailbox::post(const Packet& p, std::int32_t dest_host,
                        Time deliver_at) {
  staged_.push_back(
      CrossShardMsg{p, deliver_at, posted_++, source_shard_, dest_host});
}

}  // namespace emcast::sim
