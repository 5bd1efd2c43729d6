#include "sim/shard.hpp"

#include <algorithm>

namespace emcast::sim {

void Shard::reset() {
  sim_.reset_discarding(0.0);
  for (auto& mailbox : incoming_) {
    if (mailbox) mailbox->reset();
  }
  drain_buf_.clear();  // capacity retained
  in_drain_ = false;
}

void Shard::drain_and_schedule() {
  drain_buf_.clear();
  for (auto& mailbox : incoming_) {
    if (!mailbox) continue;
    const std::span<const CrossShardMsg> staged = mailbox->staged();
    drain_buf_.insert(drain_buf_.end(), staged.begin(), staged.end());
    mailbox->clear();
  }
  if (drain_buf_.empty()) return;
  // Deterministic merge: thread timing decided nothing about this order,
  // so the local sequence numbers the handler's schedule_at calls assign
  // — and with them the (time, seq) fire order — replay identically on
  // every run, for every worker-thread count.
  std::sort(drain_buf_.begin(), drain_buf_.end(), msg_before);
  assert(handler_ != nullptr && "sharded run without a message handler");
  in_drain_ = true;
  try {
    (*handler_)(*this, drain_buf_);
  } catch (...) {
    in_drain_ = false;  // the run aborts, but keep the guard consistent
    throw;
  }
  in_drain_ = false;
}

}  // namespace emcast::sim
