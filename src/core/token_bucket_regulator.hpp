#pragma once
// The classical (σ, ρ) regulator of Cruz [15-16]: a token bucket of depth σ
// bits refilled at ρ bits/s.  Traffic conforming to (σ, ρ) passes through
// untouched; excess bursts are buffered and released as tokens accrue, so
// the output always satisfies R_out ~ (σ, ρ).

#include "sim/context.hpp"
#include "sim/fifo_queue.hpp"
#include "sim/packet.hpp"
#include "traffic/flow_spec.hpp"
#include "util/types.hpp"

namespace emcast::core {

class TokenBucketRegulator {
 public:
  using Sink = sim::PacketFn;

  /// The bucket starts full (σ tokens) so an initial conformant burst is
  /// not delayed.
  TokenBucketRegulator(sim::SimContext ctx, traffic::FlowSpec spec, Sink sink);

  /// Submit a packet; forwarded immediately if conformant, else queued.
  /// A packet larger than the bucket depth σ can never conform and is
  /// rejected outright (counted in rejected()) instead of livelocking the
  /// release loop.
  void offer(sim::Packet p);

  const traffic::FlowSpec& spec() const { return spec_; }
  Bits tokens() const;  ///< current token level (refreshed to now)
  Bits backlog_bits() const { return queue_.backlog_bits(); }
  Bits peak_backlog_bits() const { return queue_.peak_backlog_bits(); }
  std::uint64_t forwarded() const { return forwarded_; }
  std::uint64_t rejected() const { return rejected_; }  ///< oversized drops

  /// Self plus the queue's ring storage (memory-budget convention, see Mux).
  std::size_t memory_bytes() const {
    return sizeof(*this) + queue_.heap_bytes();
  }

 private:
  void refill_to_now() const;
  void try_release();
  void schedule_release();

  sim::SimContext ctx_;
  traffic::FlowSpec spec_;
  Sink sink_;
  sim::FifoQueue queue_;
  mutable Bits tokens_;
  mutable Time last_refill_ = 0.0;
  sim::EventHandle pending_release_;
  std::uint64_t forwarded_ = 0;
  std::uint64_t rejected_ = 0;
};

}  // namespace emcast::core
