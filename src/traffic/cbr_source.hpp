#pragma once
// Constant-bit-rate source: fixed-size packets on a fixed interval, with an
// optional start phase.  The degenerate (σ ≈ one packet) case; used by
// tests as the analytically-predictable baseline.

#include "traffic/source.hpp"
#include "util/types.hpp"

namespace emcast::traffic {

struct CbrConfig {
  Rate rate = kbps(64);        ///< bits/s
  Bits packet_size = bytes(160);
  Time phase = 0.0;            ///< first packet offset
  FlowId flow = 0;
  GroupId group = -1;
};

class CbrSource final : public Source {
 public:
  explicit CbrSource(const CbrConfig& config);

  void start(sim::SimContext ctx, PacketSink sink, Time until) override;
  Rate mean_rate() const override { return config_.rate; }
  Bits nominal_burst() const override { return config_.packet_size; }

 private:
  void schedule_train(sim::SimContext ctx, Time first, Time until);
  void emit(sim::SimContext ctx, Time until, bool last);

  CbrConfig config_;
  Time interval_;
  PacketSink sink_;
  sim::PacketIdAllocator ids_;
};

}  // namespace emcast::traffic
