#pragma once
// VBR MPEG-1 video: GoP-structured frame generator.  Frames arrive at the
// frame rate; each frame is handed to the network as a burst of packets at
// the frame instant.  Frame sizes follow the I/P/B pattern with lognormal
// per-frame variation, scaled so the long-term mean equals `mean_rate`
// (1.5 Mbit/s MPEG-1 in the paper).
//
// GoP pattern (N=12, M=3): I B B P B B P B B P B B
// Size ratios I:P:B default to 5:3:1, the canonical MPEG-1 profile.
//
// σ analysis: the largest excess over the mean-rate line happens at an
// I-frame arrival on top of a partially-drained GoP; we expose
// (max I-frame size − mean frame size) + one P-frame excess as σ.

#include <array>

#include "traffic/source.hpp"
#include "util/rng.hpp"

namespace emcast::traffic {

struct MpegVideoConfig {
  Rate mean_rate = mbps(1.5);
  double frame_rate = 25.0;     ///< frames/s
  double i_ratio = 5.0;         ///< I:P:B mean size ratios
  double p_ratio = 3.0;
  double b_ratio = 1.0;
  double frame_cv = 0.25;       ///< lognormal coefficient of variation
  Bits packet_size = bytes(1052);
  FlowId flow = 0;
  GroupId group = -1;
  std::uint64_t seed = 1;
};

class MpegVideoSource final : public Source {
 public:
  explicit MpegVideoSource(const MpegVideoConfig& config);

  void start(sim::SimContext ctx, PacketSink sink, Time until) override;
  Rate mean_rate() const override { return config_.mean_rate; }
  Bits nominal_burst() const override;

  /// Mean size of frame type 'I'/'P'/'B' in bits (before variation).
  Bits mean_frame_size(char type) const;

 private:
  void schedule_train(sim::SimContext ctx, Time first, Time until);
  void emit_frame(sim::SimContext ctx, Time until, bool last);

  static constexpr std::array<char, 12> kGop = {'I', 'B', 'B', 'P', 'B', 'B',
                                                'P', 'B', 'B', 'P', 'B', 'B'};

  MpegVideoConfig config_;
  Time frame_interval_;
  Bits unit_size_;   ///< bits per "ratio unit": B-frame mean size
  std::size_t gop_position_ = 0;
  PacketSink sink_;
  util::Rng rng_;
  sim::PacketIdAllocator ids_;
};

}  // namespace emcast::traffic
