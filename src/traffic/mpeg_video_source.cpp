#include "traffic/mpeg_video_source.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace emcast::traffic {

MpegVideoSource::MpegVideoSource(const MpegVideoConfig& config)
    : config_(config), rng_(config.seed) {
  if (config.mean_rate <= 0) {
    throw std::invalid_argument("MpegVideoSource: mean_rate must be > 0");
  }
  if (config.frame_rate <= 0) {
    throw std::invalid_argument("MpegVideoSource: frame_rate must be > 0");
  }
  if (config.packet_size <= 0) {
    throw std::invalid_argument("MpegVideoSource: packet_size must be > 0");
  }
  if (config.i_ratio <= 0 || config.p_ratio <= 0 || config.b_ratio <= 0) {
    throw std::invalid_argument("MpegVideoSource: frame ratios must be > 0");
  }
  frame_interval_ = 1.0 / config.frame_rate;
  // Mean bits per frame = rate / fps; ratio mass of one GoP:
  //   1×I + 3×P + 8×B  =  i + 3p + 8b   (in ratio units)
  const double gop_mass =
      config.i_ratio + 3.0 * config.p_ratio + 8.0 * config.b_ratio;
  const Bits mean_frame = config.mean_rate / config.frame_rate;
  unit_size_ = mean_frame * static_cast<double>(kGop.size()) / gop_mass;
}

Bits MpegVideoSource::mean_frame_size(char type) const {
  switch (type) {
    case 'I': return unit_size_ * config_.i_ratio;
    case 'P': return unit_size_ * config_.p_ratio;
    case 'B': return unit_size_ * config_.b_ratio;
    default: throw std::invalid_argument("mean_frame_size: bad type");
  }
}

Bits MpegVideoSource::nominal_burst() const {
  // The binding envelope constraint is the instantaneous burst of the
  // largest possible frame (a whole frame is handed to the network at one
  // instant): σ ≥ max I-frame size.  Frame sizes are clamped to
  // mean·(1 ± 2cv) in emit_frame(), so this is a true bound.
  return mean_frame_size('I') * (1.0 + 2.0 * config_.frame_cv) +
         config_.packet_size;
}

void MpegVideoSource::start(sim::SimContext ctx, PacketSink sink, Time until) {
  sink_ = std::move(sink);
  // Random GoP phase so concurrent flows do not lock-step their I-frames.
  gop_position_ = static_cast<std::size_t>(
      rng_.uniform_int(0, static_cast<std::int64_t>(kGop.size()) - 1));
  const Time phase = rng_.uniform(0.0, frame_interval_);
  schedule_train(ctx, ctx.now() + phase, until);
}

void MpegVideoSource::schedule_train(sim::SimContext ctx, Time first,
                                     Time until) {
  // Tick times accumulate sequentially (t_{n+1} = t_n + frame_interval);
  // frame sizes draw from the RNG at fire time, in frame order.
  Time t = first;
  for (std::size_t i = 0; i < kTrainTicks; ++i) {
    const bool last = i + 1 == kTrainTicks;
    ctx.schedule_at(t, [this, ctx, until, last] {
      emit_frame(ctx, until, last);
    });
    t += frame_interval_;
  }
}

void MpegVideoSource::emit_frame(sim::SimContext ctx, Time until, bool last) {
  if (ctx.now() > until) return;
  const char type = kGop[gop_position_];
  gop_position_ = (gop_position_ + 1) % kGop.size();

  const Bits mean_size = mean_frame_size(type);
  // Clamped lognormal: bounded bursts keep the flow conformant with the
  // declared (σ, ρ) envelope (see nominal_burst()).
  const Bits frame_bits =
      std::clamp(rng_.lognormal_mean_cv(mean_size, config_.frame_cv),
                 mean_size * std::max(0.0, 1.0 - 2.0 * config_.frame_cv),
                 mean_size * (1.0 + 2.0 * config_.frame_cv));
  // Packetise: full packets plus one remainder packet.
  auto remaining = frame_bits;
  while (remaining > 0) {
    sim::Packet p;
    p.id = ids_.next();
    p.flow = config_.flow;
    p.group = config_.group;
    p.size = std::min(remaining, config_.packet_size);
    p.created = ctx.now();
    p.hop_arrival = ctx.now();
    remaining -= p.size;
    sink_(std::move(p));
  }
  if (last) schedule_train(ctx, ctx.now() + frame_interval_, until);
}

}  // namespace emcast::traffic
