#include "traffic/cbr_source.hpp"

#include <stdexcept>

namespace emcast::traffic {

CbrSource::CbrSource(const CbrConfig& config) : config_(config) {
  if (config.rate <= 0) throw std::invalid_argument("CbrSource: rate <= 0");
  if (config.packet_size <= 0) {
    throw std::invalid_argument("CbrSource: packet_size <= 0");
  }
  interval_ = config.packet_size / config.rate;
}

void CbrSource::start(sim::SimContext ctx, PacketSink sink, Time until) {
  sink_ = std::move(sink);
  schedule_train(ctx, ctx.now() + config_.phase, until);
}

void CbrSource::schedule_train(sim::SimContext ctx, Time first, Time until) {
  // Tick times accumulate sequentially (t_{n+1} = t_n + interval), NOT as
  // first + i*interval, so no instant depends on where a train starts.
  Time t = first;
  for (std::size_t i = 0; i < kTrainTicks; ++i) {
    const bool last = i + 1 == kTrainTicks;
    ctx.schedule_at(t, [this, ctx, until, last] { emit(ctx, until, last); });
    t += interval_;
  }
}

void CbrSource::emit(sim::SimContext ctx, Time until, bool last) {
  if (ctx.now() > until) return;
  sim::Packet p;
  p.id = ids_.next();
  p.flow = config_.flow;
  p.group = config_.group;
  p.size = config_.packet_size;
  p.created = ctx.now();
  p.hop_arrival = ctx.now();
  sink_(std::move(p));
  if (last) schedule_train(ctx, ctx.now() + interval_, until);
}

}  // namespace emcast::traffic
