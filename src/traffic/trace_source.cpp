#include "traffic/trace_source.hpp"

#include <algorithm>
#include <stdexcept>

namespace emcast::traffic {

TraceSource::TraceSource(const TraceSourceConfig& config)
    : config_(config),
      cursor_(config.trace != nullptr
                  ? *config.trace
                  : throw std::invalid_argument("TraceSource: null trace")) {
  // One scan derives the (σ, ρ) view the regulators would ask a model
  // source for.  Setup-time work; replay itself re-walks the same bytes
  // allocation-free.
  Bits total = 0;
  Bits instant = 0;        // bits accumulated at the current timestamp
  Bits max_instant = 0;
  std::uint64_t prev_key = 0;
  TraceCursor scan(*config.trace);
  while (!scan.done()) {
    const TraceRecord r = scan.next();
    if (config_.group >= 0 && r.group != config_.group) continue;
    if (matched_ == 0) {
      first_time_ = r.time();
      instant = 0;
    } else if (r.time_key != prev_key) {
      instant = 0;
    }
    instant += r.size;
    max_instant = std::max(max_instant, instant);
    total += r.size;
    last_time_ = r.time();
    prev_key = r.time_key;
    ++matched_;
  }
  const Time span = last_time_ - first_time_;
  // A single-instant (or empty) trace has no measurable span; fall back
  // to "all of it in one second" so the rate is finite and conservative.
  mean_rate_ = span > 0 ? total / span : total;
  burst_ = max_instant;
}

bool TraceSource::advance() {
  while (!cursor_.done()) {
    current_ = cursor_.next();
    if (config_.group < 0 || current_.group == config_.group) return true;
  }
  return false;
}

void TraceSource::start(sim::SimContext ctx, PacketSink sink, Time until) {
  sink_ = std::move(sink);
  cursor_.rewind();
  ids_ = sim::PacketIdAllocator{};
  has_current_ = advance();
  if (!has_current_) return;
  if (current_.time() > until) return;
  schedule_train(ctx, until);
}

void TraceSource::schedule_train(sim::SimContext ctx, Time until) {
  // The next kTrainTicks distinct replay instants, discovered with a
  // lookahead COPY of the cursor (no records consumed — the live cursor
  // still feeds emit in order).  The instants are the records' own
  // timestamps; instants past `until` never enter the train, so replay
  // stops at the horizon.
  Time times[kTrainTicks];
  std::size_t m = 0;
  times[m++] = current_.time();
  std::uint64_t key = current_.time_key;
  TraceCursor look = cursor_;
  while (m < kTrainTicks && !look.done()) {
    const TraceRecord r = look.next();
    if (config_.group >= 0 && r.group != config_.group) continue;
    if (r.time_key == key) continue;
    if (r.time() > until) break;
    key = r.time_key;
    times[m++] = r.time();
  }
  for (std::size_t i = 0; i < m; ++i) {
    const bool last = i + 1 == m;
    ctx.schedule_at(times[i],
                    [this, ctx, until, last] { emit(ctx, until, last); });
  }
}

void TraceSource::emit(sim::SimContext ctx, Time until, bool last) {
  if (ctx.now() > until) return;
  // Emit every record sharing this instant inside one event — the same
  // burst shape a live source produces.  The train scheduled one event
  // per upcoming distinct timestamp, so each fires exactly when the
  // cursor stands at its instant; the train's last tick starts the next.
  const std::uint64_t key = current_.time_key;
  while (has_current_ && current_.time_key == key) {
    sim::Packet p;
    p.id = ids_.next();
    p.flow = current_.flow;
    p.group = current_.group;
    p.size = current_.size;
    p.created = ctx.now();
    p.hop_arrival = ctx.now();
    sink_(std::move(p));
    has_current_ = advance();
  }
  if (!last || !has_current_) return;
  if (current_.time() > until) return;
  schedule_train(ctx, until);
}

}  // namespace emcast::traffic
