#include "sim/tracer.hpp"

#include "util/bytes.hpp"

namespace emcast::sim {

DelayTracer& DelayTracer::operator=(const DelayTracer& other) {
  if (this == &other) return *this;
  warmup_ = other.warmup_;
  all_ = other.all_;
  dropped_warmup_ = other.dropped_warmup_;
  quantiles_ = other.quantiles_
                   ? std::make_unique<util::LogHistogram>(*other.quantiles_)
                   : nullptr;
  return *this;
}

void DelayTracer::record(const Packet& p, Time now) {
  record_delay(p.age(now), now);
}

void DelayTracer::record_delay(Time delay, Time now) {
  if (now < warmup_) {
    ++dropped_warmup_;
    return;
  }
  all_.add(delay);
  if (quantiles_) quantiles_->add(delay);
}

void DelayTracer::merge(const DelayTracer& other) {
  all_.merge(other.all_);
  dropped_warmup_ += other.dropped_warmup_;
  if (quantiles_ && other.quantiles_) quantiles_->merge(*other.quantiles_);
}

void DelayTracer::save(util::ByteWriter& w) const {
  all_.save(w);
  w.u64(dropped_warmup_);
  w.u8(quantiles_ ? 1 : 0);
  if (quantiles_) quantiles_->save(w);
}

void DelayTracer::load(util::ByteReader& r) {
  all_.load(r);
  dropped_warmup_ = r.u64();
  if (r.u8() != 0) {
    if (!quantiles_) quantiles_ = std::make_unique<util::LogHistogram>();
    quantiles_->load(r);
  } else {
    quantiles_.reset();
  }
}

void DelayTracer::enable_quantiles() {
  quantiles_ = std::make_unique<util::LogHistogram>();
}

double DelayTracer::quantile(double q) const {
  return quantiles_ ? quantiles_->quantile(q) : 0.0;
}

std::size_t DelayTracer::memory_bytes() const {
  return sizeof(*this) + (quantiles_ ? quantiles_->memory_bytes() : 0);
}

}  // namespace emcast::sim
