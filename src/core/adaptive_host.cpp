#include "core/adaptive_host.hpp"

#include <algorithm>
#include <stdexcept>

#include "netcalc/threshold.hpp"
#include "util/logging.hpp"

namespace emcast::core {

namespace {

double derive_threshold(const std::vector<traffic::FlowSpec>& flows) {
  const int k = static_cast<int>(flows.size());
  if (k < 2) return 1.0;  // a single flow never benefits from turn-taking
  return traffic::homogeneous(flows)
             ? netcalc::utilization_threshold_homogeneous(k)
             : netcalc::utilization_threshold_heterogeneous(k);
}

}  // namespace

AdaptiveHost::AdaptiveHost(sim::SimContext ctx, AdaptiveHostConfig config,
                           Sink sink)
    : ctx_(ctx),
      config_(std::move(config)),
      sink_(std::move(sink)),
      threshold_(config_.threshold_utilization > 0.0
                     ? config_.threshold_utilization
                     : derive_threshold(config_.flows)),
      mux_(ctx, config_.capacity,
           [this](sim::Packet p) { on_mux_output(std::move(p)); },
           config_.mux_discipline) {
  if (config_.flows.empty()) {
    throw std::invalid_argument("AdaptiveHost: no flows");
  }
  if (!traffic::stable(config_.flows, config_.capacity)) {
    throw std::invalid_argument(
        "AdaptiveHost: stability condition Σρᵢ ≤ C violated");
  }
  buckets_.reserve(config_.flows.size());
  for (const auto& f : config_.flows) {
    buckets_.push_back(std::make_unique<TokenBucketRegulator>(
        ctx_, f, [this](sim::Packet p) { mux_.offer(std::move(p)); }));
    estimators_.emplace_back(config_.estimator_window);
  }
  auto bank_flows = config_.flows;
  for (auto& f : bank_flows) f.sigma *= config_.lambda_sigma_margin;
  bank_ = std::make_unique<LambdaRegulatorBank>(
      ctx_, std::move(bank_flows), config_.capacity,
      [this](sim::Packet p) { mux_.offer(std::move(p)); },
      /*max_packet_bits=*/12000.0, config_.lambda_epoch_offset);
  bank_->pause();

  control_interval_ =
      config_.control_interval > 0.0
          ? config_.control_interval
          : std::max<Time>(bank_->schedule().period(), 0.1);

  switch (config_.mode) {
    case ControlMode::SigmaRho:
      activate(ControlMode::SigmaRho);
      break;
    case ControlMode::SigmaRhoLambda:
      activate(ControlMode::SigmaRhoLambda);
      break;
    case ControlMode::Adaptive:
      activate(ControlMode::SigmaRho);  // algorithm starts in (σ, ρ) model
      ctx_.schedule_in(control_interval_, [this] { control_tick(); });
      break;
  }
}

std::size_t AdaptiveHost::flow_index(FlowId id) const {
  for (std::size_t i = 0; i < config_.flows.size(); ++i) {
    if (config_.flows[i].id == id) return i;
  }
  throw std::invalid_argument("AdaptiveHost: unknown flow id");
}

void AdaptiveHost::set_warmup(Time t) { tracer_.set_warmup(t); }

std::size_t AdaptiveHost::memory_bytes() const {
  // memory-budget convention (see core::Mux): by-value members are
  // inside sizeof(*this) already, so only their heap is added.
  std::size_t bytes = sizeof(*this);
  bytes += mux_.memory_bytes() - sizeof(Mux);
  bytes += config_.flows.capacity() * sizeof(traffic::FlowSpec);
  bytes += buckets_.capacity() * sizeof(buckets_[0]);
  for (const auto& b : buckets_) {
    if (b) bytes += b->memory_bytes();
  }
  if (bank_) bytes += bank_->memory_bytes();
  bytes += estimators_.capacity() * sizeof(RateEstimator);
  for (const auto& e : estimators_) {
    bytes += e.memory_bytes() - sizeof(RateEstimator);
  }
  bytes += tracer_.memory_bytes() - sizeof(sim::DelayTracer);
  return bytes;
}

void AdaptiveHost::offer(sim::Packet p) {
  const std::size_t i = flow_index(p.flow);
  p.hop_arrival = ctx_.now();
  // General MUX (Section III): packets of one flow may have priority over
  // another's; the flow's declared class decides who overtakes whom.
  p.priority = static_cast<std::uint8_t>(std::min<std::size_t>(
      config_.flows[i].priority, Mux::kPriorityClasses - 1));
  estimators_[i].record(ctx_.now(), p.size);
  if (active_ == ControlMode::SigmaRhoLambda) {
    bank_->offer(std::move(p));
  } else {
    buckets_[i]->offer(std::move(p));
  }
}

void AdaptiveHost::on_mux_output(sim::Packet p) {
  tracer_.record_delay(ctx_.now() - p.hop_arrival, ctx_.now());
  ++p.hops;
  sink_(std::move(p));
}

void AdaptiveHost::activate(ControlMode m) {
  if (m == ControlMode::Adaptive) {
    throw std::invalid_argument("activate: Adaptive is not a model");
  }
  if (m == active_ && (m == ControlMode::SigmaRhoLambda) == bank_->running()) {
    return;
  }
  active_ = m;
  if (m == ControlMode::SigmaRhoLambda) {
    bank_->resume();
  } else {
    // Migrate any backlog held by the bank into the token buckets so no
    // packet is stranded in a paused pipeline.
    bank_->pause();
    bank_->drain([this](sim::Packet p) {
      buckets_[flow_index(p.flow)]->offer(std::move(p));
    });
  }
}

double AdaptiveHost::measured_utilization() const {
  Rate sum = 0;
  for (const auto& est : estimators_) sum += est.rate_at(ctx_.now());
  return sum / config_.capacity;
}

void AdaptiveHost::control_tick() {
  last_utilization_ = measured_utilization();

  const double up = threshold_ * (1.0 + config_.hysteresis);
  const double down = threshold_ * (1.0 - config_.hysteresis);
  if (active_ == ControlMode::SigmaRho && last_utilization_ >= up) {
    util::log_debug("AdaptiveHost: ρ̄=", last_utilization_, " ≥ ", up,
                    " → (σ,ρ,λ) model");
    activate(ControlMode::SigmaRhoLambda);
    ++mode_switches_;
    last_mode_switch_ = ctx_.now();
  } else if (active_ == ControlMode::SigmaRhoLambda &&
             last_utilization_ <= down) {
    util::log_debug("AdaptiveHost: ρ̄=", last_utilization_, " ≤ ", down,
                    " → (σ,ρ) model");
    activate(ControlMode::SigmaRho);
    ++mode_switches_;
    last_mode_switch_ = ctx_.now();
  }
  ctx_.schedule_in(control_interval_, [this] { control_tick(); });
}

}  // namespace emcast::core
