#pragma once
// Simulation I (Fig. 3): a single regulated end host.  Three real-time
// flows feed one intermediate node equipped with (σ, ρ)/(σ, ρ, λ)-regulated
// general MUXs; we measure the worst-case delay through the node as the
// total utilisation ρ̄ sweeps 0.35 … 0.95 (Fig. 4).

#include <cstdint>

#include "core/adaptive_host.hpp"
#include "experiments/scenarios.hpp"
#include "util/types.hpp"

namespace emcast::experiments {

struct SingleHostConfig {
  TrafficKind kind = TrafficKind::Audio;
  core::ControlMode mode = core::ControlMode::SigmaRho;
  double utilization = 0.5;    ///< ρ̄ = Σ mean rates / C
  int flows = 3;
  Time duration = 30.0;
  Time warmup = 3.0;
  std::uint64_t seed = 1;
  double headroom = 0.04;
};

struct SingleHostResult {
  double utilization = 0;          ///< configured ρ̄
  Time worst_case_delay = 0;       ///< max per-hop delay after warm-up [s]
  Time mean_delay = 0;
  std::uint64_t packets = 0;
  double measured_utilization = 0; ///< host's own estimate at sim end
  std::uint64_t mode_switches = 0; ///< >0 only in Adaptive mode
  core::ControlMode final_model = core::ControlMode::SigmaRho;
};

SingleHostResult run_single_host(const SingleHostConfig& config);

}  // namespace emcast::experiments
