#include "experiments/single_host.hpp"

#include "sim/context.hpp"

namespace emcast::experiments {

SingleHostResult run_single_host(const SingleHostConfig& config) {
  // One host, one kernel: the bare-Simulator view of the SimContext API.
  sim::Simulator sim;
  const sim::SimContext ctx(sim);

  ScenarioConfig sc;
  sc.kind = config.kind;
  sc.flows = config.flows;
  sc.seed = config.seed;
  sc.headroom = config.headroom;
  // Calibrate over the full run so conformance holds for every window.
  sc.envelope_calibration = config.duration + 5.0;
  Scenario scenario = make_scenario(sc);

  core::AdaptiveHostConfig hc;
  hc.flows = scenario.specs;
  hc.capacity = scenario.capacity_for(config.utilization);
  hc.mode = config.mode;
  // The adversarial general MUX of the paper's analysis.
  hc.mux_discipline = core::MuxDiscipline::PriorityLifoLowest;

  // Packets leaving the MUX reach the sink (the paper's Fig. 3 "sink"
  // node); the delay of interest is recorded inside the host.
  core::AdaptiveHost host(ctx, hc, [](sim::Packet) {});
  host.set_warmup(config.warmup);

  for (auto& src : scenario.sources) {
    src->start(ctx, [&host](sim::Packet p) { host.offer(std::move(p)); },
               config.duration);
  }

  // Probe the controller state while traffic is still flowing — after the
  // sources stop, the measured rate decays to zero and an adaptive host
  // legitimately switches back to the (sigma,rho) model.
  double measured = 0.0;
  auto final_model = core::ControlMode::SigmaRho;
  std::uint64_t switches = 0;
  sim.schedule_at(config.duration - 1e-6, [&] {
    measured = host.measured_utilization();
    final_model = host.active_model();
    switches = host.mode_switches();
  });

  sim.run(config.duration + 5.0);  // grace period to drain queues

  SingleHostResult r;
  r.utilization = config.utilization;
  r.worst_case_delay = host.delay().worst_case();
  r.mean_delay = host.delay().all().mean();
  r.packets = host.delay().all().count();
  r.measured_utilization = measured;
  r.mode_switches = switches;
  r.final_model = final_model;
  return r;
}

}  // namespace emcast::experiments
