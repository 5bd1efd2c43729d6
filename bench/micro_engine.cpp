// google-benchmark microbenchmarks of the hot engine components: event
// queue (across several timestamp shapes), token bucket, (σ, ρ, λ) bank,
// MUX, Dijkstra and tree builders.  These are throughput references for
// anyone extending the simulator.
//
// Event-queue scenario shapes.  A calendar queue's worth depends on the
// timestamp distribution, so the push/pop benchmark runs four of them:
//   - uniform: independent draws over a wide window (the classic churn);
//   - skewed: heavily front-loaded (u^4), dense near zero with a long
//     thin tail — stresses the day-width estimator;
//   - bursty: tight 1ms clusters spaced 100s apart — stresses intra-bucket
//     sorting and rebucketing;
//   - far-horizon: 90% near-term, 10% up to 10^4x further out — stresses
//     the overflow year and year-advance rebuilds.
// A fifth, steady-across-binades, keeps the population and the event rate
// fixed while t crosses 2, 4 and 8 s, where double keys halve their
// spacing: it stresses the day width's tracking of the dequeue rate.

#include <benchmark/benchmark.h>

#include "bench_common.hpp"

#include <numeric>
#include <vector>

#include "core/lambda_regulator.hpp"
#include "core/mux.hpp"
#include "core/token_bucket_regulator.hpp"
#include "overlay/dsct.hpp"
#include "sim/event_queue.hpp"
#include "sim/simulator.hpp"
#include "topology/backbone.hpp"
#include "topology/host_attachment.hpp"
#include "topology/shortest_path.hpp"
#include "util/rng.hpp"

namespace {

using namespace emcast;

std::vector<double> uniform_times(std::size_t n) {
  util::Rng rng(1);
  std::vector<double> times(n);
  for (auto& t : times) t = rng.uniform(0.0, 1000.0);
  return times;
}

std::vector<double> skewed_times(std::size_t n) {
  util::Rng rng(2);
  std::vector<double> times(n);
  for (auto& t : times) {
    const double u = rng.uniform();
    t = u * u * u * u * 1000.0;  // ~front-loaded: most mass near 0
  }
  return times;
}

std::vector<double> bursty_times(std::size_t n) {
  util::Rng rng(3);
  std::vector<double> times(n);
  for (auto& t : times) {
    const double cluster = static_cast<double>(rng.uniform_int(0, 63));
    t = cluster * 100.0 + rng.uniform(0.0, 1e-3);
  }
  return times;
}

std::vector<double> far_horizon_times(std::size_t n) {
  util::Rng rng(4);
  std::vector<double> times(n);
  for (auto& t : times) {
    t = rng.uniform() < 0.9 ? rng.uniform(0.0, 100.0)
                            : rng.uniform(1e5, 1e6);
  }
  return times;
}

void push_pop_all(benchmark::State& state, const std::vector<double>& times) {
  for (auto _ : state) {
    sim::EventQueue q;
    for (double t : times) q.push(t, [] {});
    while (!q.empty()) benchmark::DoNotOptimize(q.fire_next());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(times.size()));
}

void BM_EventQueuePushPop(benchmark::State& state) {
  push_pop_all(state, uniform_times(static_cast<std::size_t>(state.range(0))));
}
BENCHMARK(BM_EventQueuePushPop)->Arg(1024)->Arg(16384);

void BM_EventQueueSkewed(benchmark::State& state) {
  push_pop_all(state, skewed_times(static_cast<std::size_t>(state.range(0))));
}
BENCHMARK(BM_EventQueueSkewed)->Arg(16384);

void BM_EventQueueBursty(benchmark::State& state) {
  push_pop_all(state, bursty_times(static_cast<std::size_t>(state.range(0))));
}
BENCHMARK(BM_EventQueueBursty)->Arg(16384);

void BM_EventQueueFarHorizon(benchmark::State& state) {
  push_pop_all(state,
               far_horizon_times(static_cast<std::size_t>(state.range(0))));
}
BENCHMARK(BM_EventQueueFarHorizon)->Arg(16384);

// Steady event rate from t = 1 s to t = 16 s: 4096 sources, each re-arming
// after a uniform hold of mean 50 ms (about 1.2M events per iteration).
struct SteadySource {
  sim::EventQueue* q;
  util::Rng* rng;
  Time t;
  void operator()() const {
    const Time next = t + rng->uniform(0.0, 0.1);
    if (next < 16.0) q->push(next, SteadySource{q, rng, next});
  }
};

void BM_EventQueueSteadyAcrossBinades(benchmark::State& state) {
  std::int64_t events = 0;
  for (auto _ : state) {
    sim::EventQueue q;
    util::Rng rng(5);
    for (int i = 0; i < 4096; ++i) {
      const Time t = 1.0 + rng.uniform(0.0, 0.1);
      q.push(t, SteadySource{&q, &rng, t});
    }
    while (!q.empty()) {
      q.fire_next();
      ++events;
    }
  }
  state.SetItemsProcessed(events);
}
BENCHMARK(BM_EventQueueSteadyAcrossBinades)->Unit(benchmark::kMillisecond);

// Self-rescheduling functor: the idiomatic shape for recurring events on
// the allocation-free engine (a recursive std::function would wrap a heap
// callable inside the inline capture).
struct ChurnTick {
  sim::Simulator* sim;
  int* count;
  void operator()() const {
    if (++*count < 10000) sim->schedule_in(0.001, ChurnTick{sim, count});
  }
};

void BM_SimulatorEventChurn(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    int count = 0;
    sim.schedule_in(0.001, ChurnTick{&sim, &count});
    sim.run();
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          10000);
}
BENCHMARK(BM_SimulatorEventChurn);

void BM_TokenBucketOffer(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    core::TokenBucketRegulator reg(sim, traffic::FlowSpec{0, 1e6, 1e5},
                                   [](sim::Packet) {});
    for (int i = 0; i < 1000; ++i) {
      sim::Packet p;
      p.flow = 0;
      p.size = 800;
      reg.offer(std::move(p));
    }
    sim.run();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 1000);
}
BENCHMARK(BM_TokenBucketOffer);

void BM_LambdaBankThroughput(benchmark::State& state) {
  std::vector<traffic::FlowSpec> flows{
      {0, 10000, 20000}, {1, 10000, 20000}, {2, 10000, 20000}};
  for (auto _ : state) {
    sim::Simulator sim;
    core::LambdaRegulatorBank bank(sim, flows, 100000.0, [](sim::Packet) {});
    for (int i = 0; i < 900; ++i) {
      sim::Packet p;
      p.flow = static_cast<FlowId>(i % 3);
      p.size = 800;
      bank.offer(std::move(p));
    }
    sim.run(100.0);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 900);
}
BENCHMARK(BM_LambdaBankThroughput);

void BM_MuxPriorityService(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    core::Mux mux(sim, 1e6, [](sim::Packet) {},
                  core::MuxDiscipline::PriorityLifoLowest);
    for (int i = 0; i < 1000; ++i) {
      sim::Packet p;
      p.size = 800;
      mux.offer(std::move(p), static_cast<std::size_t>(i % 3));
    }
    sim.run();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 1000);
}
BENCHMARK(BM_MuxPriorityService);

void BM_DijkstraBackbone(benchmark::State& state) {
  const auto g = topology::make_fig5_backbone();
  for (auto _ : state) {
    for (NodeId s = 0; s < static_cast<NodeId>(g.node_count()); ++s) {
      benchmark::DoNotOptimize(topology::dijkstra(g, s));
    }
  }
}
BENCHMARK(BM_DijkstraBackbone);

void BM_DelayMatrix665Hosts(benchmark::State& state) {
  const auto backbone = topology::make_fig5_backbone();
  topology::HostAttachmentConfig hc;
  hc.host_count = 665;
  const auto net = topology::attach_hosts(backbone, hc);
  for (auto _ : state) {
    benchmark::DoNotOptimize(topology::DelayMatrix(net.graph));
  }
}
BENCHMARK(BM_DelayMatrix665Hosts);

void BM_DsctBuild665(benchmark::State& state) {
  const auto backbone = topology::make_fig5_backbone();
  topology::HostAttachmentConfig hc;
  hc.host_count = 665;
  const auto net = topology::attach_hosts(backbone, hc);
  const topology::DelayMatrix delays(net.graph);
  std::vector<overlay::Member> members(net.hosts.size());
  std::vector<int> domain(net.hosts.size());
  for (std::size_t i = 0; i < net.hosts.size(); ++i) {
    members[i] = overlay::Member{i, net.hosts[i]};
    domain[i] = static_cast<int>(net.attachment[i]);
  }
  overlay::RttFn rtt = [&](std::size_t a, std::size_t b) {
    return delays.rtt(net.hosts[a], net.hosts[b]);
  };
  for (auto _ : state) {
    overlay::DsctConfig cfg;
    benchmark::DoNotOptimize(
        overlay::build_dsct(members, domain, rtt, 0, cfg));
  }
}
BENCHMARK(BM_DsctBuild665);

}  // namespace

EMCAST_BENCH_MAIN();
