// Fresh-vs-warm engine A/B for the short-run sweep regime (PR 5).
//
// sweep_multigroup runs MANY short simulations; before warm reuse each
// one paid full Engine construction (kernel, slabs, calendar arrays,
// mailboxes) plus the first-run arena growth.  These benchmarks pin
// the reuse win: the plain names run one engine kept warm across
// iterations (Engine::reset / Simulator::reset_discarding between runs —
// the sweep's code path), the `Fresh` twins construct a new engine per
// iteration (the pre-PR-5 code path).  Both sides of a pair run in the
// same session, so the pair ratio is runner-speed immune — the same
// trick the calendar/Heap pairs use, gated by bench_compare.py
// --ab-suffix Fresh.
//
// The argument is the number of events per simulated run: 512 is the
// setup-dominated regime the ISSUE targets, 8192 shows the win fading as
// runs lengthen.

#include <benchmark/benchmark.h>

#include "bench_common.hpp"

#include <cstdint>

#include "sim/context.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace emcast;

// ---- bare kernel: construct-per-run vs. reset-per-run -------------------

struct Tick {
  sim::Simulator* sim;
  std::int64_t* remaining;
  void operator()() const {
    if (--*remaining > 0) sim->schedule_in(0.001, Tick{sim, remaining});
  }
};

std::int64_t run_kernel_once(sim::Simulator& sim, std::int64_t events) {
  // 64 concurrent self-rescheduling chains: enough outstanding events to
  // touch real slab/pending-set state without leaving the short regime.
  std::int64_t remaining = events;
  for (int c = 0; c < 64; ++c) {
    sim.schedule_in(0.001 + 1e-6 * c, Tick{&sim, &remaining});
  }
  sim.run();
  return events;
}

void BM_SimulatorShortRun(benchmark::State& state) {
  const std::int64_t events = state.range(0);
  sim::Simulator sim;  // one kernel for the whole benchmark, kept warm
  std::int64_t processed = 0;
  for (auto _ : state) {
    sim.reset_discarding();
    processed += run_kernel_once(sim, events);
  }
  state.SetItemsProcessed(processed);
}
BENCHMARK(BM_SimulatorShortRun)->Arg(512)->Arg(8192);

void BM_SimulatorShortRunFresh(benchmark::State& state) {
  const std::int64_t events = state.range(0);
  std::int64_t processed = 0;
  for (auto _ : state) {
    sim::Simulator sim;  // construct + grow arenas every run
    processed += run_kernel_once(sim, events);
  }
  state.SetItemsProcessed(processed);
}
BENCHMARK(BM_SimulatorShortRunFresh)->Arg(512)->Arg(8192);

// ---- full Engine, single backend ----------------------------------------

sim::EngineConfig single_config() { return sim::EngineConfig{}; }

std::int64_t run_engine_once(sim::Engine& engine, std::int64_t events) {
  engine.set_deliver([](sim::SimContext ctx, HostId host,
                        const sim::Packet& p) {
    if (p.id > 0) {
      sim::Packet next = p;
      --next.id;
      ctx.deliver(host, next, ctx.now() + 0.001);
    }
  });
  sim::SimContext ctx = engine.context(0);
  for (int c = 0; c < 16; ++c) {  // 16 chains sharing the event budget
    sim::Packet p;
    p.id = static_cast<std::uint64_t>(events / 16);
    ctx.deliver(0, p, 0.001 + 1e-6 * c);
  }
  engine.run();
  return events;
}

void BM_EngineShortRun(benchmark::State& state) {
  const std::int64_t events = state.range(0);
  sim::Engine engine(single_config());  // kept warm across iterations
  std::int64_t processed = 0;
  for (auto _ : state) {
    engine.reset();
    processed += run_engine_once(engine, events);
  }
  state.SetItemsProcessed(processed);
}
BENCHMARK(BM_EngineShortRun)->Arg(512)->Arg(8192);

void BM_EngineShortRunFresh(benchmark::State& state) {
  const std::int64_t events = state.range(0);
  std::int64_t processed = 0;
  for (auto _ : state) {
    sim::Engine engine(single_config());
    processed += run_engine_once(engine, events);
  }
  state.SetItemsProcessed(processed);
}
BENCHMARK(BM_EngineShortRunFresh)->Arg(512)->Arg(8192);

// ---- full Engine, sharded backend (threads = 1: the schedule is
// thread-count independent, and the container CI runs on one core) ------

sim::EngineConfig sharded_config() {
  sim::EngineConfig ec;
  ec.kind = sim::EngineKind::Sharded;
  ec.shards = 2;
  ec.threads = 1;
  ec.lookahead = 0.002;
  ec.shard_of = {0, 1};
  return ec;
}

std::int64_t run_sharded_once(sim::Engine& engine, std::int64_t events) {
  engine.set_deliver([](sim::SimContext ctx, HostId host,
                        const sim::Packet& p) {
    if (p.id > 0) {
      sim::Packet next = p;
      --next.id;
      // Bounce to the other shard: every hop is a cross-shard post at
      // exactly the lookahead bound — the mailbox/window machinery runs
      // on every event.
      ctx.deliver(host == 0 ? 1 : 0, next, ctx.now() + ctx.lookahead());
    }
  });
  sim::SimContext ctx = engine.context(0);
  sim::Packet p;
  p.id = static_cast<std::uint64_t>(events);
  ctx.deliver(1, p, 0.002);
  engine.run();
  return events;
}

void BM_ShardedShortRun(benchmark::State& state) {
  const std::int64_t events = state.range(0);
  sim::Engine engine(sharded_config());  // kept warm across iterations
  std::int64_t processed = 0;
  for (auto _ : state) {
    engine.reset();
    processed += run_sharded_once(engine, events);
  }
  state.SetItemsProcessed(processed);
}
BENCHMARK(BM_ShardedShortRun)->Arg(512)->Arg(8192);

void BM_ShardedShortRunFresh(benchmark::State& state) {
  const std::int64_t events = state.range(0);
  std::int64_t processed = 0;
  for (auto _ : state) {
    sim::Engine engine(sharded_config());
    processed += run_sharded_once(engine, events);
  }
  state.SetItemsProcessed(processed);
}
BENCHMARK(BM_ShardedShortRunFresh)->Arg(512)->Arg(8192);

}  // namespace

EMCAST_BENCH_MAIN();
