// Proves the zero-steady-state-allocation property of the event engine:
// after a warm-up that grows the slot slab and heap to the working-set
// size, a sustained push/pop/cancel churn performs no heap allocation at
// all.  This test replaces the global operator new/delete with counting
// versions, which is why it lives in its own binary (see CMakeLists.txt).

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "core/adaptive_host.hpp"
#include "experiments/churn_schedule.hpp"
#include "experiments/multigroup_sim.hpp"
#include "overlay/repair.hpp"
#include "sim/context.hpp"
#include "sim/event_queue.hpp"
#include "sim/fault_injector.hpp"
#include "sim/sharded_simulator.hpp"
#include "sim/simulator.hpp"
#include "traffic/cbr_source.hpp"
#include "traffic/trace_format.hpp"
#include "traffic/trace_source.hpp"

namespace {
std::atomic<std::size_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

// The nothrow forms (std::get_temporary_buffer, used by stable_sort) must
// be counted too, and must come from malloc like the rest: the library's
// own would be freed by the free() below, an alloc/dealloc mismatch.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  ++g_allocations;
  return std::malloc(size);
}

void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  ++g_allocations;
  return std::malloc(size);
}

// noinline: inlined into a caller, the free() would sit next to a
// visible new-expression and trip -Wmismatched-new-delete.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}

namespace emcast::sim {

/// White-box view of the queue's arenas.  The overflow heap grows through
/// std::aligned_alloc, which the counting operator new above cannot see,
/// so the steady-state proof additionally pins every calendar arena (node
/// pool, bucket heads, sort staging, overflow buffer) and the slab block
/// count across the churn.
class EventQueueTestPeer {
 public:
  struct Arenas {
    const void* pool;
    std::size_t pool_cap;
    std::size_t heads_cap;
    std::size_t scratch_cap;
    const void* overflow;
    std::size_t overflow_cap;
    std::size_t slab_blocks;
    std::size_t slots;
    bool operator==(const Arenas&) const = default;
  };
  static Arenas arenas(const EventQueue& q) {
    const CalendarPendingSet& cal = q.pending_set();
    return Arenas{cal.pool_data(),
                  cal.pool_capacity(),
                  cal.heads_capacity(),
                  cal.scratch_capacity(),
                  cal.overflow().buffer(),
                  cal.overflow().capacity(),
                  q.compact_slabs_.size() + q.fat_slabs_.size(),
                  q.occupant_[0].size() + q.occupant_[1].size()};
  }
};

namespace {

TEST(EngineAllocation, PushPopCancelChurnIsAllocationFree) {
  EventQueue q;
  constexpr int kOutstanding = 1000;
  std::vector<EventHandle> handles(kOutstanding);

  // Warm-up: reach the steady-state working set (slot slab blocks, heap
  // buffer, handle vector) once.
  for (int i = 0; i < kOutstanding; ++i) {
    handles[static_cast<std::size_t>(i)] =
        q.push(static_cast<double>(i), [] {});
  }
  for (int i = 0; i < kOutstanding; i += 2) {
    handles[static_cast<std::size_t>(i)].cancel();
  }
  while (!q.empty()) q.fire_next();

  const std::size_t before = g_allocations.load();
  const auto arenas_before = EventQueueTestPeer::arenas(q);
  // 10k-event churn: push, cancel half, pop the rest — ten rounds.
  double clock = static_cast<double>(kOutstanding);
  for (int round = 0; round < 10; ++round) {
    for (int i = 0; i < kOutstanding; ++i) {
      handles[static_cast<std::size_t>(i)] = q.push(clock + i, [] {});
    }
    for (int i = 0; i < kOutstanding; i += 2) {
      handles[static_cast<std::size_t>(i)].cancel();
    }
    while (!q.empty()) q.fire_next();
    clock += kOutstanding;
  }
  EXPECT_EQ(g_allocations.load(), before)
      << "event queue steady state must not allocate";
  EXPECT_TRUE(EventQueueTestPeer::arenas(q) == arenas_before)
      << "heap buffer / slab arenas must not grow or move in steady state";
}

TEST(EngineAllocation, ShardedSteadyStateIsAllocationFreeAndArenasPinned) {
  // The sharded layer's steady state: window rounds, cross-shard posts
  // into the mailbox staging vectors (a burst per window), drains, and
  // local scheduling.  After a warm-up run that grows every arena —
  // mailbox staging vectors, drain buffers, event slabs, pending sets — a
  // second identical run must allocate nothing and move nothing.
  // threads = 1 keeps the scheduler in-process (std::thread startup
  // allocates by design); the schedule is identical for every thread
  // count, so this pins the same code path the parallel runs execute.
  ShardedConfig cfg;
  cfg.shards = 2;
  cfg.threads = 1;
  cfg.lookahead = 0.5;
  ShardedSimulator sharded(cfg);
  sharded.set_message_handler([](Shard& shard,
                                 std::span<const CrossShardMsg> msgs) {
    struct Arrive {
      Shard* shard;
      Packet p;
      void operator()() const {
        // Only the leader packet (id 1) volleys onward, posting a burst
        // of 6, so each staging vector holds several messages per window,
        // of which 5 are inert dummies (id 0).
        if (p.id == 1 && shard->now() < 40.0) {
          for (int i = 0; i < 6; ++i) {
            Packet copy = p;
            copy.id = i == 0 ? 1 : 0;
            shard->post(1 - shard->index(), copy, 0,
                        shard->now() + shard->lookahead());
          }
        }
      }
    };
    for (const CrossShardMsg& m : msgs) {
      shard.sim().schedule_at(m.deliver_at, Arrive{&shard, m.packet});
    }
  });

  sharded.shard(0).sim().schedule_at(0.0, [&sharded] {
    Packet p;
    p.id = 1;
    sharded.shard(0).post(1, p, 0,
                          sharded.shard(0).now() + sharded.lookahead());
  });
  sharded.run(20.0);  // warm-up: grows staging vectors, slabs, drain buffers
  const std::size_t before = g_allocations.load();
  struct MailboxArenas {
    const void* staging[2];
    std::size_t staging_cap[2];
    std::size_t drain_cap[2];
  };
  auto arenas = [&] {
    MailboxArenas a{};
    for (std::size_t s = 0; s < 2; ++s) {
      const ShardMailbox* box = sharded.shard(s).incoming(1 - s);
      a.staging[s] = box->staged().data();
      a.staging_cap[s] = box->staging_capacity();
      a.drain_cap[s] = sharded.shard(s).drain_buffer_capacity();
    }
    return a;
  };
  const MailboxArenas warm = arenas();
  sharded.run(40.0);  // the volley continues: identical steady traffic
  EXPECT_EQ(g_allocations.load(), before)
      << "sharded window/mailbox steady state must not allocate";
  const MailboxArenas after = arenas();
  for (std::size_t s = 0; s < 2; ++s) {
    ASSERT_NE(warm.staging[s], nullptr) << "staging vector never grew";
    EXPECT_EQ(after.staging[s], warm.staging[s]) << "staging arena moved";
    EXPECT_EQ(after.staging_cap[s], warm.staging_cap[s])
        << "staging arena grew";
    EXPECT_EQ(after.drain_cap[s], warm.drain_cap[s]) << "drain arena grew";
  }
  EXPECT_GT(sharded.messages_posted(), 0u)
      << "the workload must actually post cross-shard messages";
}

TEST(EngineAllocation, SimContextDeliverSteadyStateIsAllocationFree) {
  // The engine-agnostic delivery path: SimContext::deliver through an
  // Engine's sharded backend — local deliveries (fat-slot event capture:
  // backend pointer + host + Packet) and cross-shard posts through the
  // mailbox machinery, with the registered DeliverFn fired per arrival.
  // After a warm-up run grows the arenas, identical steady traffic must
  // allocate nothing.  threads = 1 keeps the scheduler in-process; the
  // schedule is thread-count independent, so this pins the same code
  // path the parallel runs execute.
  EngineConfig ec;
  ec.kind = EngineKind::Sharded;
  ec.shards = 2;
  ec.threads = 1;
  ec.lookahead = 0.5;
  ec.shard_of = {0, 0, 1, 1};
  Engine engine(ec);
  engine.set_deliver([](SimContext ctx, HostId host, const Packet& p) {
    if (p.id == 1 && ctx.now() < 40.0) {
      // Volley onward: one local redelivery plus a cross-shard burst of 6
      // of which 5 are inert dummies.
      Packet copy = p;
      copy.id = 0;
      ctx.deliver(host, copy, ctx.now() + 0.125);  // local hop
      const HostId remote = host < 2 ? 2 : 0;
      for (int i = 0; i < 6; ++i) {
        copy.id = i == 0 ? 1 : 0;
        ctx.deliver(remote, copy, ctx.now() + ctx.lookahead());
      }
    }
  });
  SimContext s0 = engine.context(0);
  s0.schedule_at(0.0, [s0] {
    Packet p;
    p.id = 1;
    s0.deliver(2, p, s0.now() + 0.5);
  });
  engine.run(20.0);  // warm-up: grows staging vectors, slabs, drain buffers
  const std::size_t before = g_allocations.load();
  engine.run(40.0);  // identical steady traffic
  EXPECT_EQ(g_allocations.load(), before)
      << "SimContext::deliver steady state must not allocate";
  EXPECT_GT(engine.messages_posted(), 0u)
      << "the workload must actually post cross-shard messages";
}

TEST(EngineAllocation, SmallModeChurnIsAllocationFree) {
  // The size-adaptive pending set below the small-mode threshold: pure
  // heap-path churn through the calendar must stay allocation-free and
  // must never touch (allocate) the bucket arrays.
  EventQueue q;
  constexpr int kOutstanding = 500;  // below kSmallModeMin -> heap mode
  std::vector<EventHandle> handles(kOutstanding);
  for (int i = 0; i < kOutstanding; ++i) {
    handles[static_cast<std::size_t>(i)] =
        q.push(static_cast<double>(i), [] {});
  }
  while (!q.empty()) q.fire_next();

  const std::size_t before = g_allocations.load();
  double clock = static_cast<double>(kOutstanding);
  for (int round = 0; round < 10; ++round) {
    for (int i = 0; i < kOutstanding; ++i) {
      handles[static_cast<std::size_t>(i)] = q.push(clock + i, [] {});
    }
    for (int i = 0; i < kOutstanding; i += 2) {
      handles[static_cast<std::size_t>(i)].cancel();
    }
    while (!q.empty()) q.fire_next();
    clock += kOutstanding;
  }
  EXPECT_EQ(g_allocations.load(), before);
  EXPECT_TRUE(q.pending_set().small_mode());
  EXPECT_EQ(q.pending_set().bucket_count(), 0u)
      << "small-mode churn must leave the bucket machinery untouched";
}

TEST(EngineAllocation, WarmResetSecondRunIsAllocationFree) {
  // The warm-reuse contract (PR 5): after one run grows the working set,
  // reset_discarding() plus an identical second run allocate NOTHING —
  // the reset itself included — and every calendar arena stays pinned.
  // The workload exceeds the small-mode threshold, so the second run
  // re-promotes into the calendar layout from retained arrays.
  Simulator sim;
  constexpr int kOutstanding = 3000;
  auto workload = [&sim] {
    for (int i = 0; i < kOutstanding; ++i) {
      sim.schedule_in(0.001 * i + 0.001, [] {});
    }
    return sim.run();
  };
  const std::uint64_t events_first = workload();
  EXPECT_EQ(events_first, static_cast<std::uint64_t>(kOutstanding));

  const std::size_t before = g_allocations.load();
  sim.reset_discarding();
  EXPECT_EQ(g_allocations.load(), before) << "reset itself must not allocate";
  EXPECT_EQ(workload(), events_first);
  EXPECT_EQ(g_allocations.load(), before)
      << "the second warm run must not allocate";
}

TEST(EngineAllocation, ShardedEngineResetSecondRunIsAllocationFree) {
  // Engine::reset across the full sharded stack: kernels, mailbox staging
  // vectors and drain buffers all survive the reset warm, so the second
  // run — including fresh cross-shard traffic — allocates nothing and
  // moves nothing.  threads = 1 keeps the scheduler in-process
  // (std::thread startup allocates by design); the schedule is identical
  // for every thread count.
  EngineConfig ec;
  ec.kind = EngineKind::Sharded;
  ec.shards = 2;
  ec.threads = 1;
  ec.lookahead = 0.5;
  ec.shard_of = {0, 0, 1, 1};
  Engine engine(ec);
  engine.set_deliver([](SimContext ctx, HostId host, const Packet& p) {
    if (p.id == 1 && ctx.now() < 18.0) {
      Packet copy = p;
      copy.id = 0;
      ctx.deliver(host, copy, ctx.now() + 0.125);  // local hop
      const HostId remote = host < 2 ? 2 : 0;
      for (int i = 0; i < 6; ++i) {  // a cross-shard burst per hop
        copy.id = i == 0 ? 1 : 0;
        ctx.deliver(remote, copy, ctx.now() + ctx.lookahead());
      }
    }
  });
  auto kick = [&engine] {
    SimContext s0 = engine.context(0);
    s0.schedule_at(0.0, [s0] {
      Packet p;
      p.id = 1;
      s0.deliver(2, p, s0.now() + 0.5);
    });
    engine.run(20.0);
  };
  kick();  // warm-up run grows every arena
  ASSERT_GT(engine.messages_posted(), 0u);
  const std::uint64_t events_first = engine.events_executed();

  const std::size_t before = g_allocations.load();
  engine.reset();
  EXPECT_EQ(g_allocations.load(), before)
      << "Engine::reset must not allocate";
  kick();  // identical second run on warmed arenas
  EXPECT_EQ(g_allocations.load(), before)
      << "the second warm run must not allocate";
  EXPECT_EQ(engine.events_executed(), events_first)
      << "the warm rerun replays the identical schedule";
  EXPECT_GT(engine.messages_posted(), 0u)
      << "the second run must post cross-shard messages again";
}

TEST(EngineAllocation, ChurnReplayWarmRerunIsAllocationFree) {
  // The steady-state churn path (PR 6): FaultInjector chain events firing
  // on every kernel, each applying ChurnTree repairs (leave's grandparent
  // splice, join's closest-non-full attach) to its per-kernel replica,
  // while cross-shard volley traffic keeps the mailbox machinery hot.
  // The schedule, handler and RTT oracle are built ONCE at setup; after a
  // warm run, Engine::reset + ChurnTree::reset + re-arm + an identical
  // second run must allocate nothing — repairs mutate entirely inside
  // retained arenas.
  EngineConfig ec;
  ec.kind = EngineKind::Sharded;
  ec.shards = 2;
  ec.threads = 1;
  ec.lookahead = 0.5;
  ec.shard_of = {0, 0, 1, 1};
  Engine engine(ec);

  constexpr auto npos = overlay::MulticastTree::npos;
  std::vector<overlay::Member> members(4);
  for (std::size_t i = 0; i < 4; ++i) {
    members[i] = overlay::Member{i, static_cast<NodeId>(i)};
  }
  //  0 - 1 - 2 - 3 chain: leaving 1 or 2 splices, rejoining re-attaches.
  const overlay::MulticastTree base(members, {npos, 0, 1, 2}, 0, 4);
  std::vector<overlay::ChurnTree> replicas{overlay::ChurnTree(base),
                                           overlay::ChurnTree(base)};
  const overlay::RttFn rtt = [](std::size_t a, std::size_t b) {
    return a > b ? static_cast<Time>(a - b) : static_cast<Time>(b - a);
  };
  // Alternating leave/join of hosts 3 and 2 across the whole run.
  std::vector<FaultEvent> timeline;
  for (int i = 0; i < 40; ++i) {
    timeline.push_back(FaultEvent{0.45 * i + 0.2,
                                  static_cast<std::uint32_t>(i % 2),
                                  static_cast<std::int32_t>(3 - (i / 2) % 2)});
  }
  FaultInjector injector;
  injector.set_schedule(std::move(timeline));
  injector.set_handler([&replicas, &rtt](SimContext ctx,
                                         const FaultEvent& ev) {
    overlay::ChurnTree& t = replicas[ctx.shard_index()];
    const auto h = static_cast<std::size_t>(ev.subject);
    if (ev.kind == 0) {
      if (t.alive(h)) t.leave(h, rtt);
    } else if (!t.alive(h)) {
      t.join(h, rtt, 2);
    }
  });

  engine.set_deliver([](SimContext ctx, HostId host, const Packet& p) {
    if (p.id == 1 && ctx.now() < 18.0) {
      Packet copy = p;
      copy.id = 0;
      ctx.deliver(host, copy, ctx.now() + 0.125);
      const HostId remote = host < 2 ? 2 : 0;
      for (int i = 0; i < 6; ++i) {  // a cross-shard burst per hop
        copy.id = i == 0 ? 1 : 0;
        ctx.deliver(remote, copy, ctx.now() + ctx.lookahead());
      }
    }
  });
  auto kick = [&engine] {
    SimContext s0 = engine.context(0);
    s0.schedule_at(0.0, [s0] {
      Packet p;
      p.id = 1;
      s0.deliver(2, p, s0.now() + 0.5);
    });
    engine.run(20.0);
  };
  injector.arm(engine);
  kick();  // warm-up run grows every arena (trees' scratch included)
  ASSERT_GT(engine.messages_posted(), 0u);
  for (const auto& t : replicas) ASSERT_TRUE(t.valid());

  const std::size_t before = g_allocations.load();
  engine.reset();
  for (auto& t : replicas) t.reset(base);
  injector.arm(engine);
  kick();
  EXPECT_EQ(g_allocations.load(), before)
      << "warm churn replay (reset + re-arm + repairs) must not allocate";
  for (const auto& t : replicas) {
    EXPECT_TRUE(t.valid());
    EXPECT_EQ(t.alive_count(), replicas[0].alive_count())
        << "replicas diverged";
  }
}

TEST(EngineAllocation, ChurnStateWarmResetAndReplayIsAllocationFree) {
  // The replica every kernel holds under churn: ChurnState::reset rebuilds
  // the rejoin index and apply() runs the router-level join.  After one
  // pass, a warm reset plus the replay of the same resolved schedule
  // (rejoins included) must allocate nothing.
  overlay::MultiGroupConfig mc;
  mc.groups = 2;
  const overlay::MultiGroupNetwork mg(experiments::default_network(96, 42),
                                      mc);
  experiments::ChurnConfig cfg;
  cfg.enabled = true;
  cfg.leave_rate = 0.4;
  cfg.crash_fraction = 0.6;
  cfg.rejoin_rate = 2.0;
  cfg.domain_failure_rate = 0.5;
  cfg.detection_timeout = 0.05;
  cfg.flash_join_at = 2.0;
  cfg.flash_join_count = 8;
  const std::vector<std::size_t> sources{mg.source(0), mg.source(1)};
  const experiments::ChurnSchedule schedule =
      experiments::make_churn_schedule(cfg, mg, sources, {}, 4.0);
  std::size_t joins = 0;
  for (const FaultEvent& ev : schedule.actions) {
    joins += static_cast<experiments::ChurnAction>(ev.kind) ==
             experiments::ChurnAction::JoinComplete;
  }
  ASSERT_GT(joins, 10u);

  experiments::ChurnState state;
  state.reset(mg, cfg);
  for (const FaultEvent& ev : schedule.actions) state.apply(ev, ev.at);
  const std::size_t reparented = state.reparented();

  const std::size_t before = g_allocations.load();
  state.reset(mg, cfg);
  for (const FaultEvent& ev : schedule.actions) state.apply(ev, ev.at);
  EXPECT_EQ(g_allocations.load(), before)
      << "warm ChurnState reset + replay (rejoin index, router-level "
         "joins) must not allocate";
  EXPECT_EQ(state.applied(), schedule.actions.size());
  EXPECT_EQ(state.reparented(), reparented);
}

TEST(EngineAllocation, TraceReplaySteadyStateIsAllocationFree) {
  // The trace-replay hot path (PR 7): TraceSource walking a validated
  // buffer through the event loop.  Building the trace and the first
  // replay (which grows the event slab) are setup; a warm rerun — start()
  // rewinds the cursor and the id sequence — must allocate nothing: the
  // cursor is pointer arithmetic, the self-rescheduling capture fits the
  // compact slot pool, and the sink is an in-place InlineFn.
  traffic::TraceWriter w;
  for (int i = 0; i < 5000; ++i) {
    // Varying sizes/ids keep the varint decode paths honest; bursts of 5
    // share an instant so the multi-record emit loop runs too.
    w.append(0.001 * (i / 5), 1000.0 + (i % 7) * 128.5, i % 3, i % 3);
  }
  traffic::TraceBuffer buf(w.finish());
  traffic::TraceSourceConfig cfg;
  cfg.trace = &buf;
  traffic::TraceSource src(cfg);
  ASSERT_EQ(src.matched_records(), 5000u);

  Simulator sim;
  std::uint64_t delivered = 0;
  auto replay = [&] {
    delivered = 0;
    src.start(sim, [&delivered](Packet) { ++delivered; }, 10.0);
    sim.run(10.0);
  };
  replay();  // warm-up grows the slot slab / pending set
  ASSERT_EQ(delivered, 5000u);

  const std::size_t before = g_allocations.load();
  sim.reset_discarding();
  replay();
  EXPECT_EQ(delivered, 5000u);
  EXPECT_EQ(g_allocations.load(), before)
      << "trace replay steady state must not allocate";
}

TEST(EngineAllocation, BatchSourceTrainSteadyStateIsAllocationFree) {
  // A CBR source emitting in trains: each train schedules its ticks at
  // its start.  The first run grows the slab to the train's working set;
  // a warm rerun — start() resets the id sequence, the train capture
  // fits the slot pools — must allocate nothing.
  traffic::CbrConfig cfg;
  cfg.rate = mbps(1.0);
  cfg.packet_size = bytes(1000);
  traffic::CbrSource src(cfg);

  Simulator sim;
  std::uint64_t delivered = 0;
  auto run = [&] {
    delivered = 0;
    src.start(sim, [&delivered](Packet) { ++delivered; }, 5.0);
    sim.run(5.0);
  };
  run();  // warm-up grows the slot slab
  const std::uint64_t first = delivered;
  ASSERT_GT(first, 100u);

  const std::size_t before = g_allocations.load();
  sim.reset_discarding();
  run();
  EXPECT_EQ(delivered, first);
  EXPECT_EQ(g_allocations.load(), before)
      << "source train steady state must not allocate";
}

TEST(EngineAllocation, RegulatedPipelineSteadyStateIsAllocationFree) {
  // The model pipeline of every regulated forwarder: K token buckets or
  // the (σ, ρ, λ) bank feeding the adversarial LIFO general MUX.  Each
  // flow sends a burst every second, above σ in the high-load half of an
  // 8 s cycle (0.75 of C) and one packet in the low half (0.19 of C), so
  // every FIFO backs up (the MUX's low class past the ring's initial
  // size) and the Adaptive host switches models both ways, migrating the
  // bank's backlog into the buckets.  All times are dyadic and the bank
  // period is exactly 1 s (σ̂ = ρ̂(1−ρ̂), no σ margin), so the traffic
  // grid and the TDMA frame stay in phase and the run is periodic.
  // After a warm-up of four cycles grows the rings and the event slabs,
  // four more cycles must allocate nothing in each model.
  struct Burst {
    Simulator* sim;
    core::AdaptiveHost* host;
    std::uint64_t* next_id;
    void operator()() const {
      const bool high = static_cast<long>(sim->now() / 4.0) % 2 == 0;
      for (FlowId f = 0; f < 3; ++f) {
        for (int i = 0; i < (high ? 4 : 1); ++i) {
          Packet p;
          p.id = (*next_id)++;
          p.flow = f;
          p.size = 1000.0;
          host->offer(p);
        }
      }
      sim->schedule_in(1.0, *this);
    }
  };
  for (const core::ControlMode mode :
       {core::ControlMode::SigmaRho, core::ControlMode::SigmaRhoLambda,
        core::ControlMode::Adaptive}) {
    SCOPED_TRACE(static_cast<int>(mode));
    Simulator sim;
    core::AdaptiveHostConfig cfg;
    cfg.flows = {{0, 3000.0, 4000.0, 0}, {1, 3000.0, 4000.0, 1},
                 {2, 3000.0, 4000.0, 1}};
    cfg.capacity = 16000.0;
    cfg.mode = mode;
    cfg.mux_discipline = core::MuxDiscipline::PriorityLifoLowest;
    cfg.threshold_utilization = 0.5;
    cfg.estimator_window = 1.0;
    cfg.control_interval = 0.25;
    cfg.lambda_sigma_margin = 1.0;
    std::uint64_t delivered = 0;
    core::AdaptiveHost host(sim, cfg, [&delivered](Packet) { ++delivered; });
    std::uint64_t next_id = 0;
    sim.schedule_at(0.0, Burst{&sim, &host, &next_id});
    sim.run(32.0);  // warm-up: four load cycles

    const std::size_t before = g_allocations.load();
    const std::uint64_t delivered_warm = delivered;
    const std::uint64_t switches_warm = host.mode_switches();
    sim.run(64.0);
    EXPECT_EQ(g_allocations.load(), before)
        << "regulated pipeline steady state must not allocate";
    EXPECT_GT(delivered, delivered_warm);
    if (mode == core::ControlMode::Adaptive) {
      EXPECT_GE(host.mode_switches(), switches_warm + 2)
          << "the window must switch models both ways";
    }
  }
}

TEST(EngineAllocation, SimulatorEventLoopIsAllocationFree) {
  // The full scheduling loop — Simulator::schedule_in through run() — with
  // a self-rescheduling callback and a capture-carrying payload.
  Simulator sim;
  struct Tick {
    Simulator* sim;
    int* remaining;
    void operator()() const {
      if (--*remaining > 0) sim->schedule_in(0.001, Tick{sim, remaining});
    }
  };
  // Warm-up round grows the (one-slot) working set.
  int remaining = 100;
  sim.schedule_in(0.001, Tick{&sim, &remaining});
  sim.run();

  const std::size_t before = g_allocations.load();
  remaining = 10000;
  sim.schedule_in(0.001, Tick{&sim, &remaining});
  sim.run();
  EXPECT_EQ(remaining, 0);
  EXPECT_EQ(g_allocations.load(), before)
      << "simulator event loop steady state must not allocate";
}

}  // namespace
}  // namespace emcast::sim
