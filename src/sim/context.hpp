#pragma once
// Engine-agnostic simulation API.
//
// Components (hosts, regulators, multiplexers, traffic sources)
// talk to the kernel through a `SimContext` — a 16-byte non-owning handle
// — instead of holding a concrete `Simulator&`.  The same component code
// then runs unchanged on the single-threaded kernel and inside one shard
// of a rounds backend: scheduling always targets the *local* kernel (a
// shard's kernel IS a full Simulator, so schedule_in/at compile to
// the exact same inlined push with zero extra dispatch), and the one
// genuinely location-dependent operation — handing a packet to another
// host — goes through `deliver()`, which resolves the destination:
//
//   single-threaded backend:  schedule the model's delivery handler on
//                             the (only) kernel at the arrival time;
//   sharded backend, local:   same, on the owning shard's kernel;
//   sharded backend, remote:  stage the packet in the cross-shard mailbox
//                             (Shard::post, which asserts the conservative
//                             lookahead contract deliver_at >= now + L).
//
// In every case the registered DeliverFn fires AT the arrival time, as an
// ordinary event on the kernel that owns the destination host — so model
// code cannot observe which backend it runs on, and event *times* are
// computed from the same float operands in the same order on both.  That
// is the property the differential determinism suites pin (byte-identical
// canonical traces across engines, shard counts and thread counts).
//
// `Engine` is the harness that owns a backend (one Simulator, or a
// rounds backend plus the host→shard map) and vends SimContexts.  A
// bare `Simulator&` also converts implicitly to a SimContext — scheduling
// works, deliver() does not (it needs an Engine with a handler) — so
// single-kernel call sites (unit tests, calibration probes) need no
// ceremony.
//
// Contracts preserved from the Simulator API:
//   - zero steady-state allocation: SimContext is two pointers, passed by
//     value; schedule_in/at forward to the slab-backed kernel unchanged;
//     deliver()'s event capture (backend*, host, Packet: 56 B) fills one
//     64-byte event slot;
//   - byte-identical (time, seq) ordering: the handle adds no reordering
//     of its own — local scheduling order is the call order, cross-shard
//     drains keep the (deliver_at, source shard, seq) merge order.

#include <cassert>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "sim/packet.hpp"
#include "sim/process_backend.hpp"
#include "sim/shard.hpp"
#include "sim/sharded_simulator.hpp"
#include "sim/simulator.hpp"
#include "sim/transport.hpp"
#include "util/types.hpp"

namespace emcast::sim {

class SimContext;
class Engine;

/// Model-level delivery callback, registered once on the Engine: invoked
/// at the delivery time, as an event on the kernel owning `host`, with
/// that kernel's context.  Stored in the Engine (setup-time allocation is
/// fine); the per-delivery event only captures a pointer to it.
using DeliverFn = std::function<void(SimContext, HostId, const Packet&)>;

namespace detail {

/// One per kernel: the glue a SimContext dereferences.  Owned by the
/// Engine, address-stable for the Engine's lifetime.
struct ContextBackend {
  Simulator* sim = nullptr;
  Shard* shard = nullptr;  ///< null on the single-threaded backend
  std::uint32_t index = 0;
  /// host → owning backend index; null means every host is local.
  const std::uint32_t* shard_of = nullptr;
  std::size_t shard_of_size = 0;
  const DeliverFn* on_deliver = nullptr;
};

}  // namespace detail

/// The 16-byte engine-agnostic kernel handle (see the header comment).
/// Owns nothing and is trivially copyable: pass by value, capture in
/// event lambdas.  It must not outlive the Engine/kernel that issued it,
/// but it DOES stay valid across Engine::reset()/Simulator::reset — the
/// backend records and kernels it points at are address-stable for the
/// engine's lifetime, so warm-reuse callers may keep contexts across
/// runs (the events and handles scheduled through them do not survive).
class SimContext {
 public:
  SimContext() = default;

  /// Implicit view of a bare kernel: scheduling works, deliver() does not
  /// (there is no host map or handler).  This is the migration path for
  /// single-kernel call sites — components taking SimContext accept a
  /// plain Simulator unchanged.
  /*implicit*/ SimContext(Simulator& sim) : sim_(&sim) {}

  bool valid() const { return sim_ != nullptr; }

  Time now() const { return sim_->now(); }

  /// Schedule fn at now()+delay on the local kernel (see
  /// Simulator::schedule_in for the zero-allocation contract).
  template <typename F>
  EventHandle schedule_in(Time delay, F&& fn) const {
    return sim_->schedule_in(delay, std::forward<F>(fn));
  }

  /// Schedule fn at absolute local time t >= now().
  template <typename F>
  EventHandle schedule_at(Time t, F&& fn) const {
    return sim_->schedule_at(t, std::forward<F>(fn));
  }

  /// Cancel a previously scheduled event (idempotent, safe after fire).
  void cancel(EventHandle& h) const { h.cancel(); }

  /// Request the local kernel's run() to return after the current event.
  /// (On the sharded backend this stops the owning shard's window run;
  /// the round protocol completes the window normally.)
  void stop() const { sim_->stop(); }

  // -- backend introspection ----------------------------------------------

  /// Index of the kernel this context schedules on (0 on the single
  /// backend).  Models use it to index per-shard state (tracers, traces)
  /// without any cross-thread sharing.
  std::size_t shard_index() const {
    return backend_ != nullptr ? backend_->index : 0;
  }

  /// The conservative lookahead of a rounds backend (0 when single).
  Time lookahead() const {
    return backend_ != nullptr && backend_->shard != nullptr
               ? backend_->shard->lookahead()
               : 0.0;
  }

  /// Location-transparent handoff: at simulated time `at`, the Engine's
  /// DeliverFn fires with (owning kernel's context, host, p).  Requires an
  /// Engine-built context.  On the sharded backend a remote destination
  /// must satisfy the lookahead contract (at >= now + lookahead), which
  /// Shard::post asserts; a local destination (any destination, on the
  /// single backend) only needs at >= now.
  void deliver(HostId host, const Packet& p, Time at) const {
    const detail::ContextBackend* b = backend_;
    assert(b != nullptr && b->on_deliver != nullptr &&
           "SimContext::deliver needs an Engine-built context "
           "(set_deliver installed)");
    assert((b->shard_of == nullptr ||
            static_cast<std::size_t>(host) < b->shard_of_size) &&
           "deliver: host beyond the engine's shard_of map");
    const std::uint32_t dest =
        b->shard_of != nullptr ? b->shard_of[host] : b->index;
    if (b->shard == nullptr || dest == b->index) {
      sim_->schedule_at(at, [b, host, p] {
        (*b->on_deliver)(SimContext(b), host, p);
      });
    } else {
      b->shard->post(dest, p, host, at);
    }
  }

 private:
  friend class Engine;
  explicit SimContext(const detail::ContextBackend* b)
      : sim_(b->sim), backend_(b) {}

  Simulator* sim_ = nullptr;
  const detail::ContextBackend* backend_ = nullptr;
};

static_assert(sizeof(SimContext) == 16, "SimContext is a two-pointer handle");

/// Which kernel an Engine stands up.  Purely a performance/scale knob:
/// models written against SimContext produce byte-identical traces on
/// all three (given the model's event times are tie-free across hosts —
/// see docs/engine.md).  Process runs the same round loop as Sharded, but
/// with one forked OS process per shard group on the same host, its
/// synchronisation and handoffs in shared memory
/// (sim/process_backend.hpp).
enum class EngineKind { Single, Sharded, Process };

const char* to_string(EngineKind kind);

struct EngineConfig {
  EngineKind kind = EngineKind::Single;
  /// -- Sharded and Process ------------------------------------------------
  std::size_t shards = 1;
  /// Worker threads; 0 = min(shards, hardware_concurrency).  Results are
  /// identical for every value (the S-over-T contract of RoundsCore).
  std::size_t threads = 0;
  /// Conservative lookahead: strict lower bound on the simulated-time
  /// delay of any cross-shard deliver().  Must be > 0 when sharded.
  Time lookahead = 0;
  /// Inert: mailboxes have no capacity; kept while perfbench names it.
  std::size_t mailbox_capacity = 4096;
  /// host → owning shard.  Must cover every HostId the model passes to
  /// context_for_host / deliver (the multigroup experiments derive one
  /// entry per host from the overlay partition).  Copied into the
  /// Engine; entries are range-checked at construction, coverage is
  /// asserted at the lookup sites.  May be empty when shards == 1
  /// (everything local).
  std::vector<std::uint32_t> shard_of;
  /// Optional per-shard-pair lookahead matrix (shards² entries, flattened
  /// [src * shards + dst]); empty = the uniform scalar above.  See
  /// RoundsCore::set_lookahead_matrix for the contract — the
  /// experiments derive it from the partition's per-pair minimum
  /// cross-edge delay to widen the conservative windows.
  std::vector<Time> lookahead_matrix;
  /// -- Process only --------------------------------------------------------
  /// Worker processes; 0 = min(shards, hardware_concurrency).  A
  /// throughput knob like `threads` — results are identical for every
  /// value (same contiguous shard blocks).
  std::size_t processes = 0;
  /// Selects nothing: shared memory is the only transport.
  TransportKind transport = TransportKind::Shm;
  /// The process backend's one deadline: the parent fails the run with
  /// std::runtime_error once this long passes with no barrier advance and
  /// no frame from any worker.
  double timeout_seconds = 30.0;
};

/// Owns one backend — a single-threaded Simulator, a ShardedSimulator or a
/// ProcessSimulator — plus the delivery routing; vends SimContexts to the
/// model.  Both rounds backends derive from RoundsCore, through which the
/// engine reaches their shards, lookahead state, reset and telemetry.
///
/// An Engine is built once and may run MANY simulations: reset() rewinds
/// the backend between runs with every arena kept warm (event slabs,
/// pending-set buffers, mailbox staging and drain vectors), so the second
/// and later runs allocate nothing in steady state — the warm-sweep path
/// of experiments::sweep_multigroup.  The backend kind, shard count and
/// worker count are construction-time choices; the host->shard map and
/// the lookahead may be re-derived per run through the rebinding reset
/// overload (sweep points build different overlays).
class Engine {
 public:
  explicit Engine(EngineConfig config);
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Rewind for another run, keeping the current routing (shard_of map,
  /// lookahead) and the installed DeliverFn.
  ///
  /// Survives: every backend arena (see the class comment), the routing
  /// record addresses — contexts obtained from context()/context_for_host
  /// BEFORE the reset remain valid and equivalent to freshly obtained
  /// ones.  Invalidated: all pending events (discarded — a horizon-bounded
  /// run legitimately leaves beyond-horizon events behind, so Engine
  /// reset always discards), every EventHandle (permanently stale, safe
  /// no-ops), clocks (rewound to 0) and telemetry counters.  Model state
  /// the engine does not own — components, tracers, RNG streams — must be
  /// rebuilt by the caller; set_deliver() may be called again to install
  /// the new run's handler.  Throws std::logic_error if invoked from
  /// inside an executing event.  Never allocates.
  void reset();

  /// Rounds backends only: reset AND rebind the routing for the next run
  /// — install a new host->shard map (validated like the constructor's),
  /// a new conservative lookahead (> 0, finite) and the pair lookahead
  /// matrix for the new routing (shards² entries, or empty for the
  /// uniform scalar; see RoundsCore::set_lookahead_matrix).  The shard
  /// count itself cannot change.  Any installed plan and matrix are
  /// cleared first (they were derived for the old routing); if matrix
  /// validation throws, the engine is left reset on the uniform scalar.
  /// Throws std::invalid_argument on a Single engine.
  void reset(std::vector<std::uint32_t> shard_of, Time lookahead,
             std::vector<Time> lookahead_matrix = {});

  EngineKind kind() const { return config_.kind; }
  /// The (normalised) configuration the engine was built with; the
  /// warm-reuse callers compare it to decide reset vs. rebuild.
  const EngineConfig& config() const { return config_; }
  std::size_t shard_count() const { return backends_.size(); }
  std::size_t thread_count() const {
    return sharded_ != nullptr ? sharded_->thread_count() : 1;
  }
  /// Worker processes of the Process backend (0 otherwise).
  std::size_t process_count() const {
    return process_ != nullptr ? process_->process_count() : 0;
  }
  Time lookahead() const { return config_.lookahead; }

  /// Install the model's delivery handler (before run(); required for any
  /// SimContext::deliver call).
  void set_deliver(DeliverFn fn) { deliver_ = std::move(fn); }

  /// Rounds backends only (no-op on Single — one kernel has no windows):
  /// install a piecewise-constant lookahead plan for runs whose
  /// cross-shard edge set changes mid-run (see
  /// RoundsCore::set_lookahead_plan for the contract, the window-boundary
  /// remap rule and why a pair matrix must not be installed with it).
  /// Cleared by the rebinding reset; retained across plain reset().
  void set_lookahead_plan(std::vector<LookaheadEpoch> plan) {
    if (core_ != nullptr) core_->set_lookahead_plan(std::move(plan));
  }

  /// Process only (no-op elsewhere — in-process backends read model state
  /// directly): install the result-marshalling hooks that carry each
  /// shard's model results from its worker back to the parent (see
  /// ShardResultWriter/Reader).  Install before run(), alongside
  /// set_deliver; cleared the same way models clear their DeliverFn.
  void set_shard_results(ShardResultWriter writer, ShardResultReader reader) {
    if (process_ != nullptr) {
      process_->set_result_hooks(std::move(writer), std::move(reader));
    }
  }

  /// Context of kernel `shard` (0 on the single backend).
  SimContext context(std::size_t shard = 0) {
    return SimContext(&backends_[shard]);
  }

  /// Context of the kernel owning `host` — components are constructed
  /// against this, which is what "per-shard component ownership" means.
  SimContext context_for_host(HostId host) {
    return context(shard_of_host(host));
  }

  std::size_t shard_of_host(HostId host) const {
    if (config_.shard_of.empty()) return 0;
    assert(static_cast<std::size_t>(host) < config_.shard_of.size() &&
           "host beyond the engine's shard_of map");
    return config_.shard_of[static_cast<std::size_t>(host)];
  }

  /// Advance the backend until it drains or the clock passes `until`
  /// (events at exactly `until` execute, on both backends).  Returns the
  /// number of events executed by this call.
  std::uint64_t run(Time until = kTimeInfinity);

  // -- telemetry (zeros where the single backend has no counterpart) ------
  std::uint64_t events_executed() const {
    return core_ != nullptr ? core_->events_executed()
                            : single_->events_executed();
  }
  std::uint64_t rounds() const {
    return core_ != nullptr ? core_->rounds() : 0;
  }
  std::uint64_t messages_posted() const {
    return core_ != nullptr ? core_->messages_posted() : 0;
  }

 private:
  EngineConfig config_;
  std::unique_ptr<Simulator> single_;
  std::unique_ptr<ShardedSimulator> sharded_;
  std::unique_ptr<ProcessSimulator> process_;
  /// The rounds backend's shared core (sharded_ or process_); null on
  /// the single backend.
  RoundsCore* core_ = nullptr;
  DeliverFn deliver_;
  std::vector<detail::ContextBackend> backends_;
};

}  // namespace emcast::sim
