#include "experiments/multigroup_sim.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <tuple>

#include "core/mux.hpp"
#include "netcalc/dsct_bounds.hpp"
#include "sim/context.hpp"
#include "sim/fault_injector.hpp"
#include "sim/loss_model.hpp"
#include "sim/pending_entry.hpp"
#include "sim/tracer.hpp"
#include "topology/backbone.hpp"
#include "topology/hierarchical.hpp"
#include "topology/host_table.hpp"
#include "traffic/trace_recorder.hpp"
#include "traffic/trace_source.hpp"
#include "util/bytes.hpp"
#include "util/stats.hpp"

namespace emcast::experiments {

const char* to_string(RegulationScheme scheme) {
  switch (scheme) {
    case RegulationScheme::None: return "unregulated";
    case RegulationScheme::CapacityAware: return "capacity-aware";
    case RegulationScheme::SigmaRho: return "(sigma,rho)";
    case RegulationScheme::SigmaRhoLambda: return "(sigma,rho,lambda)";
    case RegulationScheme::Adaptive: return "adaptive";
  }
  return "?";
}

const char* to_string(TreeFamily family) {
  return family == TreeFamily::Dsct ? "DSCT" : "NICE";
}

const topology::AttachedNetwork& default_network(std::size_t hosts,
                                                 std::uint64_t seed) {
  static std::mutex mutex;
  static std::map<std::pair<std::size_t, std::uint64_t>,
                  std::unique_ptr<topology::AttachedNetwork>>
      cache;
  std::lock_guard lock(mutex);
  auto& slot = cache[{hosts, seed}];
  if (!slot) {
    const auto backbone = topology::make_fig5_backbone();
    topology::HostAttachmentConfig hc;
    hc.host_count = hosts;
    hc.seed = seed;
    slot = std::make_unique<topology::AttachedNetwork>(
        topology::attach_hosts(backbone, hc));
  }
  return *slot;
}

const topology::AttachedNetwork& default_hierarchical_network(
    std::size_t routers, std::size_t hosts, std::uint64_t seed) {
  static std::mutex mutex;
  static std::map<std::tuple<std::size_t, std::size_t, std::uint64_t>,
                  std::unique_ptr<topology::AttachedNetwork>>
      cache;
  std::lock_guard lock(mutex);
  auto& slot = cache[{routers, hosts, seed}];
  if (!slot) {
    topology::HierarchicalConfig hc;
    hc.routers = routers;
    hc.hosts = hosts;
    hc.seed = seed;
    slot = std::make_unique<topology::AttachedNetwork>(
        topology::make_hierarchical(hc));
  }
  return *slot;
}

namespace {

overlay::TreeScheme scheme_for(const MultiGroupSimConfig& config) {
  const bool cap = config.regulation == RegulationScheme::CapacityAware;
  if (config.family == TreeFamily::Dsct) {
    return cap ? overlay::TreeScheme::CapacityAwareDsct
               : overlay::TreeScheme::Dsct;
  }
  return cap ? overlay::TreeScheme::CapacityAwareNice
             : overlay::TreeScheme::Nice;
}

overlay::MultiGroupNetwork build_trees(const MultiGroupSimConfig& config) {
  const auto& net =
      config.routers > 0
          ? default_hierarchical_network(config.routers, config.hosts,
                                         config.topology_seed)
          : default_network(config.hosts, config.topology_seed);
  overlay::MultiGroupConfig mc;
  mc.groups = config.groups;
  mc.scheme = scheme_for(config);
  mc.k = config.cluster_k;
  mc.utilization = config.utilization;
  mc.seed = config.seed;
  return overlay::MultiGroupNetwork(net, mc);
}

/// True when `engine` can be Engine::reset() for `config` instead of
/// rebuilt: same backend kind and same construction-time knobs (the
/// host->shard map and lookahead are rebound per run, so they are not
/// compared).
bool engine_reusable(const sim::Engine& engine,
                     const MultiGroupSimConfig& config) {
  const sim::EngineConfig& ec = engine.config();
  if (ec.kind != config.engine) return false;
  if (ec.kind == sim::EngineKind::Single) return true;
  if (ec.shards != std::max<std::size_t>(1, config.shards)) return false;
  if (ec.kind == sim::EngineKind::Process) {
    return ec.processes == config.processes &&
           ec.timeout_seconds == config.process_timeout_seconds;
  }
  return ec.threads == config.threads;
}

/// Rounds-engine (Sharded/Process) set-up: derive the attachment-domain
/// partition for a built overlay (weighted by forwarding fan-out),
/// evaluate it, and fill a sim::EngineConfig with the conservative
/// lookahead
///
///   fwd_overhead + min cross-shard edge propagation.
///
/// The bound survives MUX/uplink serialisation because cross-shard posts
/// are issued at the *exit* of a host's output stage: queueing is paid
/// before the post, and replication / per-packet copy offsets only add
/// to the handoff delay (float addition is monotone), so every arrival
/// satisfies deliver_at >= post time + lookahead.
struct RoundsEngineSetup {
  sim::EngineConfig engine;
  std::size_t cross_edges = 0;
  std::size_t total_edges = 0;
};

RoundsEngineSetup rounds_engine_setup(const overlay::MultiGroupNetwork& mg,
                                      const MultiGroupSimConfig& config) {
  RoundsEngineSetup setup;
  const std::size_t shards = std::max<std::size_t>(1, config.shards);
  const Time fwd_overhead = config.fwd_overhead;
  topology::HostPartition partition = overlay::derive_partition(mg, shards);
  const overlay::PartitionStats pstats =
      overlay::evaluate_partition(mg, partition.shard_of);
  setup.engine.kind = config.engine;
  setup.engine.shards = shards;
  setup.engine.threads = config.threads;
  if (config.engine == sim::EngineKind::Process) {
    setup.engine.processes = config.processes;
    setup.engine.timeout_seconds = config.process_timeout_seconds;
  }
  setup.engine.lookahead =
      fwd_overhead +
      (pstats.cross_edges != 0 ? pstats.min_cross_delay : 0.0);
  // Per-pair lookahead matrix: every cross-shard handoff is a tree-edge
  // parent->child forward whose delay is >= fwd_overhead +
  // member_delay(parent, child), so fwd_overhead + the pair's minimum
  // cross-edge delay bounds every src->dst post — the same argument the
  // scalar uses, applied per ordered pair.  Pairs no tree edge crosses
  // stay +infinity (edge-free).  Sized to the requested shard count:
  // shards the partition left empty have no edges either way.
  const std::size_t S = shards;
  setup.engine.lookahead_matrix.assign(S * S, kTimeInfinity);
  for (std::size_t src = 0; src < pstats.shards; ++src) {
    for (std::size_t dst = 0; dst < pstats.shards; ++dst) {
      if (src == dst) continue;
      const Time d = pstats.pair_min_delay[src * pstats.shards + dst];
      if (std::isfinite(d)) {
        setup.engine.lookahead_matrix[src * S + dst] = fwd_overhead + d;
      }
    }
  }
  setup.engine.shard_of = std::move(partition.shard_of);
  setup.cross_edges = pstats.cross_edges;
  setup.total_edges = pstats.total_edges;
  return setup;
}

}  // namespace

std::uint64_t workload_fingerprint(const MultiGroupSimConfig& config) {
  std::uint64_t h = traffic::trace_fingerprint_seed();
  h = traffic::trace_fingerprint_mix(
      h, static_cast<std::uint64_t>(config.kind));
  h = traffic::trace_fingerprint_mix(
      h, static_cast<std::uint64_t>(config.groups));
  h = traffic::trace_fingerprint_mix(h, config.seed);
  h = traffic::trace_fingerprint_mix(
      h, std::bit_cast<std::uint64_t>(config.duration));
  return h;
}

TreeStructureResult evaluate_trees(const MultiGroupSimConfig& config) {
  const auto mg = build_trees(config);
  TreeStructureResult r;
  for (int g = 0; g < mg.groups(); ++g) {
    const auto& t = mg.tree(g);
    r.max_layers = std::max(r.max_layers, t.hierarchy_layers());
    r.max_height_hops = std::max(r.max_height_hops, t.height_hops());
    r.max_fanout = std::max(r.max_fanout, t.max_fanout());
  }
  return r;
}

MultiGroupSimResult run_multigroup(const MultiGroupSimConfig& config) {
  std::unique_ptr<sim::Engine> local_slot;
  return run_multigroup(config, local_slot);
}

MultiGroupSimResult run_multigroup(const MultiGroupSimConfig& config,
                                   std::unique_ptr<sim::Engine>& engine_slot) {
  // Failure-injection knobs are validated up front: a negative loss_rate
  // used to silently disable loss instead of failing, and loss_burst was
  // only checked once a loss model was actually constructed.
  if (!(config.loss_rate >= 0.0 && config.loss_rate <= 1.0)) {
    throw std::invalid_argument(
        "run_multigroup: loss_rate must be in [0, 1]");
  }
  if (!(config.loss_burst >= 1.0)) {
    throw std::invalid_argument(
        "run_multigroup: loss_burst must be >= 1 (mean burst length)");
  }
  // Every scheme divides by ρ̄ to size capacities: 0 would give infinite
  // uplinks and a negative value a schedule in the past.
  if (!(config.utilization > 0.0 && config.utilization <= 1.0)) {
    throw std::invalid_argument(
        "run_multigroup: utilization must be in (0, 1]");
  }
  if (config.churn.enabled) config.churn.validate();
  if (config.record != nullptr &&
      config.record->lanes() < static_cast<std::size_t>(config.groups)) {
    throw std::invalid_argument(
        "run_multigroup: recorder needs one lane per group");
  }
  // Recording captures at the source boundary, which on the process
  // engine fires inside the forked workers: the caller's recorder would
  // stay empty (the workers' copies die at _exit).  Reject rather than
  // silently return an empty trace.  Replay is fine — the trace buffer is
  // read-only and every worker inherits it through fork.
  if (config.record != nullptr &&
      config.engine == sim::EngineKind::Process) {
    throw std::invalid_argument(
        "run_multigroup: record is not supported on the process engine "
        "(sources emit in worker processes; record on single/sharded and "
        "replay the trace here instead)");
  }

  const auto mg = build_trees(config);
  const std::size_t n = mg.host_count();

  // Resolve the churn timeline before the engine choice: the sharded
  // setup derives its lookahead-epoch plan from it.  Group sources are
  // protected — the paper's model keeps each group rooted at its source.
  const bool churn_on = config.churn.enabled;
  ChurnSchedule churn_schedule;
  if (churn_on) {
    std::vector<std::size_t> protected_hosts;
    protected_hosts.reserve(static_cast<std::size_t>(mg.groups()));
    for (int g = 0; g < mg.groups(); ++g) {
      protected_hosts.push_back(mg.source(g));
    }
    const ChurnCostModel cost{config.fwd_overhead, config.fwd_cpu_rate};
    churn_schedule = make_churn_schedule(config.churn, mg, protected_hosts,
                                         cost, config.duration);
  }

  ScenarioConfig sc;
  sc.kind = config.kind;
  sc.flows = config.groups;
  sc.seed = config.seed;
  sc.headroom = config.headroom;
  sc.envelope_calibration = config.duration + 5.0;
  Scenario scenario = make_scenario(sc);
  const Rate capacity = scenario.capacity_for(config.utilization);

  // ---- engine selection ---------------------------------------------------
  // The model below is written once against sim::SimContext; this block is
  // the only place the backend choice appears.  A compatible warm engine
  // in the slot is reset (arenas stay warm across sweep points — each
  // point's trees yield a new partition, rebound here); anything else is
  // built fresh into the slot.
  MultiGroupSimResult r;
  const bool reuse = engine_slot && engine_reusable(*engine_slot, config);
  if (config.engine != sim::EngineKind::Single) {
    // Sharded and Process share the partition and lookahead derivation —
    // the process backend is the same round protocol with the shard
    // blocks owned by forked workers instead of threads.
    RoundsEngineSetup setup = rounds_engine_setup(mg, config);
    r.cross_edges = setup.cross_edges;
    r.total_edges = setup.total_edges;
    // Churn re-parents members mid-run, so the minimum cross-shard edge
    // delay — and with it the safe window width — is a step function of
    // time.  Derive the epoch plan from the resolved schedule and floor
    // the uniform lookahead to the plan's minimum; the engine remaps the
    // window width at each epoch boundary (a window boundary by
    // construction).
    std::vector<sim::LookaheadEpoch> plan;
    if (churn_on) {
      plan = churn_lookahead_plan(
          churn_schedule, mg, config.churn, setup.engine.shard_of,
          config.fwd_overhead,
          setup.engine.lookahead - config.fwd_overhead);
      for (const sim::LookaheadEpoch& e : plan) {
        setup.engine.lookahead =
            std::min(setup.engine.lookahead, e.lookahead);
      }
      // Repairs re-parent members mid-run, so per-PAIR minima can change
      // even where the global plan collapsed to the uniform scalar (a
      // new cross edge for one pair need not move the global min).  The
      // static matrix is only trusted on a static topology: churn runs
      // keep the scalar/epoch bounds, which the repair pricing derives.
      setup.engine.lookahead_matrix.clear();
    }
    r.lookahead = setup.engine.lookahead;
    r.lookahead_epochs = plan.size();
    if (reuse) {
      engine_slot->reset(std::move(setup.engine.shard_of),
                         setup.engine.lookahead,
                         std::move(setup.engine.lookahead_matrix));
    } else {
      engine_slot = std::make_unique<sim::Engine>(std::move(setup.engine));
    }
    if (!plan.empty()) engine_slot->set_lookahead_plan(std::move(plan));
  } else if (reuse) {
    engine_slot->reset();
  } else {
    engine_slot = std::make_unique<sim::Engine>(sim::EngineConfig{});
  }
  sim::Engine& engine = *engine_slot;

  // Per-shard measurement state: each shard's worker records into its own
  // slot (no cross-thread traffic); merged after the run.
  struct ShardState {
    sim::DelayTracer tracer;
    DeliveryTrace trace;
    util::KMinSample<DeliveryRecord> sample{0};
    std::uint64_t losses = 0;
    std::uint64_t churn_losses = 0;
    std::uint64_t violations_repair = 0;
    std::uint64_t violations_steady = 0;
    util::OnlineStats reconv;
  };
  std::vector<ShardState> shard_state(engine.shard_count());
  for (auto& s : shard_state) {
    s.tracer.set_warmup(config.warmup);
    // Per-shard streaming summaries (O(shards), never O(hosts)): the
    // log-binned quantile sketch and the bounded k-min delivery sample.
    // Both merge order-independently, so the post-run fold is identical
    // for every shard count.
    s.tracer.enable_quantiles();
    s.sample = util::KMinSample<DeliveryRecord>(config.sample_deliveries);
  }

  // Per-kernel membership replicas (see churn_schedule.hpp): every kernel
  // replays the identical fault timeline against its own copy, so tree
  // reads at any simulated time agree across kernels without messages.
  std::vector<ChurnState> replicas(engine.shard_count());
  sim::FaultInjector injector;
  if (churn_on) {
    for (ChurnState& rep : replicas) rep.reset(mg, config.churn);
    injector.set_schedule(churn_schedule.actions);
  }

  // Mean per-hop latency for the TDMA depth stagger: app-layer forwarding
  // plus the average underlay propagation of the tree edges.
  double mean_hop_latency = config.fwd_overhead;
  {
    double prop_sum = 0;
    std::size_t prop_cnt = 0;
    for (int g = 0; g < mg.groups(); ++g) {
      const auto& tree = mg.tree(g);
      for (std::size_t i = 0; i < tree.size(); i += 7) {
        if (i == tree.root()) continue;
        prop_sum += mg.member_delay(tree.parent(i), i);
        ++prop_cnt;
      }
    }
    if (prop_cnt) mean_hop_latency += prop_sum / static_cast<double>(prop_cnt);
  }

  // The bound the churn violation counters compare against: the config
  // override, or the paper's plain multicast WDB (Remark 2) over the
  // tallest initial tree plus the per-hop app-layer/propagation costs the
  // analysis does not model.
  int h_max = 0;
  for (int g = 0; g < mg.groups(); ++g) {
    h_max = std::max(h_max, mg.tree(g).height_hops());
  }
  Time delay_bound = config.churn.delay_bound;
  if (churn_on && delay_bound <= 0.0) {
    delay_bound = netcalc::remark2_wdb_plain(
                      netcalc::normalize(scenario.specs, capacity), h_max) +
                  static_cast<double>(h_max) * mean_hop_latency;
  }
  r.delay_bound = churn_on ? delay_bound : 0.0;

  // Per-host forwarding pipeline: an AdaptiveHost (regulated schemes) or a
  // bare work-conserving MUX (capacity-aware); the unregulated model has
  // none.  Only hosts that forward in at least one tree need one.  Each
  // pipeline is built against the context of the shard owning the host,
  // so all of its events — regulators, bank slots, MUX service, control
  // ticks — are shard-local.
  //
  // Scale layout: a host's only per-host footprint is its HostTable lane
  // entry; pipelines live in a DENSE array holding forwarders only,
  // reached through the table's pipeline-index lane.  Pure receivers —
  // the majority of hosts in any bounded-fan-out tree — cost the lane
  // stride and nothing else (the old per-host struct carried two
  // unique_ptrs plus a std::function for every host, forwarding or not).
  struct Pipeline {
    std::unique_ptr<core::AdaptiveHost> regulated;
    std::unique_ptr<core::Mux> plain;  ///< capacity-aware shared uplink
    std::uint32_t host = 0;            ///< owning host index (probes)
  };
  topology::HostTable table(n);
  std::vector<Pipeline> pipelines;

  const bool capacity_aware =
      config.regulation == RegulationScheme::CapacityAware;
  const bool unregulated = config.regulation == RegulationScheme::None;
  // Capacity-aware hosts replicate through a *shared* uplink of
  // C_host = host_capacity_factor · C (the Fig. 1 model their degree bound
  // comes from); regulated hosts follow the paper's per-hop analysis — one
  // regulated MUX per hop, replication copies paying only a serialisation
  // offset.
  const double host_capacity_factor = 1.75;

  // Failure injection: one bursty loss process per receiving member (the
  // access path is where loss happens), shared across its incoming edges.
  // Host-local state, so it lives on the owning shard's timeline.  Stored
  // by value (lossless runs hold an empty vector): ~48 bytes per host
  // when on, zero heap objects either way.
  std::vector<sim::GilbertElliottLoss> loss;
  if (config.loss_rate > 0.0) {
    loss.reserve(n);
    for (std::size_t h = 0; h < n; ++h) {
      loss.emplace_back(config.loss_rate, config.loss_burst,
                        config.seed * 604171ULL + h);
    }
  }

  // forward() replicates a packet leaving host h's pipeline towards its
  // children; the handoff itself is location-transparent: deliver()
  // schedules locally when the child shares h's kernel and rides the
  // cross-shard mailbox otherwise.
  auto forward = [&](std::size_t h, sim::Packet p) {
    const sim::SimContext ctx =
        engine.context_for_host(static_cast<HostId>(h));
    // Under churn the current tree lives in this kernel's replica; the
    // static overlay::MulticastTree is only the t=0 snapshot.
    const auto& children =
        churn_on ? replicas[ctx.shard_index()].tree(p.group).children(h)
                 : mg.tree(p.group).children(h);
    if (capacity_aware) {
      // One copy per child through the shared uplink MUX; the sink routes
      // each copy by its dest field.
      core::Mux& uplink = *pipelines[table.pipeline(h)].plain;
      for (std::size_t child : children) {
        sim::Packet copy = p;
        copy.dest = static_cast<std::int32_t>(child);
        copy.hop_arrival = ctx.now();
        uplink.offer(std::move(copy));
      }
      return;
    }
    const Time overhead = config.fwd_overhead + p.size / config.fwd_cpu_rate;
    if (unregulated) {
      // Copies leave one after another through the host's own uplink;
      // each then pays the forwarding overhead and the propagation.
      Time& busy = table.busy_until(h);
      const Rate uplink = table.uplink(h);
      for (const std::size_t child : children) {
        const Time depart = std::max(ctx.now(), busy) + p.size / uplink;
        busy = depart;
        ctx.deliver(static_cast<HostId>(child), p,
                    depart + (overhead + mg.member_delay(h, child)));
      }
      return;
    }
    // The j-th copy waits j serialisation slots, then pays the forwarding
    // overhead and the underlay propagation.
    for (std::size_t j = 0; j < children.size(); ++j) {
      const std::size_t child = children[j];
      const Time replication = static_cast<double>(j) * p.size / capacity;
      const Time prop = mg.member_delay(h, child);
      ctx.deliver(static_cast<HostId>(child), p,
                  ctx.now() + (replication + overhead + prop));
    }
  };
  // Pipeline entry: regulated hosts queue into their AdaptiveHost;
  // capacity-aware and unregulated traffic goes straight to replication.
  // One function object for the whole run — the per-host closure the old
  // layout kept (a std::function per HostCtx) is gone.
  std::function<void(std::size_t, sim::Packet, Time)> offer_host =
      [&](std::size_t h, sim::Packet p, Time now) {
        if (!unregulated) {
          Pipeline& pl = pipelines[table.pipeline(h)];
          if (pl.regulated) {
            pl.regulated->offer(std::move(p));
            return;
          }
        }
        // No input regulation: copies pass through the shared uplink MUX
        // (capacity-aware) or the serialised uplink (unregulated).
        p.hop_arrival = now;
        forward(h, std::move(p));
      };
  // The engine's delivery handler runs at the arrival time on the kernel
  // owning the destination: record the end-to-end delay and forward
  // onwards if the member has children.
  engine.set_deliver([&](sim::SimContext ctx, HostId host,
                         const sim::Packet& p) {
    ShardState& ss = shard_state[ctx.shard_index()];
    const auto h = static_cast<std::size_t>(host);
    if (churn_on) {
      const ChurnState& rep = replicas[ctx.shard_index()];
      // A crashed (or departed) host silently swallows the copy — and
      // with it everything its dark subtree would have forwarded.  Kept
      // apart from the Gilbert-Elliott link losses below.
      if (rep.down(h) || !rep.tree(p.group).alive(h)) {
        ++ss.churn_losses;
        return;
      }
    }
    if (!loss.empty() && loss[h].drop()) {
      ++ss.losses;  // the copy (and its would-be subtree) is lost
      return;
    }
    ss.tracer.record(p, ctx.now());
    if (churn_on && ctx.now() >= config.warmup &&
        p.age(ctx.now()) > delay_bound) {
      if (replicas[ctx.shard_index()].in_repair_window(ctx.now())) {
        ++ss.violations_repair;
      } else {
        ++ss.violations_steady;
      }
    }
    if (config.collect_trace || config.sample_deliveries > 0) {
      const DeliveryRecord rec{sim::time_key(ctx.now()), p.id, p.group,
                               host};
      if (config.collect_trace) ss.trace.push_back(rec);
      if (config.sample_deliveries > 0) {
        ss.sample.offer(delivery_sample_key(rec), rec);
      }
    }
    const auto& onward =
        churn_on ? replicas[ctx.shard_index()].tree(p.group).children(h)
                 : mg.tree(p.group).children(h);
    if (!onward.empty()) {
      offer_host(h, p, ctx.now());
    }
  });
  // Uplink sink for capacity-aware hosts: the copy has left the shared
  // uplink; pay the app-layer overhead and underlay propagation, then
  // deliver to its target child.
  auto uplink_sink = [&engine, &config, &mg](std::size_t h) {
    return [&engine, &config, &mg, h](sim::Packet p) {
      const sim::SimContext ctx =
          engine.context_for_host(static_cast<HostId>(h));
      const auto child = static_cast<std::size_t>(p.dest);
      const Time overhead = config.fwd_overhead + p.size / config.fwd_cpu_rate;
      const Time prop = mg.member_delay(h, child);
      p.dest = -1;
      ctx.deliver(static_cast<HostId>(child), p,
                  ctx.now() + (overhead + prop));
    };
  };

  // Instantiate pipelines for forwarding hosts.
  core::ControlMode mode = core::ControlMode::SigmaRho;
  if (config.regulation == RegulationScheme::SigmaRhoLambda) {
    mode = core::ControlMode::SigmaRhoLambda;
  } else if (config.regulation == RegulationScheme::Adaptive) {
    mode = core::ControlMode::Adaptive;
  }
  // One flow copy per child, priced at the child group's rate
  // (heterogeneous mixes: a video child costs ~23x an audio child).
  const auto carried_rate = [&mg, &scenario](std::size_t h) {
    Rate carried = 0;
    for (int g = 0; g < mg.groups(); ++g) {
      carried += static_cast<double>(mg.tree(g).children(h).size()) *
                 scenario.sources[static_cast<std::size_t>(g)]->mean_rate();
    }
    return carried;
  };
  for (std::size_t h = 0; h < n; ++h) {
    if (unregulated) {
      // Uplinks sized so each host's carried replication load runs at ρ̄:
      // heavy forwarders get fat uplinks, the premise degree-bounded
      // overlays make.
      table.uplink(h) =
          std::max(capacity, carried_rate(h) / config.utilization);
      continue;
    }
    bool forwards = false;
    for (int g = 0; g < mg.groups(); ++g) {
      if (!mg.tree(g).children(h).empty()) {
        forwards = true;
        break;
      }
    }
    // Under churn any member can become a forwarder when a repair hands
    // it orphans, so every host gets a pipeline up front (building one
    // mid-run would race the packet flow and allocate on the hot path).
    if (!forwards && !churn_on) continue;
    table.pipeline(h) = static_cast<std::uint32_t>(pipelines.size());
    table.flags(h) |= 1;  // forwarder bit
    pipelines.emplace_back();
    Pipeline& pl = pipelines.back();
    pl.host = static_cast<std::uint32_t>(h);
    const sim::SimContext host_ctx =
        engine.context_for_host(static_cast<HostId>(h));
    auto sink = [&forward, h](sim::Packet p) { forward(h, std::move(p)); };
    if (capacity_aware) {
      // Plain FIFO uplink at C_host — capacity-aware trees rely on degree
      // bounds, not traffic control, so there is no priority structure.
      // The scheme's premise is that children are only assigned where
      // output capacity exists, so a host's uplink is sized to carry its
      // actual assignment at the budget-safety utilisation (hosts that
      // adopted more children are, by assumption, the stronger hosts).
      // Target uplink utilisation scales with the network load: when
      // capacity is scarce (high ρ̄), the scheme packs hosts closer to
      // their limits — that is exactly why its delays degrade.
      const double target_util =
          std::clamp(config.utilization + 0.04, 0.60, 0.99);
      const Rate uplink = std::max(capacity * host_capacity_factor,
                                   carried_rate(h) / target_util);
      pl.plain =
          std::make_unique<core::Mux>(host_ctx, uplink, uplink_sink(h));
      table.uplink(h) = uplink;
    } else {
      core::AdaptiveHostConfig hc;
      hc.flows = scenario.specs;
      hc.capacity = capacity;
      hc.mode = mode;
      // The adversarial general MUX of the paper's analysis.
      hc.mux_discipline = core::MuxDiscipline::PriorityLifoLowest;
      // Depth-staggered TDMA: shift this host's schedule by its depth
      // times the mean per-hop latency, so packets released inside their
      // working period upstream arrive inside the same working period here
      // and ride the wave instead of paying one vacation per hop.
      double depth_sum = 0;
      int depth_cnt = 0;
      for (int g = 0; g < mg.groups(); ++g) {
        // Churn: average over every membership — current leaves may be
        // handed children later, and their depth barely moves under
        // repair (splices reattach orphans at the grandparent's level).
        if (churn_on || !mg.tree(g).children(h).empty()) {
          depth_sum += mg.tree(g).depth(h);
          ++depth_cnt;
        }
      }
      const double depth = depth_cnt ? depth_sum / depth_cnt : 0.0;
      hc.lambda_epoch_offset = depth * mean_hop_latency;
      pl.regulated =
          std::make_unique<core::AdaptiveHost>(host_ctx, hc, sink);
      pl.regulated->set_warmup(config.warmup);
    }
  }

  // Host-state memory budget: the SoA lanes plus every out-of-table block
  // hung off a host, reported per host into the result (the scale gate's
  // bytes/host counter).  Pipeline internals self-report via the
  // memory_bytes() convention.
  {
    std::size_t pipeline_bytes = pipelines.capacity() * sizeof(Pipeline);
    for (const Pipeline& pl : pipelines) {
      if (pl.regulated) pipeline_bytes += pl.regulated->memory_bytes();
      if (pl.plain) pipeline_bytes += pl.plain->memory_bytes();
    }
    table.register_side_table("pipelines", pipeline_bytes);
    table.register_side_table(
        "loss_models", loss.capacity() * sizeof(sim::GilbertElliottLoss));
    std::size_t summary_bytes = 0;
    for (const ShardState& s : shard_state) {
      summary_bytes += s.tracer.memory_bytes() + s.sample.memory_bytes();
    }
    table.register_side_table("shard_summaries", summary_bytes);
    const topology::HostMemoryBudget budget = table.budget();
    r.host_state_bytes = budget.total_bytes();
    r.bytes_per_host = budget.bytes_per_host();
    r.delay_provider_bytes = mg.delay_memory_bytes();
  }

  // Pipeline indices per owning shard, ascending: the re-convergence
  // probes and the Process result blobs walk their own shard's
  // forwarders, not every pipeline.
  const bool probe_reconv =
      churn_on && config.regulation == RegulationScheme::Adaptive;
  std::vector<std::vector<std::uint32_t>> shard_pipelines;
  if (probe_reconv || config.engine == sim::EngineKind::Process) {
    shard_pipelines.resize(engine.shard_count());
    for (std::size_t i = 0; i < pipelines.size(); ++i) {
      shard_pipelines[engine.shard_of_host(
                          static_cast<HostId>(pipelines[i].host))]
          .push_back(static_cast<std::uint32_t>(i));
    }
  }

  // Small-capture bridge: source sinks and re-convergence probes live in
  // 56-byte inline-function slots, so they reach the frame state through
  // one pointer instead of capturing it piecewise.
  struct ChurnRuntime {
    std::function<void(std::size_t, sim::Packet, Time)>* offer = nullptr;
    std::vector<Pipeline>* pipelines = nullptr;
    const std::vector<std::vector<std::uint32_t>>* shard_pipelines = nullptr;
    std::vector<ChurnState>* replicas = nullptr;
    std::vector<ShardState>* shard_state = nullptr;
    const overlay::MultiGroupNetwork* mg = nullptr;
    Time settle = 0;
    bool churn_on = false;
  } rt{&offer_host, &pipelines, &shard_pipelines,
       &replicas,   &shard_state, &mg,
       config.churn.settle_window, churn_on};

  // Sources inject into their group's root pipeline (on the root's shard).
  // In replay mode the scenario's live sources are left unstarted and a
  // TraceSource per group (filtered to that group's records) is started in
  // their place; everything downstream — regulator specs, trees, capacity —
  // came from the identical scenario construction above, so the replay's
  // pipeline is the live run's pipeline.  The recorder hook captures every
  // emission (live or replayed) at this boundary, before loss/churn/MUX.
  if (config.record != nullptr) {
    config.record->set_identity(config.seed, workload_fingerprint(config));
  }
  std::vector<std::unique_ptr<traffic::TraceSource>> replay_sources;
  for (int g = 0; g < mg.groups(); ++g) {
    const std::size_t src_host = mg.source(g);
    const sim::SimContext src_ctx =
        engine.context_for_host(static_cast<HostId>(src_host));
    traffic::Source* source = scenario.sources[static_cast<std::size_t>(g)].get();
    if (config.replay != nullptr) {
      traffic::TraceSourceConfig tc;
      tc.trace = config.replay;
      tc.group = static_cast<GroupId>(g);
      replay_sources.push_back(std::make_unique<traffic::TraceSource>(tc));
      source = replay_sources.back().get();
    }
    source->start(
        src_ctx,
        [rtp = &rt, src_host, src_ctx, rec = config.record](sim::Packet p) {
          if (rec != nullptr) {
            rec->record(static_cast<std::size_t>(p.group), src_ctx.now(), p);
          }
          const auto& children =
              rtp->churn_on ? (*rtp->replicas)[src_ctx.shard_index()]
                                  .tree(p.group)
                                  .children(src_host)
                            : rtp->mg->tree(p.group).children(src_host);
          if (!children.empty()) {
            (*rtp->offer)(src_host, std::move(p), src_ctx.now());
          }
        },
        config.duration);
  }

  // Replay the fault timeline on every kernel.  Each completed repair (in
  // Adaptive runs) schedules a probe at the end of its settle window that
  // scans this kernel's hosts for a controller mode switch attributable
  // to the repair — the re-convergence statistic.
  if (churn_on) {
    injector.set_handler([&replicas, &rt, probe_reconv](
                             sim::SimContext ctx, const sim::FaultEvent& ev) {
      replicas[ctx.shard_index()].apply(ev, ctx.now());
      if (!probe_reconv ||
          static_cast<ChurnAction>(ev.kind) == ChurnAction::HostDown) {
        return;
      }
      const Time done = ctx.now();
      ctx.schedule_at(done + rt.settle, [rtp = &rt, ctx, done] {
        ShardState& ss = (*rtp->shard_state)[ctx.shard_index()];
        for (const std::uint32_t i :
             (*rtp->shard_pipelines)[ctx.shard_index()]) {
          const Pipeline& pl = (*rtp->pipelines)[i];
          if (!pl.regulated) continue;
          const Time t = pl.regulated->last_mode_switch_time();
          if (t > done && t <= done + rtp->settle) ss.reconv.add(t - done);
        }
      });
    });
    injector.arm(engine);
  }

  // Process backend: the measurement state above (shard tracers, quantile
  // sketch, k-min sample, trace, churn counters) accumulates in the forked
  // WORKERS' copies of this frame; these hooks carry each shard's slice
  // back as a result blob.  The writer runs in the owning worker at end of
  // run, the reader replays the blob into the parent's (untouched) copies
  // in ascending shard order, so the post-run merge below is
  // engine-agnostic and — because stats travel as exact bit patterns and
  // the k-min winning set is a pure function of the records re-offered —
  // byte-identical to the in-process engines.
  std::uint64_t process_mode_switches = 0;
  if (config.engine == sim::EngineKind::Process) {
    const auto put_rec = [](util::ByteWriter& w, const DeliveryRecord& rec) {
      w.u64(rec.time_key);
      w.u64(rec.packet_id);
      w.i32(rec.group);
      w.i32(rec.host);
    };
    const auto get_rec = [](util::ByteReader& rd) {
      DeliveryRecord rec;
      rec.time_key = rd.u64();
      rec.packet_id = rd.u64();
      rec.group = rd.i32();
      rec.host = rd.i32();
      return rec;
    };
    // Blob-declared record counts must fit the remaining payload (the
    // frame decoder's check_count discipline): a truncated blob must fail
    // as a clean range error, not a multi-GB reserve.
    constexpr std::size_t kRecWireBytes = 24;  // u64 + u64 + i32 + i32
    const auto check_rec_count = [](const util::ByteReader& rd,
                                    std::uint64_t count) {
      if (count > rd.remaining() / kRecWireBytes) {
        throw util::ByteRangeError(
            "process result blob: record count exceeds payload");
      }
    };
    engine.set_shard_results(
        [&, put_rec](std::size_t s, std::vector<std::uint8_t>& blob) {
          util::ByteWriter w(blob);
          const ShardState& ss = shard_state[s];
          ss.tracer.save(w);
          w.u64(ss.losses);
          w.u64(ss.churn_losses);
          w.u64(ss.violations_repair);
          w.u64(ss.violations_steady);
          ss.reconv.save(w);
          // Mode switches are scraped off the pipelines post-run on the
          // in-process engines; here the counters live in this worker, so
          // each shard ships the sum over the hosts it owns.
          std::uint64_t switches = 0;
          for (const std::uint32_t i : shard_pipelines[s]) {
            if (pipelines[i].regulated) {
              switches += pipelines[i].regulated->mode_switches();
            }
          }
          w.u64(switches);
          w.u32(static_cast<std::uint32_t>(ss.sample.size()));
          for (const DeliveryRecord& rec : ss.sample.records()) {
            put_rec(w, rec);
          }
          w.u64(ss.trace.size());
          for (const DeliveryRecord& rec : ss.trace) put_rec(w, rec);
        },
        [&, get_rec, check_rec_count](std::size_t s, const std::uint8_t* data,
                                      std::size_t size) {
          util::ByteReader rd(data, size);
          ShardState& ss = shard_state[s];
          ss.tracer.load(rd);
          ss.losses = rd.u64();
          ss.churn_losses = rd.u64();
          ss.violations_repair = rd.u64();
          ss.violations_steady = rd.u64();
          ss.reconv.load(rd);
          process_mode_switches += rd.u64();
          // Re-offering the worker's winners reproduces its sample
          // exactly: the winning set is a pure function of the offered
          // records, and these ARE the winners.
          const std::uint32_t samples = rd.u32();
          check_rec_count(rd, samples);
          for (std::uint32_t i = 0; i < samples; ++i) {
            const DeliveryRecord rec = get_rec(rd);
            ss.sample.offer(delivery_sample_key(rec), rec);
          }
          const std::uint64_t traced = rd.u64();
          check_rec_count(rd, traced);
          ss.trace.reserve(static_cast<std::size_t>(traced));
          for (std::uint64_t i = 0; i < traced; ++i) {
            ss.trace.push_back(get_rec(rd));
          }
        });
  }

  r.horizon = config.duration + 3.0;
  const auto run_start = std::chrono::steady_clock::now();
  engine.run(r.horizon);
  r.run_seconds = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - run_start)
                      .count();

  sim::DelayTracer merged(config.warmup);
  merged.enable_quantiles();
  util::KMinSample<DeliveryRecord> merged_sample(config.sample_deliveries);
  util::OnlineStats reconv;
  std::uint64_t losses = 0;
  for (auto& s : shard_state) {
    merged.merge(s.tracer);
    merged_sample.merge(s.sample);
    losses += s.losses;
    r.churn_losses += s.churn_losses;
    r.violations_in_repair += s.violations_repair;
    r.violations_steady += s.violations_steady;
    reconv.merge(s.reconv);
    if (config.collect_trace) {
      r.trace.insert(r.trace.end(), s.trace.begin(), s.trace.end());
    }
  }
  r.reconvergence_max = reconv.max();
  r.reconvergence_mean = reconv.mean();
  r.reconvergence_samples = reconv.count();
  r.churn_events = churn_schedule.raw_events;
  r.churn_repairs = churn_schedule.repairs;
  if (config.collect_trace) canonicalize(r.trace);

  r.utilization = config.utilization;
  r.worst_case_delay = merged.worst_case();
  r.mean_delay = merged.all().mean();
  r.deliveries = merged.all().count();
  r.delay_p50 = merged.quantile(0.5);
  r.delay_p99 = merged.quantile(0.99);
  if (config.sample_deliveries > 0) r.sample = merged_sample.records();
  r.losses = losses;
  const double attempts = static_cast<double>(r.deliveries + r.losses);
  r.delivery_ratio = attempts > 0
                         ? static_cast<double>(r.deliveries) / attempts
                         : 1.0;
  for (int g = 0; g < mg.groups(); ++g) {
    r.max_layers = std::max(r.max_layers, mg.tree(g).hierarchy_layers());
    r.max_height_hops = std::max(r.max_height_hops, mg.tree(g).height_hops());
  }
  if (config.engine == sim::EngineKind::Process) {
    // The parent's pipelines never executed; the per-shard sums arrived
    // in the result blobs.
    r.mode_switches = process_mode_switches;
  } else {
    for (const Pipeline& pl : pipelines) {
      if (pl.regulated) r.mode_switches += pl.regulated->mode_switches();
    }
  }
  r.events_executed = engine.events_executed();
  r.shards = engine.shard_count();
  r.threads = engine.thread_count();
  r.processes = engine.process_count();
  r.rounds = engine.rounds();
  r.messages = engine.messages_posted();
  // The engine in the slot outlives this frame, but the handler installed
  // above (and any beyond-horizon events still pending) capture this
  // frame's locals by reference.  Discard both so a stray direct use of
  // the slot between runs fails fast (empty DeliverFn) instead of firing
  // dangling captures; the next warm run installs its own state anyway.
  engine.reset();
  engine.set_deliver({});
  engine.set_shard_results({}, {});
  return r;
}

}  // namespace emcast::experiments
