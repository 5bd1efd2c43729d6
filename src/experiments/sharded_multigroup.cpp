#include "experiments/sharded_multigroup.hpp"

#include <algorithm>
#include <chrono>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <tuple>

#include "experiments/multigroup_sim.hpp"
#include "overlay/multigroup.hpp"
#include "sim/context.hpp"
#include "sim/pending_entry.hpp"
#include "sim/tracer.hpp"
#include "topology/host_table.hpp"
#include "util/stats.hpp"

namespace emcast::experiments {

namespace {

/// Overlay builds at bench scale are expensive (DSCT clustering plus the
/// all-pairs delay matrix), and the sharded-vs-reference comparisons run
/// the same overlay many times — cache built networks like
/// default_network does (thread-safe, deterministic per key).
const overlay::MultiGroupNetwork& cached_multigroup(
    const ShardedMultigroupConfig& config) {
  using Key = std::tuple<std::size_t, int, std::size_t, std::uint64_t,
                         std::uint64_t, std::size_t>;
  static std::mutex mutex;
  static std::map<Key, std::unique_ptr<overlay::MultiGroupNetwork>> cache;
  const Key key{config.hosts, config.groups, config.cluster_k, config.seed,
                config.topology_seed, config.routers};
  std::lock_guard lock(mutex);
  auto& slot = cache[key];
  if (!slot) {
    const auto& net =
        config.routers > 0
            ? default_hierarchical_network(config.routers, config.hosts,
                                           config.topology_seed)
            : default_network(config.hosts, config.topology_seed);
    overlay::MultiGroupConfig mc;
    mc.groups = config.groups;
    mc.scheme = overlay::TreeScheme::Dsct;
    mc.k = config.cluster_k;
    mc.seed = config.seed;
    slot = std::make_unique<overlay::MultiGroupNetwork>(net, mc);
  }
  return *slot;
}

/// Per-shard measurement state (indexed by SimContext::shard_index, so
/// each worker thread touches only its own slot).
struct ShardCtx {
  sim::DelayTracer tracer;
  DeliveryTrace trace;
  util::KMinSample<DeliveryRecord> sample{0};
  std::uint64_t delivered = 0;
};

/// Model state.  The hot per-host fields (uplink capacity, uplink-free
/// time) live in a topology::HostTable — SoA lanes written only by the
/// shard owning the host (hosts never change shards), so there is no
/// data race despite the single flat table.
struct Model {
  const overlay::MultiGroupNetwork* mg = nullptr;
  Time fwd_overhead = 0;
  Rate fwd_cpu_rate = 0;
  bool collect_trace = false;
  std::size_t sample_deliveries = 0;
  topology::HostTable hosts;  ///< uplink + busy-until lanes
  std::vector<ShardCtx> ctx;
};

/// Replicate `p` from `host` to its children in p.group's tree.  Copies
/// serialise through the host's uplink; each hop pays the forwarding
/// overhead, the per-bit copy cost and the underlay propagation.  The
/// handoff itself is a single location-transparent deliver(): the engine
/// schedules locally when the child shares this kernel and stages the
/// packet in the cross-shard mailbox otherwise.
void forward(Model& model, sim::SimContext ctx, std::size_t host,
             const sim::Packet& p) {
  const auto& tree = model.mg->tree(p.group);
  const auto& children = tree.children(host);
  if (children.empty()) return;
  const Time now = ctx.now();
  Time& busy = model.hosts.busy_until(host);
  const Rate uplink = model.hosts.uplink(host);
  for (const std::size_t child : children) {
    const Time depart = std::max(now, busy) + p.size / uplink;
    busy = depart;
    // Cross-shard safety: delay >= fwd_overhead + member_delay >= the
    // pair lookahead (fwd_overhead + min cross-edge delay over the pair)
    // by float-addition monotonicity, so arrival >= now + the
    // scheduler's bound always holds.
    const Time delay = model.fwd_overhead + p.size / model.fwd_cpu_rate +
                       model.mg->member_delay(host, child);
    sim::Packet copy = p;
    ++copy.hops;
    copy.hop_arrival = depart + delay;
    ctx.deliver(static_cast<HostId>(child), copy, depart + delay);
  }
}

}  // namespace

ShardedMultigroupResult run_sharded_multigroup(
    const ShardedMultigroupConfig& config) {
  if (config.single_threaded && config.shards > 1) {
    throw std::invalid_argument(
        "run_sharded_multigroup: single_threaded excludes shards > 1");
  }
  const overlay::MultiGroupNetwork& mg = cached_multigroup(config);
  const std::size_t n = mg.host_count();

  ScenarioConfig sc;
  sc.kind = config.kind;
  sc.flows = config.groups;
  sc.seed = config.seed;
  sc.envelope_calibration = 0;  // regulators are not part of this model
  Scenario scenario = make_scenario(sc);

  Model model;
  model.mg = &mg;
  model.fwd_overhead = config.fwd_overhead;
  model.fwd_cpu_rate = config.fwd_cpu_rate;
  model.collect_trace = config.collect_trace;
  model.sample_deliveries = config.sample_deliveries;
  model.hosts.resize(n);
  // Per-host uplink capacity: sized so the host's carried replication
  // load (one flow copy per child, priced at the child group's rate)
  // runs at the configured utilisation — heavy forwarders get fat
  // uplinks, exactly the premise degree-bounded overlay schemes make.
  const Rate floor_capacity = scenario.capacity_for(config.utilization);
  for (std::size_t h = 0; h < n; ++h) {
    Rate carried = 0;
    for (int g = 0; g < mg.groups(); ++g) {
      carried += static_cast<double>(mg.tree(g).children(h).size()) *
                 scenario.sources[static_cast<std::size_t>(g)]->mean_rate();
    }
    model.hosts.uplink(h) =
        std::max(floor_capacity, carried / config.utilization);
  }

  ShardedMultigroupResult result;
  const Time horizon = config.duration + 3.0;
  result.horizon = horizon;

  // ---- engine selection: reference kernel or sharded backend ------------
  sim::EngineConfig ec;
  if (!config.single_threaded) {
    ShardedMultigroupEngine setup = sharded_engine_config(
        mg, config.shards, config.threads, config.mailbox_capacity,
        config.fwd_overhead);
    ec = std::move(setup.engine);
    result.cross_edges = setup.cross_edges;
    result.total_edges = setup.total_edges;
    result.lookahead = ec.lookahead;
  }
  sim::Engine engine(ec);
  model.ctx.resize(engine.shard_count());
  for (auto& c : model.ctx) {
    c.tracer.set_warmup(config.warmup);
    // Per-shard streaming summaries: O(shards) memory, order-independent
    // merge — identical results for every shard count (see
    // util::LogHistogram / util::KMinSample).
    c.tracer.enable_quantiles();
    c.sample = util::KMinSample<DeliveryRecord>(config.sample_deliveries);
  }

  engine.set_deliver([&model](sim::SimContext ctx, HostId host,
                              const sim::Packet& p) {
    ShardCtx& c = model.ctx[ctx.shard_index()];
    const Time now = ctx.now();
    ++c.delivered;
    c.tracer.record(p, now);
    if (model.collect_trace || model.sample_deliveries > 0) {
      const DeliveryRecord rec{sim::time_key(now), p.id, p.group, host};
      if (model.collect_trace) c.trace.push_back(rec);
      if (model.sample_deliveries > 0) {
        c.sample.offer(delivery_sample_key(rec), rec);
      }
    }
    forward(model, ctx, static_cast<std::size_t>(host), p);
  });

  for (int g = 0; g < mg.groups(); ++g) {
    const std::size_t src_host = mg.source(g);
    const sim::SimContext src_ctx =
        engine.context_for_host(static_cast<HostId>(src_host));
    scenario.sources[static_cast<std::size_t>(g)]->start(
        src_ctx,
        [&model, src_ctx, src_host](sim::Packet p) {
          forward(model, src_ctx, src_host, p);
        },
        config.duration);
  }

  const auto t0 = std::chrono::steady_clock::now();
  engine.run(horizon);
  result.run_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  result.events_executed = engine.events_executed();
  result.shards = engine.shard_count();
  result.threads = engine.thread_count();
  result.rounds = engine.rounds();
  result.messages = engine.messages_posted();
  result.messages_spilled = engine.messages_spilled();

  sim::DelayTracer merged(config.warmup);
  merged.enable_quantiles();
  util::KMinSample<DeliveryRecord> merged_sample(config.sample_deliveries);
  for (auto& c : model.ctx) {
    merged.merge(c.tracer);
    merged_sample.merge(c.sample);
    result.deliveries += c.delivered;
    if (config.collect_trace) {
      result.trace.insert(result.trace.end(), c.trace.begin(),
                          c.trace.end());
    }
  }
  result.worst_case_delay = merged.worst_case();
  result.mean_delay = merged.all().mean();
  result.delay_p50 = merged.quantile(0.5);
  result.delay_p99 = merged.quantile(0.99);
  if (config.sample_deliveries > 0) {
    result.sample = merged_sample.records();
  }
  if (config.collect_trace) canonicalize(result.trace);

  // Memory budget: lanes plus the per-shard summary state (the only
  // out-of-table host-adjacent blocks this unregulated model keeps).
  std::size_t summary_bytes = 0;
  for (const auto& c : model.ctx) {
    summary_bytes += c.tracer.memory_bytes() + c.sample.memory_bytes();
  }
  model.hosts.register_side_table("shard_summaries", summary_bytes);
  const topology::HostMemoryBudget budget = model.hosts.budget();
  result.host_state_bytes = budget.total_bytes();
  result.bytes_per_host = budget.bytes_per_host();
  result.delay_provider_bytes = mg.delay_memory_bytes();
  return result;
}

}  // namespace emcast::experiments
