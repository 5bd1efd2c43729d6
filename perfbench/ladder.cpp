// Layer-ladder benchmark program.
//
// One closed-loop workload per invocation, through the library's public
// entry points only:
//
//   1. one untimed warm-up repetition on the warm engine slot;
//   2. repetitions back to back for --seconds (median = run_s), with a
//      set-up after some of them (median = setup_s): uncached underlay
//      build, overlay trees, scenario, partition and churn schedule where
//      the workload's run does them, and engine construction;
//   3. untimed checks: a reference run of every point (rounds engines only:
//      Single, or in-process Sharded under churn), after peak RSS is read.
//
// Every repetition's simulated statistics fold into a digest that must
// repeat bit for bit, equal the reference on the rounds engines
// (mean_delay excepted: Welford merge order), and equal the digest pinned
// for the default seed.  A repetition that throws or mismatches counts as
// failed.
//
// --trace 1 wraps every call the benchmark makes into a layer's public
// functions in a span (layer, name, start, end, parent), alternates traced
// with untraced repetitions so the tracing overhead is measured in the same
// process, derives the per-layer metrics and the "where the time goes"
// table from the spans, and writes them as Chrome trace-event JSON.
//
// Usage: ladder --workload NAME --seed N --seconds S --trace 0|1
//               [--size full|tiny] [--spans FILE]
// Human-readable lines first; the last line is one JSON object.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "experiments/churn_schedule.hpp"
#include "experiments/multigroup_sim.hpp"
#include "experiments/scenarios.hpp"
#include "experiments/single_host.hpp"
#include "experiments/sweep.hpp"
#include "overlay/multigroup.hpp"
#include "sim/context.hpp"
#include "topology/backbone.hpp"
#include "topology/hierarchical.hpp"
#include "topology/host_attachment.hpp"

namespace {

using namespace emcast;
using namespace emcast::experiments;
using Clock = std::chrono::steady_clock;

constexpr std::uint64_t kDefaultSeed = 1;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ------------------------------------------------------------------ spans

struct Span {
  std::string layer;
  std::string name;
  int parent = -1;
  Clock::time_point start;
  Clock::time_point end;
};

/// In-memory span log.  A Scope always times its interval; it records a
/// span only when the log is on, so untraced runs pay two clock reads.
class SpanLog {
 public:
  explicit SpanLog(bool on) : on_(on) {}

  class Scope {
   public:
    Scope(SpanLog& log, const char* layer, std::string name)
        : log_(log), t0_(Clock::now()) {
      if (log_.on_) {
        index_ = static_cast<int>(log_.spans_.size());
        log_.spans_.push_back({layer, std::move(name), log_.open_, t0_, t0_});
        log_.open_ = index_;
      }
    }
    ~Scope() { close(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    /// End the span now; returns its length in seconds (idempotent).
    double close() {
      if (!closed_) {
        const Clock::time_point t1 = Clock::now();
        seconds_ = seconds_between(t0_, t1);
        if (index_ >= 0) {
          Span& s = log_.spans_[static_cast<std::size_t>(index_)];
          s.end = t1;
          log_.open_ = s.parent;
        }
        closed_ = true;
      }
      return seconds_;
    }

   private:
    SpanLog& log_;
    Clock::time_point t0_;
    int index_ = -1;
    bool closed_ = false;
    double seconds_ = 0;
  };

  bool on() const { return on_; }
  const std::vector<Span>& spans() const { return spans_; }

  /// Self seconds per layer, summed over the subtree of each root span
  /// whose name is `root_name`; one map per such root, in order.
  std::vector<std::map<std::string, double>> self_by_root(
      const std::string& root_name) const {
    std::vector<double> self(spans_.size());
    std::vector<int> root(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      self[i] += seconds_between(s.start, s.end);
      if (s.parent >= 0) {
        self[static_cast<std::size_t>(s.parent)] -=
            seconds_between(s.start, s.end);
        root[i] = root[static_cast<std::size_t>(s.parent)];
      } else {
        root[i] = static_cast<int>(i);
      }
    }
    std::map<int, std::size_t> slot;
    std::vector<std::map<std::string, double>> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      if (spans_[static_cast<std::size_t>(root[i])].name != root_name) continue;
      auto [it, fresh] = slot.try_emplace(root[i], out.size());
      if (fresh) out.emplace_back();
      out[it->second][spans_[i].layer] += self[i];
    }
    return out;
  }

  /// Chrome trace-event JSON ("X" complete events, microseconds), which
  /// Perfetto and chrome://tracing open directly.
  void write_chrome_json(const std::string& path) const {
    std::ofstream f(path);
    if (!f) throw std::runtime_error("cannot write span file " + path);
    const Clock::time_point t0 =
        spans_.empty() ? Clock::now() : spans_.front().start;
    f << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char buf[160];
      std::snprintf(buf, sizeof buf,
                    "\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f",
                    seconds_between(t0, s.start) * 1e6,
                    seconds_between(s.start, s.end) * 1e6);
      f << "{\"name\":\"" << s.name << "\",\"cat\":\"" << s.layer << "\","
        << buf << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
        << "}}" << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    f << "]}\n";
  }

 private:
  bool on_;
  std::vector<Span> spans_;
  int open_ = -1;
};

using Scope = SpanLog::Scope;

// ------------------------------------------------------------ workloads

struct Point {
  RegulationScheme scheme;
  double rho;
};

struct Workload {
  std::string name;
  MultiGroupSimConfig base;   ///< everything but the scheme and ρ̄
  std::vector<Point> points;  ///< one repetition runs all of them in order
  bool sweep = false;         ///< per-scheme times come from the sweep itself

  MultiGroupSimConfig config(const Point& p) const {
    MultiGroupSimConfig c = base;
    c.regulation = p.scheme;
    c.utilization = p.rho;
    return c;
  }
};

constexpr RegulationScheme kSchemes[] = {
    RegulationScheme::CapacityAware, RegulationScheme::SigmaRho,
    RegulationScheme::SigmaRhoLambda, RegulationScheme::Adaptive};

/// Metric-name spelling of a scheme.
const char* scheme_key(RegulationScheme s) {
  switch (s) {
    case RegulationScheme::CapacityAware: return "capacity-aware";
    case RegulationScheme::SigmaRho: return "sigma-rho";
    case RegulationScheme::SigmaRhoLambda: return "sigma-rho-lambda";
    case RegulationScheme::Adaptive: return "adaptive";
  }
  return "unknown";
}

std::size_t visible_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    return static_cast<std::size_t>(std::max(1, CPU_COUNT(&set)));
  }
  return 1;
}

Workload make_workload(const std::string& name, std::uint64_t seed, bool tiny,
                       std::size_t nproc) {
  // ρ̄ = 0.60, 0.70, 0.80 from the paper's grid: a high-load slice that
  // straddles the audio threshold ρ* ≈ 0.65 of Fig. 6(a).
  const std::vector<double> grid = paper_rho_grid();
  const double rho_slice[] = {grid[5], grid[7], grid[9]};
  const double rho_high = grid[9];

  Workload w;
  w.name = name;
  MultiGroupSimConfig& c = w.base;
  c.kind = TrafficKind::Audio;
  c.family = TreeFamily::Dsct;
  c.groups = 3;
  c.hosts = tiny ? 96 : 665;
  c.duration = tiny ? 1.0 : 8.0;
  c.warmup = tiny ? 0.25 : 2.0;
  // The seed drives the traffic, the tree sources and the churn draws; the
  // underlay stays the paper's Fig. 5 attachment (topology_seed 42).
  c.seed = 10 + seed;
  c.churn.seed = 20 + seed;
  // Rounds engines: caller thread + workers (Sharded) and workers + hub
  // (Process) stay within the visible CPUs; never the 0 = auto default.
  // Two lanes of two shards each: windows, mailboxes and (on Process) the
  // transport still carry cross-lane traffic, and the run's busy threads
  // leave cores to the host's other load.  Four lanes on four shared
  // cores roughly doubled the run-to-run spread of run_s.
  const std::size_t threads = std::min<std::size_t>(2, nproc);
  const std::size_t processes = nproc > 2 ? 2 : 1;

  if (name == "fig6-sweep") {
    w.sweep = true;
    for (double rho : rho_slice) {
      for (RegulationScheme s : kSchemes) w.points.push_back({s, rho});
    }
  } else if (name == "scale-1e5") {
    c.hosts = tiny ? 4096 : 100000;
    c.routers = c.hosts / 256;
    c.duration = tiny ? 0.2 : 0.15;
    c.warmup = 0.05;
    c.sample_deliveries = 256;
    // Over a 0.15 s horizon the on-off audio realization alone swings the
    // packet count (and so the work) several-fold, so here the seed picks
    // the hierarchical underlay and the traffic stays fixed.
    c.seed = 11;
    c.topology_seed = 42 + seed;
    w.points.push_back({RegulationScheme::SigmaRho, rho_high});
  } else if (name == "sharded-665") {
    c.engine = sim::EngineKind::Sharded;
    c.shards = 4;
    c.threads = threads;
    w.points.push_back({RegulationScheme::Adaptive, rho_high});
  } else if (name == "process-churn") {
    c.engine = sim::EngineKind::Process;
    c.shards = 4;
    c.processes = processes;
    c.transport = sim::TransportKind::Shm;
    c.process_timeout_seconds = 60.0;
    c.loss_rate = 0.02;
    c.loss_burst = 3.0;
    c.churn.enabled = true;  // crash-heavy, with correlated domain failures
    c.churn.leave_rate = 0.25;
    c.churn.crash_fraction = 0.9;
    c.churn.rejoin_rate = 2.0;
    c.churn.domain_failure_rate = 1.0;
    c.churn.detection_timeout = 0.05;
    c.churn.settle_window = 0.2;
    // The churn draws alone swing the deliveries by about ±6 % from seed
    // to seed, so the fault timeline stays the default seed's and the
    // seed drives the traffic, the tree sources and the loss process.
    c.churn.seed = 20 + kDefaultSeed;
    w.points.push_back({RegulationScheme::Adaptive, rho_high});
  } else {
    throw std::invalid_argument("unknown workload " + name);
  }
  return w;
}

/// Model digests pinned for the default seed (--seed 1).  The model
/// digest is engine-independent, so one pin covers a rounds workload and
/// its Single reference.
struct Pin {
  const char* workload;
  bool tiny;
  std::uint64_t digest;
};
constexpr Pin kPins[] = {
    {"fig6-sweep", false, 0x108b67f63b5e5256ULL},
    {"fig6-sweep", true, 0x0d51b28c6e3120afULL},
    {"scale-1e5", false, 0xca5b84ba850bfdefULL},
    {"scale-1e5", true, 0x4e635dd3b7685f2aULL},
    {"sharded-665", false, 0x727523744b5e3bdeULL},
    {"sharded-665", true, 0xe4afc35d44428c6fULL},
    {"process-churn", false, 0xa98995604008c9d6ULL},
    {"process-churn", true, 0xe4eb0c5a5efd5de7ULL},
};

// ---------------------------------------------------------- output check

struct Digest {
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a offset basis
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  }
  void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
};

/// Simulated statistics every engine must reproduce bit for bit.
void add_model(Digest& d, const MultiGroupSimResult& r) {
  d.add(r.deliveries);
  d.add(r.worst_case_delay);
  d.add(r.delay_p50);
  d.add(r.delay_p99);
  d.add(r.mode_switches);
  d.add(r.losses);
  d.add(r.churn_events);
  d.add(r.churn_repairs);
  d.add(r.churn_losses);
  d.add(r.violations_in_repair);
  d.add(r.violations_steady);
  d.add(r.reconvergence_samples);
  d.add(r.reconvergence_max);
  d.add(r.delay_bound);
  d.add(static_cast<std::uint64_t>(r.max_layers));
  d.add(static_cast<std::uint64_t>(r.max_height_hops));
  d.add(static_cast<std::uint64_t>(r.sample.size()));
  for (const DeliveryRecord& rec : r.sample) {
    d.add(rec.time_key);
    d.add(rec.packet_id);
    d.add(static_cast<std::uint64_t>(static_cast<std::uint32_t>(rec.group)) << 32 |
          static_cast<std::uint32_t>(rec.host));
  }
}

/// Plus the merge-order-dependent means: identical across repetitions of
/// one engine, not across engines.
void add_full(Digest& d, const MultiGroupSimResult& r) {
  add_model(d, r);
  d.add(r.mean_delay);
  d.add(r.reconvergence_mean);
}

// ---------------------------------------------------------------- set-up

overlay::TreeScheme tree_scheme(const MultiGroupSimConfig& c) {
  const bool cap = c.regulation == RegulationScheme::CapacityAware;
  if (c.family == TreeFamily::Dsct) {
    return cap ? overlay::TreeScheme::CapacityAwareDsct
               : overlay::TreeScheme::Dsct;
  }
  return cap ? overlay::TreeScheme::CapacityAwareNice
             : overlay::TreeScheme::Nice;
}

/// The overlay config run_multigroup derives from a point's config.
overlay::MultiGroupConfig multigroup_config(const MultiGroupSimConfig& c) {
  overlay::MultiGroupConfig mc;
  mc.groups = c.groups;
  mc.scheme = tree_scheme(c);
  mc.k = c.cluster_k;
  mc.utilization = c.utilization;
  mc.seed = c.seed;
  return mc;
}

struct SetupState {
  std::unique_ptr<topology::AttachedNetwork> net;
  std::vector<std::unique_ptr<overlay::MultiGroupNetwork>> trees;
  std::vector<Scenario> scenarios;
  std::vector<ChurnSchedule> schedules;
  std::optional<topology::HostPartition> partition;
  overlay::PartitionStats partition_stats;
  std::vector<sim::LookaheadEpoch> plan;
  std::unique_ptr<sim::Engine> engine;
};

struct SetupTimes {
  double total = 0;
  double underlay = 0;
  double trees = 0;
  double scenario = 0;
  double partition = 0;
  double churn = 0;
  double engine = 0;
};

struct Facts {  ///< deterministic set-up facts (same every iteration)
  double delay_provider_mb = 0;
  double cross_edge_frac = 0;
};

std::unique_ptr<topology::AttachedNetwork> build_underlay(
    const MultiGroupSimConfig& c) {
  if (c.routers > 0) {
    topology::HierarchicalConfig hc;
    hc.routers = c.routers;
    hc.hosts = c.hosts;
    hc.seed = c.topology_seed;
    return std::make_unique<topology::AttachedNetwork>(
        topology::make_hierarchical(hc));
  }
  topology::HostAttachmentConfig hc;
  hc.host_count = c.hosts;
  hc.seed = c.topology_seed;
  return std::make_unique<topology::AttachedNetwork>(
      topology::attach_hosts(topology::make_fig5_backbone(), hc));
}

std::vector<std::size_t> group_sources(const overlay::MultiGroupNetwork& mg) {
  std::vector<std::size_t> s;
  for (int g = 0; g < mg.groups(); ++g) s.push_back(mg.source(g));
  return s;
}

/// The set-up a user pays before the first repetition: exactly the calls
/// run_multigroup makes for each point, with the underlay uncached, plus
/// one engine construction.  State is returned so teardown stays untimed.
SetupTimes run_setup(const Workload& w, SpanLog& log, SetupState& st,
                     Facts& facts) {
  SetupTimes t;
  const MultiGroupSimConfig& base = w.base;
  const bool rounds = base.engine != sim::EngineKind::Single;
  Scope root(log, "bench", "setup");
  {
    Scope s(log, "topology",
            base.routers > 0 ? "make_hierarchical" : "attach_hosts(fig5)");
    st.net = build_underlay(base);
    t.underlay = s.close();
  }
  for (const Point& p : w.points) {
    const MultiGroupSimConfig c = w.config(p);
    {
      const overlay::MultiGroupConfig mc = multigroup_config(c);
      Scope s(log, "overlay", "MultiGroupNetwork");
      st.trees.push_back(
          std::make_unique<overlay::MultiGroupNetwork>(*st.net, mc));
      t.trees += s.close();
    }
    const overlay::MultiGroupNetwork& mg = *st.trees.back();
    facts.delay_provider_mb =
        static_cast<double>(mg.delay_memory_bytes()) / 1e6;
    if (c.churn.enabled) {
      Scope s(log, "experiments", "make_churn_schedule");
      st.schedules.push_back(make_churn_schedule(
          c.churn, mg, group_sources(mg), {c.fwd_overhead, c.fwd_cpu_rate},
          c.duration));
      t.churn += s.close();
    }
    {
      ScenarioConfig sc;
      sc.kind = c.kind;
      sc.flows = c.groups;
      sc.seed = c.seed;
      sc.headroom = c.headroom;
      sc.envelope_calibration = c.duration + 5.0;
      Scope s(log, "experiments", "make_scenario");
      st.scenarios.push_back(make_scenario(sc));
      t.scenario += s.close();
    }
    if (rounds) {
      Scope s(log, "overlay", "derive_partition+evaluate_partition");
      st.partition = overlay::derive_partition(mg, base.shards);
      st.partition_stats =
          overlay::evaluate_partition(mg, st.partition->shard_of);
      t.partition += s.close();
      const overlay::PartitionStats& ps = st.partition_stats;
      facts.cross_edge_frac =
          ps.total_edges ? static_cast<double>(ps.cross_edges) /
                               static_cast<double>(ps.total_edges)
                         : 0.0;
    }
    if (rounds && c.churn.enabled) {
      const overlay::PartitionStats& ps = st.partition_stats;
      Scope s(log, "experiments", "churn_lookahead_plan");
      st.plan = churn_lookahead_plan(
          st.schedules.back(), mg, c.churn, st.partition->shard_of,
          c.fwd_overhead, ps.cross_edges != 0 ? ps.min_cross_delay : 0.0);
      t.churn += s.close();
    }
  }
  {
    sim::EngineConfig ec;
    if (rounds) {
      // Scalar lookahead only: the per-pair matrix changes what a window
      // spans, not what construction costs.
      const overlay::PartitionStats& ps = st.partition_stats;
      ec.kind = base.engine;
      ec.shards = base.shards;
      ec.threads = base.threads;
      ec.processes = base.processes;
      ec.transport = base.transport;
      ec.timeout_seconds = base.process_timeout_seconds;
      ec.mailbox_capacity = base.mailbox_capacity;
      ec.lookahead = base.fwd_overhead +
                     (ps.cross_edges != 0 ? ps.min_cross_delay : 0.0);
      ec.shard_of = st.partition->shard_of;
    }
    Scope s(log, "sim", "Engine");
    st.engine = std::make_unique<sim::Engine>(std::move(ec));
    t.engine = s.close();
  }
  t.total = root.close();
  return t;
}

// ----------------------------------------------------------- repetitions

struct RepOut {
  double seconds = 0;
  std::vector<double> point_seconds;
  std::uint64_t model = 0;  ///< engine-independent digest
  std::uint64_t full = 0;   ///< plus the means
  std::uint64_t deliveries = 0;
  std::uint64_t mode_switches = 0;
  MultiGroupSimResult last;  ///< engine telemetry of the last point
};

RepOut run_rep(const Workload& w, std::unique_ptr<sim::Engine>& slot,
               SpanLog& log) {
  RepOut out;
  Digest model, full;
  Scope root(log, "bench", "rep");
  for (const Point& p : w.points) {
    const MultiGroupSimConfig c = w.config(p);
    char name[80];
    std::snprintf(name, sizeof name, "run_multigroup:%s@%.2f",
                  scheme_key(p.scheme), p.rho);
    Scope s(log, "experiments", name);
    MultiGroupSimResult r = run_multigroup(c, slot);
    out.point_seconds.push_back(s.close());
    add_model(model, r);
    add_full(full, r);
    out.deliveries += r.deliveries;
    out.mode_switches += r.mode_switches;
    out.last = std::move(r);
  }
  out.seconds = root.close();
  out.model = model.h;
  out.full = full.h;
  return out;
}

/// Untimed reference run of every point (model digest) on `engine`: Single,
/// or Sharded on the workload's shards with the calling thread alone.
std::uint64_t reference_digest(const Workload& w, sim::EngineKind engine) {
  Digest d;
  std::unique_ptr<sim::Engine> slot;
  for (const Point& p : w.points) {
    MultiGroupSimConfig c = w.config(p);
    c.engine = engine;
    if (engine == sim::EngineKind::Single) c.shards = 1;
    c.threads = engine == sim::EngineKind::Sharded ? 1 : 0;
    c.processes = 0;
    add_model(d, run_multigroup(c, slot));
  }
  return d.h;
}

// ---------------------------------------------------------------- report

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

double peak_rss_mb() {
  rusage self{}, children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  // ru_maxrss is in KiB on Linux; forked workers (Process engine) add
  // their own peak, an upper bound since they share pages with the hub.
  return static_cast<double>(self.ru_maxrss + children.ru_maxrss) / 1024.0;
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string num(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

struct Args {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;
  std::string spans;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + k);
    const std::string v = argv[++i];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::stoull(v);
    } else if (k == "--seconds") {
      a.seconds = std::stod(v);
    } else if (k == "--trace") {
      a.trace = v == "1";
    } else if (k == "--size") {
      if (v != "full" && v != "tiny") throw std::invalid_argument("--size full|tiny");
      a.tiny = v == "tiny";
    } else if (k == "--spans") {
      a.spans = v;
    } else {
      throw std::invalid_argument("unknown option " + k);
    }
  }
  if (a.workload.empty()) throw std::invalid_argument("--workload is required");
  if (!(a.seconds > 0)) throw std::invalid_argument("--seconds must be > 0");
  return a;
}

int run(const Args& args) {
  const std::size_t nproc = visible_cpus();
  const Workload w = make_workload(args.workload, args.seed, args.tiny, nproc);
  const MultiGroupSimConfig& base = w.base;
  const bool rounds = base.engine != sim::EngineKind::Single;
  // OS threads in this process (Process: the hub; workers are processes).
  const std::size_t sharded_threads =
      base.engine == sim::EngineKind::Sharded ? base.threads : 1;
  SpanLog log(args.trace);
  SpanLog off(false);

  std::printf("workload %s  seed %llu  size %s  engine %s  shards %zu  "
              "threads %zu  processes %zu  nproc %zu  points %zu\n",
              w.name.c_str(), static_cast<unsigned long long>(args.seed),
              args.tiny ? "tiny" : "full", sim::to_string(base.engine),
              base.shards, sharded_threads, base.processes, nproc,
              w.points.size());
  if (rounds && nproc < 8) {
    std::printf("note: with nproc %zu, %s timings measure synchronization "
                "and transport overhead, not parallel speed-up\n",
                nproc, sim::to_string(base.engine));
  }

  // ---- set-up -----------------------------------------------------------
  // Set-ups run between the measured repetitions (see below); each one
  // builds its own state and tears it down untimed.
  std::vector<SetupTimes> setups;
  Facts facts;
  std::vector<double> provider_probe, tree_probe, partition_probe, churn_probe;
  double setup_elapsed = 0;
  auto add_setup = [&] {
    SetupState st;
    setups.push_back(run_setup(w, log, st, facts));
    setup_elapsed += setups.back().total;
    if (!log.on()) return;
    // Attribution probes (traced runs only, outside the set-up span).
    // MultiGroupNetwork builds its delay provider before its trees.  On a
    // compact network the provider is the HostDelayOracle, probed alone.
    // On the Fig. 5 path it is the dense DelayMatrix, and the tree share
    // is the same builds over the exact compact oracle minus that oracle.
    Scope probe(log, "bench", "probe");
    {
      const auto points = static_cast<double>(w.points.size());
      std::unique_ptr<topology::AttachedNetwork> compact;
      const topology::AttachedNetwork* net = st.net.get();
      if (!net->compact_host_delays) {
        compact = std::make_unique<topology::AttachedNetwork>(*net);
        compact->compact_host_delays = true;
        net = compact.get();
      }
      double oracle_s = 0;
      {
        Scope s(log, "topology", "HostDelayOracle");
        topology::HostDelayOracle oracle(*net);
        oracle_s = s.close() * points;
      }
      if (compact) {
        Scope s(log, "overlay", "MultiGroupNetwork[compact]");
        for (const Point& p : w.points) {
          overlay::MultiGroupNetwork trees(*net,
                                           multigroup_config(w.config(p)));
        }
        tree_probe.push_back(s.close() - oracle_s);
        provider_probe.push_back(setups.back().trees - tree_probe.back());
      } else {
        provider_probe.push_back(oracle_s);
        tree_probe.push_back(setups.back().trees - oracle_s);
      }
    }
    const overlay::MultiGroupNetwork& mg = *st.trees.back();
    if (!rounds) {
      Scope s(log, "overlay", "derive_partition+evaluate_partition");
      const auto part = overlay::derive_partition(mg, 4);
      const overlay::PartitionStats ps =
          overlay::evaluate_partition(mg, part.shard_of);
      partition_probe.push_back(s.close());
      facts.cross_edge_frac =
          ps.total_edges ? static_cast<double>(ps.cross_edges) /
                               static_cast<double>(ps.total_edges)
                         : 0.0;
    }
    if (!base.churn.enabled) {
      ChurnConfig cc;  // churn off: the schedule resolves to nothing
      Scope s(log, "experiments", "make_churn_schedule");
      make_churn_schedule(cc, mg, group_sources(mg),
                          {base.fwd_overhead, base.fwd_cpu_rate},
                          base.duration);
      churn_probe.push_back(s.close());
    }
  };

  // ---- warm-up ------------------------------------------------------------
  // Populate the network cache run_multigroup reads (users pay it once).
  if (base.routers > 0) {
    default_hierarchical_network(base.routers, base.hosts, base.topology_seed);
  } else {
    default_network(base.hosts, base.topology_seed);
  }
  bool correct = true;
  std::uint64_t attempted = 0, failed = 0;
  std::unique_ptr<sim::Engine> slot;
  RepOut warm;
  ++attempted;
  try {
    warm = run_rep(w, slot, off);
  } catch (const std::exception& e) {
    std::printf("check: warm-up repetition threw: %s\n", e.what());
    std::printf("{\"correct\": false, \"attempted\": 1, \"failed\": 1, "
                "\"metrics\": {}}\n");
    return 0;
  }

  // ---- measured repetitions ----------------------------------------------
  // Traced runs alternate untraced (even) and traced (odd) repetitions.
  // Every repetition must reproduce the warm-up bit for bit.  A set-up
  // follows a repetition whenever set-ups have taken less than
  // kSetupShare of the window so far, so the median set-up samples the
  // same stretch of a drifting shared host as the median repetition.
  constexpr std::size_t kMinSetups = 3, kMaxSetups = 30;
  constexpr double kSetupShare = 0.1;
  std::vector<double> untraced_s, traced_s;
  std::vector<std::vector<double>> traced_points;
  const int min_reps = args.trace ? 4 : 3;
  const Clock::time_point t_start = Clock::now();
  for (int i = 0;; ++i) {
    const bool traced = args.trace && i % 2 == 1;
    ++attempted;
    try {
      RepOut r = run_rep(w, slot, traced ? log : off);
      if (r.full != warm.full) {
        std::printf("check: repetition %d digest %s != warm-up %s\n", i,
                    hex(r.full).c_str(), hex(warm.full).c_str());
        ++failed;
        correct = false;
      } else if (traced) {
        traced_s.push_back(r.seconds);
        traced_points.push_back(r.point_seconds);
      } else {
        untraced_s.push_back(r.seconds);
      }
    } catch (const std::exception& e) {
      std::printf("check: repetition %d threw: %s\n", i, e.what());
      ++failed;
      correct = false;
    }
    const double elapsed = seconds_between(t_start, Clock::now());
    if (setups.size() < kMinSetups ||
        (setups.size() < kMaxSetups && setup_elapsed < kSetupShare * elapsed)) {
      add_setup();
    }
    if (i + 1 >= min_reps && setups.size() >= kMinSetups &&
        elapsed >= args.seconds) {
      break;
    }
  }
  const double run_s = median(untraced_s);
  auto setup_med = [&](double SetupTimes::*field) {
    std::vector<double> v;
    for (const SetupTimes& t : setups) v.push_back(t.*field);
    return median(v);
  };
  const double setup_s = setup_med(&SetupTimes::total);
  if (untraced_s.empty()) correct = false;
  // Read before the untimed reference runs, so the peak is the workload's.
  const double peak_rss = peak_rss_mb();

  // ---- output check: pin and reference (untimed) -------------------------
  std::optional<std::uint64_t> expected_model;
  for (const Pin& pin : kPins) {
    if (args.seed == kDefaultSeed && w.name == pin.workload &&
        args.tiny == pin.tiny && pin.digest != 0) {
      expected_model = pin.digest;
    }
  }
  // Under churn, Single and the rounds engines can order two same-time
  // arrivals at one host differently, and from there the runs diverge
  // (seen on 2 of 44 seeds of process-churn; the rounds engines agree with
  // each other on all of them).  So a churn workload is checked against
  // an untimed in-process Sharded run and the Single run is only reported.
  const char* reference = expected_model ? "vs pin" : "no pin for this seed";
  std::string single_vs_rounds = "n/a";
  if (rounds) {
    const std::uint64_t single = reference_digest(w, sim::EngineKind::Single);
    std::uint64_t ref = single;
    reference = "vs Single reference";
    if (base.churn.enabled) {
      ref = reference_digest(w, sim::EngineKind::Sharded);
      reference = "vs Sharded reference";
      single_vs_rounds = single == ref ? "agrees" : "differs";
      std::printf("note: Single run digest %s %s the Sharded reference "
                  "(reported, not checked: same-time tie order under churn)\n",
                  hex(single).c_str(),
                  single == ref ? "equals" : "differs from");
    }
    if (expected_model && *expected_model != ref) {
      std::printf("check: reference digest %s != pinned %s\n",
                  hex(ref).c_str(), hex(*expected_model).c_str());
      correct = false;
    }
    expected_model = ref;
  }
  // Every repetition reproduced the warm-up (or already failed), so a
  // warm-up that misses the pin or the reference fails them all.
  if (expected_model && warm.model != *expected_model) {
    std::printf("check: warm-up digest %s != expected %s\n",
                hex(warm.model).c_str(), hex(*expected_model).c_str());
    failed = attempted;
    correct = false;
  }
  std::printf("check: model digest %s (%s)\n", hex(warm.model).c_str(),
              reference);

  std::vector<Metric> metrics = {
      {"run_s", run_s, "s"},
      {"deliveries_per_s",
       run_s > 0 ? static_cast<double>(warm.deliveries) / run_s : 0.0, "1/s"},
      {"setup_s", setup_s, "s"},
      {"peak_rss_mb", peak_rss, "MB"},
      {"fail_frac",
       static_cast<double>(failed) / static_cast<double>(attempted), "fraction"},
  };

  // ---- per-layer numbers from the spans (traced runs) --------------------
  if (args.trace) {
    // Engine reset: what run_multigroup does to the warm slot per point.
    std::vector<double> reset_probe;
    for (int i = 0; i < 5; ++i) {
      Scope probe(log, "bench", "probe");
      Scope s(log, "sim", "Engine::reset");
      slot->reset();
      reset_probe.push_back(s.close());
    }
    // Per-scheme point times: from the sweep itself on fig6-sweep; on the
    // other workloads a short 665-host Single probe at the same ρ̄.
    std::map<std::string, double> scheme_s;
    if (w.sweep) {
      for (RegulationScheme sch : kSchemes) {
        std::vector<double> v;
        for (const auto& pts : traced_points) {
          double sum = 0;
          for (std::size_t j = 0; j < w.points.size(); ++j) {
            if (w.points[j].scheme == sch) sum += pts[j];
          }
          v.push_back(sum);
        }
        scheme_s[scheme_key(sch)] = median(v);
      }
    } else {
      std::unique_ptr<sim::Engine> probe_slot;
      for (RegulationScheme sch : kSchemes) {
        MultiGroupSimConfig c = w.config({sch, w.points.front().rho});
        c.engine = sim::EngineKind::Single;
        c.hosts = args.tiny ? 96 : 665;
        c.routers = 0;
        c.shards = 1;
        c.threads = 0;
        c.processes = 0;
        c.churn.enabled = false;
        c.loss_rate = 0;
        c.sample_deliveries = 0;
        c.duration = args.tiny ? 0.5 : 2.0;
        c.warmup = args.tiny ? 0.1 : 0.5;
        Scope probe(log, "bench", "probe");
        Scope s(log, "experiments",
                std::string("run_multigroup[probe]:") + scheme_key(sch));
        run_multigroup(c, probe_slot);
        scheme_s[scheme_key(sch)] = s.close();
      }
    }
    // The ladder's lowest rung: one regulated host, no overlay, no
    // forwarding, same traffic and ρ̄.
    std::vector<double> ns_per_packet;
    for (int i = 0; i < 3; ++i) {
      SingleHostConfig sh;
      sh.kind = base.kind;
      sh.utilization = w.points.back().rho;
      sh.mode = w.points.back().scheme == RegulationScheme::SigmaRhoLambda
                    ? core::ControlMode::SigmaRhoLambda
                : w.points.back().scheme == RegulationScheme::Adaptive
                    ? core::ControlMode::Adaptive
                    : core::ControlMode::SigmaRho;
      sh.duration = args.tiny ? 10.0 : 60.0;
      sh.warmup = 3.0;
      sh.seed = base.seed;
      Scope probe(log, "bench", "probe");
      Scope s(log, "core", "run_single_host");
      const SingleHostResult r = run_single_host(sh);
      const double t = s.close();
      if (r.packets > 0) {
        ns_per_packet.push_back(t * 1e9 / static_cast<double>(r.packets));
      }
    }

    // Each set-up's tree builds contain its delay-provider builds; the
    // probe taken right after that set-up splits them off to topology.
    const auto setup_self = log.self_by_root("setup");
    auto per_setup = [&](auto&& f) {
      std::vector<double> v;
      for (std::size_t i = 0; i < setups.size(); ++i) v.push_back(f(i));
      return median(v);
    };
    auto layer_self = [&](std::size_t i, const char* layer) {
      const auto it = setup_self[i].find(layer);
      return it == setup_self[i].end() ? 0.0 : it->second;
    };
    const double provider = median(provider_probe);
    const double topology_build = per_setup([&](std::size_t i) {
      return setups[i].underlay + provider_probe[i];
    });
    const double tree_only = median(tree_probe);
    const double trees = setup_med(&SetupTimes::trees);
    const double scenario = setup_med(&SetupTimes::scenario);
    const double partition =
        rounds ? setup_med(&SetupTimes::partition) : median(partition_probe);
    const double churn = base.churn.enabled ? setup_med(&SetupTimes::churn)
                                            : median(churn_probe);
    const double engine_build = setup_med(&SetupTimes::engine);
    const double engine_reset = median(reset_probe);
    // What run_multigroup repeats per repetition (cached underlay, so no
    // underlay build): trees (with their delay provider), scenario, and
    // the partition and churn schedule where the workload uses them.
    const double repeated =
        trees + scenario + (rounds ? partition : 0.0) +
        (base.churn.enabled ? churn : 0.0);
    const auto points = static_cast<double>(w.points.size());
    const double traced_run = median(traced_s);
    std::vector<double> run_calls;
    for (const auto& pts : traced_points) {
      double sum = 0;
      for (double x : pts) sum += x;
      run_calls.push_back(sum);
    }
    const double run_call = median(run_calls);
    const double run_self = run_call - repeated - engine_reset * points;

    const MultiGroupSimResult& last = warm.last;
    const double rounds_n = static_cast<double>(last.rounds);
    const double deliveries_last = static_cast<double>(last.deliveries);
    std::vector<Metric> layer = {
        {"topology.build_s", topology_build, "s"},
        {"topology.delay_provider_mb", facts.delay_provider_mb, "MB"},
        {"overlay.trees_s", tree_only, "s"},
        {"overlay.partition_s", partition, "s"},
        {"overlay.cross_edge_frac", facts.cross_edge_frac, "fraction"},
        {"experiments.scenario_s", scenario, "s"},
        {"experiments.churn_schedule_s", churn, "s"},
        {"experiments.run_self_s", run_self, "s"},
    };
    for (RegulationScheme sch : kSchemes) {
      layer.push_back({std::string("experiments.run_s.") + scheme_key(sch),
                       scheme_s[scheme_key(sch)], "s"});
    }
    const std::vector<Metric> tail = {
        {"core.single_host_ns_per_packet", median(ns_per_packet), "ns"},
        {"core.mode_switches", static_cast<double>(warm.mode_switches), "count"},
        {"sim.engine_build_s", engine_build, "s"},
        {"sim.engine_reset_s", engine_reset, "s"},
        {"sim.rounds", rounds_n, "count"},
        {"sim.deliveries_per_round",
         rounds_n > 0 ? deliveries_last / rounds_n : 0.0, "count"},
        {"sim.xshard_messages", static_cast<double>(last.messages), "count"},
        {"sim.spill_frac",
         last.messages ? static_cast<double>(last.messages_spilled) /
                             static_cast<double>(last.messages)
                       : 0.0,
         "fraction"},
        {"sim.lookahead_us", last.lookahead * 1e6, "sim-us"},
        {"sim.lookahead_epochs", static_cast<double>(last.lookahead_epochs),
         "count"},
        {"sim.host_state_bytes_per_host", last.bytes_per_host, "B"},
        {"trace.overhead_s", traced_run - run_s, "s"},
    };
    layer.insert(layer.end(), tail.begin(), tail.end());

    // ---- where the time goes ---------------------------------------------
    // Set-up rows are span self times (median per layer over set-ups);
    // repetition rows split run_multigroup by the independently timed
    // set-up calls it repeats, the remainder being its event loop.
    auto layer_med = [&](const char* layer) {
      return per_setup([&](std::size_t i) { return layer_self(i, layer); });
    };
    std::vector<double> rep_glue;
    for (std::size_t i = 0; i < traced_s.size(); ++i) {
      rep_glue.push_back(traced_s[i] - run_calls[i]);
    }
    struct Row {
      const char* phase;
      const char* layer;
      double self;
      const char* what;
    };
    const double traced_setup = setup_s;  // every set-up is traced here
    const std::vector<Row> rows = {
        {"setup", "topology", per_setup([&](std::size_t i) {
           return layer_self(i, "topology") + provider_probe[i];
         }),
         "underlay build + delay provider inside the tree builds"},
        {"setup", "overlay", per_setup([&](std::size_t i) {
           return layer_self(i, "overlay") - provider_probe[i];
         }),
         "tree builds (delay provider moved to topology) + partition"},
        {"setup", "experiments", layer_med("experiments"),
         "scenario (+ churn schedule)"},
        {"setup", "sim", layer_med("sim"), "engine construction"},
        {"setup", "bench", layer_med("bench"), "benchmark glue"},
        {"rep", "topology", provider,
         "delay provider rebuilt inside run_multigroup"},
        {"rep", "overlay", tree_only + (rounds ? partition : 0.0),
         "trees (+ partition) rebuilt inside run_multigroup"},
        {"rep", "experiments",
         scenario + (base.churn.enabled ? churn : 0.0) + run_self,
         "scenario (+ churn) rebuilt + event loop (core, traffic, sim kernel)"},
        {"rep", "sim", engine_reset * points, "engine reset per point"},
        {"rep", "bench", median(rep_glue), "benchmark glue"},
    };
    std::printf("\nwhere the time goes: %s (%zu traced set-ups, %zu traced "
                "repetitions; medians)\n",
                w.name.c_str(), setups.size(), traced_s.size());
    std::printf("  %-6s %-12s %12s %8s  %s\n", "phase", "layer", "self_s",
                "share", "what");
    double sum = 0;
    for (const Row& r : rows) {
      const double phase_total =
          std::string(r.phase) == "setup" ? traced_setup : traced_run;
      sum += r.self;
      std::printf("  %-6s %-12s %12.6f %7.1f%%  %s (base: traced %s %.6f s)\n",
                  r.phase, r.layer, r.self,
                  phase_total > 0 ? 100.0 * r.self / phase_total : 0.0, r.what,
                  std::string(r.phase) == "setup" ? "setup_s" : "run_s",
                  phase_total);
    }
    const double traced_total = traced_setup + traced_run;
    std::printf("  sum of self times %.6f s = %.2f%% of traced setup_s + "
                "run_s (%.6f s); against setup_s + untraced run_s (%.6f s) "
                "it differs by %+.6f s, the tracing overhead below\n",
                sum, traced_total > 0 ? 100.0 * sum / traced_total : 0.0,
                traced_total, traced_setup + run_s,
                sum - (traced_setup + run_s));
    std::printf("  tracing overhead: traced run_s %.6f s - untraced run_s "
                "%.6f s = %+.6f s (%+.2f%% of untraced run_s)\n",
                traced_run, run_s, traced_run - run_s,
                run_s > 0 ? 100.0 * (traced_run - run_s) / run_s : 0.0);
    std::printf("  ladder rung: core.single_host_ns_per_packet %.1f ns "
                "(one regulated host, no overlay, no forwarding)\n\n",
                median(ns_per_packet));
    layer.push_back({"trace.self_coverage",
                     traced_total > 0 ? sum / traced_total : 0.0, "fraction"});
    metrics.insert(metrics.end(), layer.begin(), layer.end());
    if (!args.spans.empty()) {
      log.write_chrome_json(args.spans);
      std::printf("spans: %zu written to %s\n", log.spans().size(),
                  args.spans.c_str());
    }
  }

  for (const Metric& m : metrics) {
    std::printf("metric %-36s %22s %s\n", m.name.c_str(), num(m.value).c_str(),
                m.unit.c_str());
  }
  std::printf("reps: %zu untraced, %zu traced; set-ups: %zu\n",
              untraced_s.size(), traced_s.size(), setups.size());
  std::printf("untraced rep_s:");
  for (double s : untraced_s) std::printf(" %.6f", s);
  std::printf("\nsetup_s samples:");
  for (const SetupTimes& t : setups) std::printf(" %.6f", t.total);
  std::printf("\n");

  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    json += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
            num(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}, \"info\": {\"workload\": \"" + w.name + "\"";
  json += ", \"seed\": " + std::to_string(args.seed);
  json += ", \"size\": \"" + std::string(args.tiny ? "tiny" : "full") + "\"";
  json += ", \"digest\": \"" + hex(warm.model) + "\"";
  json += ", \"single_vs_rounds\": \"" + single_vs_rounds + "\"";
  json += ", \"engine\": \"" + std::string(sim::to_string(base.engine)) + "\"";
  json += ", \"shards\": " + std::to_string(base.shards);
  json += ", \"threads\": " + std::to_string(sharded_threads);
  json += ", \"processes\": " + std::to_string(base.processes);
  json += ", \"nproc\": " + std::to_string(nproc);
  json += ", \"reps\": " + std::to_string(untraced_s.size() + traced_s.size());
  json += ", \"setups\": " + std::to_string(setups.size());
  json += ", \"build_type\": \"" PERFBENCH_BUILD_TYPE "\"";
  json += ", \"cxx_flags\": \"" PERFBENCH_CXX_FLAGS "\"";
  json += ", \"compiler\": \"" PERFBENCH_COMPILER "\"}}";
  std::printf("%s\n", json.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ladder: %s\n", e.what());
    return 2;
  }
}
