#include "experiments/churn_schedule.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <queue>
#include <stdexcept>

#include "util/rng.hpp"

namespace emcast::experiments {

void ChurnConfig::validate() const {
  auto bad = [](const char* what) {
    throw std::invalid_argument(std::string("ChurnConfig: ") + what);
  };
  if (!(leave_rate >= 0.0) || !std::isfinite(leave_rate)) {
    bad("leave_rate must be finite and >= 0");
  }
  if (!(crash_fraction >= 0.0 && crash_fraction <= 1.0)) {
    bad("crash_fraction must be in [0, 1]");
  }
  if (!(rejoin_rate >= 0.0) || !std::isfinite(rejoin_rate)) {
    bad("rejoin_rate must be finite and >= 0");
  }
  if (!(detection_timeout >= 0.0) || !std::isfinite(detection_timeout)) {
    bad("detection_timeout must be finite and >= 0");
  }
  if (!(domain_failure_rate >= 0.0) || !std::isfinite(domain_failure_rate)) {
    bad("domain_failure_rate must be finite and >= 0");
  }
  if (flash_join_at >= 0.0 && !std::isfinite(flash_join_at)) {
    bad("flash_join_at must be finite (or < 0 to disable)");
  }
  if (std::isnan(flash_join_at)) bad("flash_join_at must not be NaN");
  if (repair_fanout < 1) bad("repair_fanout must be >= 1");
  if (!(control_bits >= 0.0) || !std::isfinite(control_bits)) {
    bad("control_bits must be finite and >= 0");
  }
  if (!(settle_window >= 0.0) || !std::isfinite(settle_window)) {
    bad("settle_window must be finite and >= 0");
  }
  if (!(delay_bound >= 0.0) || !std::isfinite(delay_bound)) {
    bad("delay_bound must be finite and >= 0 (0 = derive)");
  }
}

// ---- ChurnState (the per-kernel replica) ---------------------------------

void ChurnState::reset(const overlay::MultiGroupNetwork& mg,
                       const ChurnConfig& cfg) {
  const auto groups = static_cast<std::size_t>(mg.groups());
  if (trees_.size() == groups) {
    for (std::size_t g = 0; g < groups; ++g) {
      trees_[g].reset(mg.tree(static_cast<int>(g)));
    }
  } else {
    trees_.clear();
    trees_.reserve(groups);
    for (std::size_t g = 0; g < groups; ++g) {
      trees_.emplace_back(mg.tree(static_cast<int>(g)));
    }
  }
  down_.assign(mg.host_count(), 0);
  mg_ = &mg;
  // Single-pointer capture: stays inside std::function's inline buffer,
  // so rebinding on a warm replica does not allocate.
  const overlay::MultiGroupNetwork* net = &mg;
  rtt_ = [net](std::size_t a, std::size_t b) {
    return net->member_delay(a, b);
  };
  // Hosts are tree members (member i is host i).  The router-level join
  // is exact only on degree-1 leaves, so check that here, as
  // HostDelayOracle does.
  const topology::AttachedNetwork& underlay = mg.network();
  rejoin_.build(mg.host_count(), [&](std::size_t h) {
    const auto& edges = underlay.graph.neighbors(underlay.hosts[h]);
    if (edges.size() != 1 || !underlay.is_router(edges[0].to)) {
      throw std::invalid_argument(
          "ChurnState: host is not a degree-1 leaf on a router");
    }
    return overlay::RejoinIndex::Entry{
        edges[0].to, static_cast<std::uint32_t>(h), mg.host_access_delay(h)};
  });
  router_delay_.resize(rejoin_.buckets());
  fanout_ = cfg.repair_fanout;
  settle_window_ = cfg.settle_window;
  repair_active_until_ = -kTimeInfinity;
  applied_ = 0;
  reparented_ = 0;
}

void ChurnState::apply(const sim::FaultEvent& ev, Time now) {
  const auto h = static_cast<std::size_t>(ev.subject);
  switch (static_cast<ChurnAction>(ev.kind)) {
    case ChurnAction::HostDown:
      down_[h] = 1;
      break;
    case ChurnAction::Splice:
      for (auto& t : trees_) {
        if (t.alive(h)) reparented_ += t.leave(h, rtt_);
      }
      repair_active_until_ =
          std::max(repair_active_until_, now + settle_window_);
      break;
    case ChurnAction::LeaveComplete:
      for (auto& t : trees_) {
        if (t.alive(h)) reparented_ += t.leave(h, rtt_);
      }
      down_[h] = 1;
      repair_active_until_ =
          std::max(repair_active_until_, now + settle_window_);
      break;
    case ChurnAction::JoinComplete:
      // The joiner's delay to each attachment router, shared by every
      // tree.
      for (std::size_t k = 0; k < rejoin_.buckets(); ++k) {
        router_delay_[k] = mg_->host_router_delay(h, rejoin_.router(k));
      }
      for (auto& t : trees_) {
        if (!t.alive(h)) t.join(h, rejoin_, router_delay_, fanout_);
      }
      down_[h] = 0;
      repair_active_until_ =
          std::max(repair_active_until_, now + settle_window_);
      break;
  }
  ++applied_;
}

// ---- offline schedule resolution -----------------------------------------

namespace {

/// Internal resolver events: the raw churn draws plus the bookkeeping
/// steps (crash detection, repair application) interleaved in one
/// deterministic (time, seq) priority queue.
enum class RawKind : std::uint32_t {
  Crash,
  Leave,
  Rejoin,
  DomainFail,  ///< subject indexes the domain list, not a host
  Detect,
  ApplySplice,
  ApplyLeave,
  ApplyJoin,
};

struct QEvent {
  Time at;
  RawKind kind;
  std::size_t subject;
  std::uint64_t seq;  ///< push order: deterministic tie-break
};

struct QCmp {
  bool operator()(const QEvent& a, const QEvent& b) const {
    if (a.at != b.at) return a.at > b.at;  // min-heap on time
    return a.seq > b.seq;
  }
};

std::size_t orphan_count(const ChurnState& state, int groups,
                         std::size_t h) {
  std::size_t n = 0;
  for (int g = 0; g < groups; ++g) n += state.tree(g).children(h).size();
  return n;
}

}  // namespace

ChurnSchedule make_churn_schedule(
    const ChurnConfig& cfg, const overlay::MultiGroupNetwork& mg,
    const std::vector<std::size_t>& protected_hosts,
    const ChurnCostModel& cost, Time horizon) {
  cfg.validate();
  if (!(cost.fwd_cpu_rate > 0)) {
    throw std::invalid_argument("make_churn_schedule: fwd_cpu_rate <= 0");
  }
  const std::size_t n = mg.host_count();
  const int groups = mg.groups();
  const Time unit = cost.fwd_overhead + cfg.control_bits / cost.fwd_cpu_rate;

  std::vector<std::uint8_t> is_protected(n, 0);
  for (std::size_t h : protected_hosts) {
    if (h < n) is_protected[h] = 1;
  }

  // Attachment domains in deterministic (router id) order, for the
  // correlated-failure draw.
  std::vector<std::vector<std::size_t>> domains;
  {
    std::map<NodeId, std::vector<std::size_t>> by_router;
    const auto& attachment = mg.network().attachment;
    for (std::size_t h = 0; h < n && h < attachment.size(); ++h) {
      by_router[attachment[h]].push_back(h);
    }
    domains.reserve(by_router.size());
    for (auto& [router, hosts] : by_router) domains.push_back(std::move(hosts));
  }

  std::priority_queue<QEvent, std::vector<QEvent>, QCmp> queue;
  std::uint64_t seq = 0;
  auto push = [&](Time at, RawKind kind, std::size_t subject) {
    queue.push(QEvent{at, kind, subject, seq++});
  };

  const util::Rng root(cfg.seed);

  // Per-host Poisson churn: alternating leave / rejoin renewal process.
  if (cfg.leave_rate > 0.0) {
    for (std::size_t h = 0; h < n; ++h) {
      if (is_protected[h]) continue;
      util::Rng hr = root.split(0x10000ULL + h);
      Time t = hr.exponential(1.0 / cfg.leave_rate);
      while (t < horizon) {
        const bool crash = hr.uniform() < cfg.crash_fraction;
        push(t, crash ? RawKind::Crash : RawKind::Leave, h);
        if (cfg.rejoin_rate <= 0.0) break;
        t += hr.exponential(1.0 / cfg.rejoin_rate);
        if (t >= horizon) break;
        push(t, RawKind::Rejoin, h);
        t += hr.exponential(1.0 / cfg.leave_rate);
      }
    }
  }

  // Correlated whole-domain failures.
  if (cfg.domain_failure_rate > 0.0 && !domains.empty()) {
    util::Rng dr = root.split(2);
    Time t = dr.exponential(1.0 / cfg.domain_failure_rate);
    while (t < horizon) {
      const auto d = static_cast<std::size_t>(dr.uniform_int(
          0, static_cast<std::int64_t>(domains.size()) - 1));
      push(t, RawKind::DomainFail, d);
      t += dr.exponential(1.0 / cfg.domain_failure_rate);
    }
  }

  // Flash crowd: the picked hosts leave gracefully well before the flash
  // instant, then all rejoin within a few hundred microseconds of it.
  if (cfg.flash_join_at >= 0.0 && cfg.flash_join_count > 0) {
    util::Rng fr = root.split(3);
    std::vector<std::uint8_t> picked(n, 0);
    std::size_t chosen = 0;
    // Bounded rejection sampling keeps this deterministic and cheap.
    for (std::size_t attempt = 0;
         attempt < 64 * cfg.flash_join_count && chosen < cfg.flash_join_count;
         ++attempt) {
      const auto h = static_cast<std::size_t>(
          fr.uniform_int(0, static_cast<std::int64_t>(n) - 1));
      if (is_protected[h] || picked[h]) continue;
      picked[h] = 1;
      const Time leave_at =
          cfg.flash_join_at * (0.2 + 0.3 * fr.uniform());
      push(leave_at, RawKind::Leave, h);
      push(cfg.flash_join_at + static_cast<double>(chosen) * 50e-6,
           RawKind::Rejoin, h);
      ++chosen;
    }
  }

  // Resolve in time order against an offline replica, exactly the state
  // machine the kernels replay online.
  ChurnSchedule out;
  if (queue.empty()) return out;  // churn off: no replica to build
  ChurnState state;
  state.reset(mg, cfg);
  std::vector<std::uint8_t> pending(n, 0);
  std::vector<Time> pending_until(n, 0.0);
  auto alive = [&](std::size_t h) { return state.tree(0).alive(h); };
  auto emit = [&](Time at, ChurnAction action, std::size_t h) {
    out.actions.push_back(sim::FaultEvent{
        at, static_cast<std::uint32_t>(action),
        static_cast<std::int32_t>(h)});
  };
  auto start_crash = [&](Time at, std::size_t h) {
    if (!alive(h) || pending[h] || state.down(h)) {
      ++out.dropped_raw;
      return;
    }
    ++out.raw_events;
    ++out.crashes;
    pending[h] = 1;
    // The splice completion extends this at Detect time; until then the
    // detection instant is the earliest a rejoin could possibly land.
    pending_until[h] = at + cfg.detection_timeout;
    emit(at, ChurnAction::HostDown, h);
    state.apply(out.actions.back(), at);
    push(at + cfg.detection_timeout, RawKind::Detect, h);
  };

  while (!queue.empty()) {
    const QEvent ev = queue.top();
    queue.pop();
    const std::size_t h = ev.subject;
    switch (ev.kind) {
      case RawKind::Crash:
        start_crash(ev.at, h);
        break;
      case RawKind::DomainFail:
        for (std::size_t member : domains[h]) {
          if (!is_protected[member]) start_crash(ev.at, member);
        }
        break;
      case RawKind::Leave: {
        if (!alive(h) || pending[h] || state.down(h)) {
          ++out.dropped_raw;
          break;
        }
        ++out.raw_events;
        ++out.leaves;
        pending[h] = 1;
        const std::size_t orphans = orphan_count(state, groups, h);
        const Time done =
            ev.at + static_cast<double>(orphans + 1) * unit;
        pending_until[h] = done;
        emit(done, ChurnAction::LeaveComplete, h);
        push(done, RawKind::ApplyLeave, h);
        break;
      }
      case RawKind::Rejoin:
        if (pending[h]) {
          // A repair for h is still in flight: re-contact after it lands
          // instead of silently losing the member.  Never re-queue into
          // the past — the deferred retry must outrun the current event
          // or the queue spins on it forever.
          push(std::max(pending_until[h], ev.at) + unit, RawKind::Rejoin, h);
          break;
        }
        if (alive(h)) {
          ++out.dropped_raw;
          break;
        }
        ++out.raw_events;
        ++out.rejoins;
        pending[h] = 1;
        pending_until[h] = ev.at + unit;
        emit(ev.at + unit, ChurnAction::JoinComplete, h);
        push(ev.at + unit, RawKind::ApplyJoin, h);
        break;
      case RawKind::Detect: {
        // The parent noticed the silence; the splice pays one control
        // message per orphan plus the departure notice.
        const std::size_t orphans = orphan_count(state, groups, h);
        const Time done =
            ev.at + static_cast<double>(orphans + 1) * unit;
        pending_until[h] = done;
        emit(done, ChurnAction::Splice, h);
        push(done, RawKind::ApplySplice, h);
        break;
      }
      case RawKind::ApplySplice:
      case RawKind::ApplyLeave:
        state.apply(
            sim::FaultEvent{ev.at,
                            static_cast<std::uint32_t>(
                                ev.kind == RawKind::ApplySplice
                                    ? ChurnAction::Splice
                                    : ChurnAction::LeaveComplete),
                            static_cast<std::int32_t>(h)},
            ev.at);
        pending[h] = 0;
        ++out.repairs;
        break;
      case RawKind::ApplyJoin:
        state.apply(
            sim::FaultEvent{
                ev.at, static_cast<std::uint32_t>(ChurnAction::JoinComplete),
                static_cast<std::int32_t>(h)},
            ev.at);
        pending[h] = 0;
        ++out.repairs;
        break;
    }
  }

  std::stable_sort(out.actions.begin(), out.actions.end(),
                   [](const sim::FaultEvent& a, const sim::FaultEvent& b) {
                     return a.at < b.at;
                   });
  return out;
}

// ---- lookahead plan for the sharded engine -------------------------------

CrossShardEdges::CrossShardEdges(ChurnState& state,
                                 const overlay::MultiGroupNetwork& mg,
                                 const std::vector<std::uint32_t>& shard_of)
    : state_(state),
      mg_(mg),
      shard_of_(shard_of),
      orphans_(static_cast<std::size_t>(mg.groups())) {
  for (int g = 0; g < mg.groups(); ++g) {
    const overlay::ChurnTree& t = state.tree(g);
    for (std::size_t h = 0; h < t.size(); ++h) {
      if (!t.alive(h)) continue;
      for (const std::size_t c : t.children(h)) add(h, c);
    }
  }
}

void CrossShardEdges::add(std::size_t parent, std::size_t child) {
  if (shard_of_[parent] == shard_of_[child]) return;
  ++delays_[mg_.member_delay(parent, child)];
}

void CrossShardEdges::remove(std::size_t parent, std::size_t child) {
  if (shard_of_[parent] == shard_of_[child]) return;
  const auto it = delays_.find(mg_.member_delay(parent, child));
  if (it == delays_.end()) {
    throw std::logic_error("CrossShardEdges: removing an unknown edge");
  }
  if (--it->second == 0) delays_.erase(it);
}

void CrossShardEdges::apply(const sim::FaultEvent& ev) {
  if (static_cast<ChurnAction>(ev.kind) == ChurnAction::HostDown) {
    state_.apply(ev, ev.at);  // changes no edge
    return;
  }
  constexpr std::size_t npos = overlay::MulticastTree::npos;
  const auto h = static_cast<std::size_t>(ev.subject);
  const int groups = mg_.groups();
  // Drop every edge at the subject; remember its children, whose parent
  // edges the repair re-creates elsewhere.
  for (int g = 0; g < groups; ++g) {
    const overlay::ChurnTree& t = state_.tree(g);
    auto& orphans = orphans_[static_cast<std::size_t>(g)];
    orphans.assign(t.children(h).begin(), t.children(h).end());
    if (!t.alive(h)) continue;
    if (t.parent(h) != npos) remove(t.parent(h), h);
    for (const std::size_t c : orphans) remove(h, c);
  }
  state_.apply(ev, ev.at);
  // Re-add the subject's edges and the former children's parent edges.
  for (int g = 0; g < groups; ++g) {
    const overlay::ChurnTree& t = state_.tree(g);
    if (t.alive(h)) {
      if (t.parent(h) != npos) add(t.parent(h), h);
      for (const std::size_t c : t.children(h)) add(h, c);
    }
    for (const std::size_t c : orphans_[static_cast<std::size_t>(g)]) {
      const std::size_t p = t.parent(c);
      if (t.alive(c) && p != npos && p != h) add(p, c);
    }
  }
}

std::vector<sim::LookaheadEpoch> churn_lookahead_plan(
    const ChurnSchedule& schedule, const overlay::MultiGroupNetwork& mg,
    const ChurnConfig& cfg, const std::vector<std::uint32_t>& shard_of,
    Time fwd_overhead, Time fallback_min_delay) {
  // No action: a single epoch, which is no plan.
  if (shard_of.empty() || schedule.actions.empty()) return {};

  ChurnState state;
  state.reset(mg, cfg);
  CrossShardEdges cross(state, mg, shard_of);

  // Segment the run at every tree-mutating action; HostDown changes no
  // edges.  Same-instant actions fold into one segment with the min over
  // their intermediate edge sets (conservative for same-instant ties).
  std::vector<Time> seg_start{0.0};
  std::vector<Time> seg_min{cross.min()};
  for (const sim::FaultEvent& ev : schedule.actions) {
    cross.apply(ev);
    if (static_cast<ChurnAction>(ev.kind) == ChurnAction::HostDown) {
      continue;
    }
    const Time m = cross.min();
    if (ev.at > seg_start.back()) {
      seg_start.push_back(ev.at);
      seg_min.push_back(m);
    } else {
      seg_min.back() = std::min(seg_min.back(), m);
    }
  }

  // Epoch k must also cover edges that died exactly at its start (a post
  // issued at the boundary instant may still ride the old edge), so it
  // inherits the previous segment's min.
  std::vector<sim::LookaheadEpoch> plan;
  for (std::size_t k = 0; k < seg_start.size(); ++k) {
    Time m = seg_min[k];
    if (k > 0) m = std::min(m, seg_min[k - 1]);
    const Time lookahead =
        fwd_overhead + (std::isfinite(m) ? m : std::max<Time>(
                                                  fallback_min_delay, 0.0));
    if (plan.empty() || plan.back().lookahead != lookahead) {
      plan.push_back(sim::LookaheadEpoch{seg_start[k], lookahead});
    }
  }
  // A single epoch is just the uniform lookahead the EngineConfig already
  // carries — no plan needed.
  if (plan.size() <= 1) plan.clear();
  return plan;
}

}  // namespace emcast::experiments
