// Golden traces: FNV-1a digests of canonical model output, pinned across
// commits.  The differential suites compare engines with one another, so
// a change every engine shares (a scheduling rewrite, a new fan-out path)
// would pass them unnoticed; these digests compare each run with the
// output recorded before such a change.  Covered: the regulated fan-out
// and MPEG frame trains on Single and 4-shard Sharded (the drain handler),
// the capacity-aware shared uplink on Single, 4-shard Sharded and
// Process, TraceSource replay trains, the unregulated dissemination
// fan-out on Single, Sharded at 1 and 4 shards and Process, a CbrSource
// train racing events that tie with its ticks, and churn: the resolved
// churn timelines and lookahead plans of the shared churn slice
// (tests/experiments/churn_slice.hpp) on both delay providers, the
// crash-heavy and flash-join traces of churn_determinism_test.cpp on
// Single and 4-shard Sharded, and a capacity-aware crash-heavy trace on
// all three engines.
//
// A digest that moves is a behaviour change: explain every changed bit
// before re-pinning.

#include <cstdint>
#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "../experiments/churn_slice.hpp"
#include "experiments/churn_schedule.hpp"
#include "experiments/multigroup_sim.hpp"
#include "sim/pending_entry.hpp"
#include "sim/simulator.hpp"
#include "traffic/cbr_source.hpp"
#include "traffic/trace_format.hpp"
#include "traffic/trace_recorder.hpp"

namespace emcast::experiments {
namespace {

class Fnv {
 public:
  void mix(std::uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      h_ ^= (word >> (8 * byte)) & 0xffU;
      h_ *= 0x100000001b3ULL;
    }
  }
  std::string hex() const {
    char out[17];
    std::snprintf(out, sizeof out, "%016llx",
                  static_cast<unsigned long long>(h_));
    return out;
  }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

std::string trace_hash(const DeliveryTrace& trace) {
  Fnv h;
  h.mix(trace.size());
  for (const DeliveryRecord& r : trace) {
    h.mix(r.time_key);
    h.mix(r.packet_id);
    h.mix(static_cast<std::uint32_t>(r.group));
    h.mix(static_cast<std::uint32_t>(r.host));
  }
  return h.hex();
}

MultiGroupSimConfig regulated_config(TrafficKind kind) {
  MultiGroupSimConfig c;
  c.kind = kind;
  c.family = TreeFamily::Dsct;
  c.regulation = RegulationScheme::SigmaRho;
  c.utilization = 0.6;
  c.hosts = 96;
  c.duration = 1.0;
  c.warmup = 0.25;
  c.seed = 7;
  c.collect_trace = true;
  return c;
}

void expect_on_both_engines(const MultiGroupSimConfig& cfg,
                            const char* pin) {
  const MultiGroupSimResult single = run_multigroup(cfg);
  ASSERT_GT(single.trace.size(), 1000u);
  EXPECT_EQ(trace_hash(single.trace), pin) << "Single";
  MultiGroupSimConfig sharded = cfg;
  sharded.engine = sim::EngineKind::Sharded;
  sharded.shards = 4;
  const MultiGroupSimResult four = run_multigroup(sharded);
  EXPECT_GT(four.messages, 0u) << "no cross-shard traffic to drain";
  EXPECT_EQ(trace_hash(four.trace), pin) << "Sharded, 4 shards";
}

/// expect_on_both_engines, then Process: 4 shards on 2 workers.
void expect_on_every_engine(const MultiGroupSimConfig& cfg,
                            const char* pin) {
  expect_on_both_engines(cfg, pin);
  MultiGroupSimConfig process = cfg;
  process.engine = sim::EngineKind::Process;
  process.shards = 4;
  process.processes = 2;
  EXPECT_EQ(trace_hash(run_multigroup(process).trace), pin)
      << "Process, 4 shards on 2 workers";
}

/// The capacity-aware trees: every copy leaves through its forwarder's
/// shared uplink at C_host, so these pin the uplink queueing.
MultiGroupSimConfig capacity_aware_config(TrafficKind kind) {
  MultiGroupSimConfig c = regulated_config(kind);
  c.regulation = RegulationScheme::CapacityAware;
  c.utilization = 0.8;
  return c;
}

TEST(GoldenTrace, CapacityAwareAudio) {
  expect_on_every_engine(capacity_aware_config(TrafficKind::Audio),
                         "d81aa2e738c0513e");
}

TEST(GoldenTrace, CapacityAwareVideo) {
  expect_on_every_engine(capacity_aware_config(TrafficKind::Video),
                         "aa5690f10e9b42ff");
}

TEST(GoldenTrace, CapacityAwareHetero) {
  expect_on_every_engine(capacity_aware_config(TrafficKind::Hetero),
                         "4f93c1a58676fb1c");
}

TEST(GoldenTrace, RegulatedVideo) {
  expect_on_both_engines(regulated_config(TrafficKind::Video),
                         "35f9d3bcd4cd6867");
}

TEST(GoldenTrace, RegulatedHetero) {
  expect_on_both_engines(regulated_config(TrafficKind::Hetero),
                         "60ab805087cfc372");
}

TEST(GoldenTrace, TraceReplay) {
  // Record the Hetero workload's source boundary, then replay it: every
  // emission of the replayed run comes from TraceSource trains.
  const MultiGroupSimConfig live = regulated_config(TrafficKind::Hetero);
  traffic::TraceRecorder rec(static_cast<std::size_t>(live.groups));
  MultiGroupSimConfig recording = live;
  recording.record = &rec;
  run_multigroup(recording);
  const traffic::TraceBuffer trace = rec.finish();
  MultiGroupSimConfig replay = live;
  replay.replay = &trace;
  const MultiGroupSimResult out = run_multigroup(replay);
  ASSERT_GT(out.trace.size(), 1000u);
  // The replayed emissions are the live run's, so the digest is the
  // live Hetero one.
  EXPECT_EQ(trace_hash(out.trace), "60ab805087cfc372");
}

TEST(GoldenTrace, DisseminationFanOut) {
  MultiGroupSimConfig cfg;
  cfg.kind = TrafficKind::Audio;
  cfg.regulation = RegulationScheme::None;
  cfg.utilization = 0.5;
  cfg.groups = 3;
  cfg.hosts = 96;
  cfg.duration = 1.0;
  cfg.warmup = 0.25;
  cfg.seed = 7;
  cfg.collect_trace = true;
  const char* pin = "5bc7592c02bde111";
  EXPECT_EQ(trace_hash(run_multigroup(cfg).trace), pin) << "single kernel";
  cfg.engine = sim::EngineKind::Sharded;
  for (const std::size_t shards : {1u, 4u}) {
    cfg.shards = shards;
    const MultiGroupSimResult out = run_multigroup(cfg);
    ASSERT_GT(out.trace.size(), 1000u);
    EXPECT_EQ(trace_hash(out.trace), pin) << shards << " shards";
  }
  cfg.engine = sim::EngineKind::Process;
  cfg.shards = 4;
  cfg.processes = 2;
  EXPECT_EQ(trace_hash(run_multigroup(cfg).trace), pin)
      << "Process, 4 shards on 2 workers";
}

TEST(GoldenTrace, CbrTrainAgainstTiedEvents) {
  // Two identical CBR sources tie at every tick.  Each emission of source
  // 0 also schedules a marker exactly three ticks ahead (the same
  // sequential float accumulation the source uses), so every marker ties
  // with a source tick; which fires first depends on when each tick was
  // scheduled, i.e. on the train length and on trains being scheduled
  // whole at their start.
  sim::Simulator sim;
  traffic::CbrConfig cfg;
  cfg.rate = 1000.0;
  cfg.packet_size = 100.0;
  traffic::CbrSource a(cfg);
  cfg.flow = 1;
  traffic::CbrSource b(cfg);
  const Time interval = cfg.packet_size / cfg.rate;
  const Time until = 10.0;
  Fnv h;
  std::uint64_t entries = 0;
  auto log = [&h, &entries](std::uint64_t tag, std::uint64_t id, Time t) {
    h.mix(tag);
    h.mix(id);
    h.mix(sim::time_key(t));
    ++entries;
  };
  a.start(sim,
          [&sim, &log, interval](sim::Packet p) {
            log(0, p.id, p.created);
            const Time ahead = p.created + interval + interval + interval;
            sim.schedule_at(ahead, [&sim, &log, id = p.id] {
              log(2, id, sim.now());
            });
          },
          until);
  b.start(sim, [&log](sim::Packet p) { log(1, p.id, p.created); }, until);
  sim.run();
  EXPECT_GT(entries, 290u);
  EXPECT_EQ(h.hex(), "c445aff3295e3730");
}

/// Digest of every resolved timeline (counters and actions) and every
/// lookahead plan of the churn slice on one network.
std::string churn_timeline_hash(const churn_slice::Network& net) {
  const auto maps = churn_slice::shard_maps(*net.mg);
  Fnv h;
  for (const ChurnConfig& c : churn_slice::configs(net)) {
    const ChurnSchedule s = churn_slice::schedule(net, c);
    for (const std::uint64_t counter :
         {s.raw_events, s.crashes, s.leaves, s.rejoins, s.repairs,
          s.dropped_raw}) {
      h.mix(counter);
    }
    h.mix(s.actions.size());
    for (const sim::FaultEvent& ev : s.actions) {
      h.mix(sim::time_key(ev.at));
      h.mix(ev.kind);
      h.mix(static_cast<std::uint32_t>(ev.subject));
    }
    for (const churn_slice::ShardMap& m : maps) {
      const auto plan = churn_lookahead_plan(s, *net.mg, c, m.shard_of,
                                             250e-6, m.fallback_min_delay);
      h.mix(plan.size());
      for (const sim::LookaheadEpoch& e : plan) {
        h.mix(sim::time_key(e.from));
        h.mix(sim::time_key(e.lookahead));
      }
    }
  }
  return h.hex();
}

TEST(GoldenTrace, ChurnTimelineFig5DenseMatrix) {
  const churn_slice::Network net = churn_slice::networks()[0];
  ASSERT_FALSE(net.mg->compact_delays());
  EXPECT_EQ(churn_timeline_hash(net), "d48c9e7b03dc7344");
}

TEST(GoldenTrace, ChurnTimelineHierarchicalOracle) {
  const churn_slice::Network net = churn_slice::networks()[1];
  ASSERT_TRUE(net.mg->compact_delays());
  EXPECT_EQ(churn_timeline_hash(net), "9f52e2cb48516c5c");
}

/// The 96-host churn base of churn_determinism_test.cpp.
MultiGroupSimConfig churn_run_config() {
  MultiGroupSimConfig c;
  c.kind = TrafficKind::Audio;
  c.family = TreeFamily::Dsct;
  c.regulation = RegulationScheme::SigmaRho;
  c.utilization = 0.6;
  c.hosts = 96;
  c.duration = 1.5;
  c.warmup = 0.25;
  c.seed = 7;
  c.collect_trace = true;
  c.churn.enabled = true;
  c.churn.seed = 13;
  c.churn.detection_timeout = 0.05;
  c.churn.settle_window = 0.2;
  return c;
}

TEST(GoldenTrace, ChurnCrashHeavy) {
  MultiGroupSimConfig c = churn_run_config();
  c.churn.leave_rate = 0.25;
  c.churn.crash_fraction = 0.9;
  c.churn.rejoin_rate = 2.0;
  c.churn.domain_failure_rate = 1.0;
  expect_on_both_engines(c, "5bacbb9ec44ff6f9");
}

TEST(GoldenTrace, CapacityAwareChurnCrashHeavy) {
  // The crash-heavy schedule on capacity-aware trees, at a point where a
  // copy queued in the uplink across a repair once broke the rounds
  // engines.  Recorded on Single.
  MultiGroupSimConfig c = churn_run_config();
  c.regulation = RegulationScheme::CapacityAware;
  c.utilization = 0.8;
  c.seed = 1;
  c.churn.seed = 21;
  c.churn.leave_rate = 0.25;
  c.churn.crash_fraction = 0.9;
  c.churn.rejoin_rate = 2.0;
  c.churn.domain_failure_rate = 1.0;
  expect_on_every_engine(c, "be709f1460bfb17b");
}

TEST(GoldenTrace, ChurnFlashJoin) {
  MultiGroupSimConfig c = churn_run_config();
  c.churn.leave_rate = 0.05;
  c.churn.crash_fraction = 0.3;
  c.churn.flash_join_at = 0.8;
  c.churn.flash_join_count = 24;
  expect_on_both_engines(c, "8cdf28c9faf16adb");
}

}  // namespace
}  // namespace emcast::experiments
