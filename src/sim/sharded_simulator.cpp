#include "sim/sharded_simulator.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <thread>

#include "sim/pending_entry.hpp"

namespace emcast::sim {

namespace {

/// Sentinels shared with the process backend (sim/window_policy.hpp):
/// kInfKey = no pending events, kAbortKey = a failed worker's vote riding
/// the min-reduction below every real time key, so every thread observes
/// an abort at the same aligned decision point it reads the window from.
const std::uint64_t kInfKey = kInfTimeKey;
constexpr std::uint64_t kAbortKey = kAbortTimeKey;

void fetch_min(std::atomic<std::uint64_t>& slot, std::uint64_t value) {
  std::uint64_t cur = slot.load(std::memory_order_relaxed);
  while (value < cur &&
         !slot.compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
  }
}

}  // namespace

ShardedSimulator::ShardedSimulator(const ShardedConfig& config)
    : config_(config),
      threads_([&] {
        const std::size_t shards = std::max<std::size_t>(1, config.shards);
        std::size_t t = config.threads != 0
                            ? config.threads
                            : std::max<std::size_t>(
                                  1, std::thread::hardware_concurrency());
        return std::min(shards, std::max<std::size_t>(1, t));
      }()),
      barrier_(threads_) {
  if (!(config.lookahead > 0) || !std::isfinite(config.lookahead)) {
    throw std::invalid_argument("ShardedSimulator: lookahead must be > 0");
  }
  const std::size_t n = std::max<std::size_t>(1, config.shards);
  policy_.init(n, config.lookahead);
  shards_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    shards_.emplace_back(std::unique_ptr<Shard>(new Shard()));
    Shard& s = *shards_.back();
    s.index_ = i;
    s.lookahead_ = config.lookahead;
    s.incoming_.resize(n);
    s.drain_buf_.reserve(64);
  }
  // Mailbox wiring: shard i's outgoing_[j] is the (i -> j) mailbox owned
  // by shard j's incoming side, so producer thread == i's worker and
  // consumer thread == j's worker by construction.
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t i = 0; i < n; ++i) {
      if (i == j) continue;
      auto box = std::make_unique<ShardMailbox>();
      box->init(static_cast<std::uint32_t>(i), config.mailbox_capacity);
      shards_[j]->incoming_[i] = std::move(box);
    }
    shards_[j]->outgoing_.resize(n, nullptr);
  }
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i == j) continue;
      shards_[i]->outgoing_[j] = shards_[j]->incoming_[i].get();
    }
  }
  min_key_[0].store(kInfKey, std::memory_order_relaxed);
  min_key_[1].store(kInfKey, std::memory_order_relaxed);
  shard_key_ = std::make_unique<PaddedKey[]>(n);
  for (std::size_t i = 0; i < n; ++i) {
    shard_key_[i].key.store(kInfKey, std::memory_order_relaxed);
  }
  if (!config.lookahead_matrix.empty()) {
    set_lookahead_matrix(config.lookahead_matrix);
  }
}

ShardedSimulator::~ShardedSimulator() = default;

void ShardedSimulator::set_message_handler(ShardMsgHandler handler) {
  handler_ = std::move(handler);
  for (auto& s : shards_) s->handler_ = &handler_;
}

std::uint64_t ShardedSimulator::run(Time until) {
  events_before_run_ = events_executed();
  first_error_ = nullptr;
  min_key_[0].store(kInfKey, std::memory_order_relaxed);
  min_key_[1].store(kInfKey, std::memory_order_relaxed);
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    shard_key_[i].key.store(kInfKey, std::memory_order_relaxed);
  }

  std::vector<std::thread> workers;
  workers.reserve(threads_ - 1);
  for (std::size_t t = 1; t < threads_; ++t) {
    workers.emplace_back([this, t, until] { worker(t, until); });
  }
  worker(0, until);
  for (auto& w : workers) w.join();

  if (first_error_) std::rethrow_exception(first_error_);
  return events_executed() - events_before_run_;
}

void ShardedSimulator::reset(Time lookahead) {
  // lookahead <= 0 keeps the current value.  Negated comparison so NaN
  // falls into the update branch and reaches the finiteness throw (the
  // kernel guard convention) instead of silently keeping a stale value.
  Time next_lookahead = config_.lookahead;
  if (!(lookahead <= 0.0)) {
    if (!std::isfinite(lookahead)) {
      throw std::invalid_argument(
          "ShardedSimulator::reset: lookahead not finite");
    }
    next_lookahead = lookahead;
  }
  // A reset issued from inside a model event reaches a mid-run kernel,
  // whose reset_discarding throws (best-effort misuse guard; the sharded
  // state is unspecified after such a throw, exactly like after a model
  // exception aborting run()).  config_ commits only after every kernel
  // guard passed, so a failed mid-run rebind never leaves a lookahead
  // that a later keep-current reset would silently propagate.
  for (auto& s : shards_) s->reset(next_lookahead);
  config_.lookahead = next_lookahead;
  policy_.set_scalar(next_lookahead);
  if (!(lookahead <= 0.0)) {
    // Explicit rebind: the installed plan AND pair matrix were derived
    // for the previous routing/schedule, so they die with it — the
    // explicit scalar rebuilds the uniform bound (an empty matrix is a
    // uniform matrix of that scalar).  A keep-current reset(0) retains
    // both (warm re-runs of the same schedule), but the shard floors
    // were just rewound by Shard::reset — re-derive them.
    policy_.clear_plan_and_matrix();
  } else if (!policy_.plan().empty() || !policy_.matrix().empty()) {
    apply_shard_floor();
  }
  rounds_ = 0;
  events_before_run_ = 0;
  first_error_ = nullptr;
  min_key_[0].store(kInfKey, std::memory_order_relaxed);
  min_key_[1].store(kInfKey, std::memory_order_relaxed);
}

void ShardedSimulator::set_lookahead_plan(std::vector<LookaheadEpoch> plan) {
  policy_.set_plan(std::move(plan));  // validates
  apply_shard_floor();
}

void ShardedSimulator::set_lookahead_matrix(std::vector<Time> matrix) {
  // Validation AND the min-plus transitive closure (Floyd-Warshall
  // including the diagonal — the minimum feedback-cycle cost) live in
  // WindowPolicy::set_matrix, shared with the process backend so both
  // derive windows from the identical closed matrix.
  policy_.set_matrix(std::move(matrix));
  apply_shard_floor();
}

void ShardedSimulator::apply_shard_floor() {
  // While a plan is installed, Shard::post's assert floor (and
  // SimContext::lookahead()) is the weakest epoch guarantee; the per-epoch
  // contract itself is the model's (documented in set_lookahead_plan).
  const Time floor = policy_.floor();
  const std::size_t n = shards_.size();
  for (std::size_t i = 0; i < n; ++i) {
    Shard& s = *shards_[i];
    s.lookahead_ = floor;
    if (policy_.matrix().empty()) {
      s.post_floor_.clear();
      continue;
    }
    // Per-destination assert floors: exactly the bound the window
    // scheduler derives from (pair_window_end's effective L over the
    // CLOSED matrix), so a model that would narrow a window the
    // scheduler already committed to fails the post assert loudly.
    // Without a plan the closed pair entry applies alone — a post on a
    // pair with no route at all (+inf even after closure) can never be
    // legal.
    s.post_floor_.assign(n, floor);
    for (std::size_t dst = 0; dst < n; ++dst) {
      if (dst == i) continue;
      s.post_floor_[dst] = policy_.pair_floor(i, dst);
    }
  }
}

void ShardedSimulator::record_error() noexcept {
  std::lock_guard lock(error_mutex_);
  if (!first_error_) first_error_ = std::current_exception();
}

void ShardedSimulator::worker(std::size_t t, Time until) {
  if (config_.pin_threads) util::pin_thread_to_core(t);
  worker_rounds(t, until);
}

void ShardedSimulator::worker_rounds(std::size_t t, Time until) {
  const std::size_t n = shards_.size();
  const std::size_t begin = t * n / threads_;
  const std::size_t end = (t + 1) * n / threads_;
  // Events at exactly `until` execute (Simulator::run parity); the
  // window bound is exclusive, so cap it one ulp past the horizon.
  const Time horizon_bound = std::nextafter(until, kTimeInfinity);

  // A model exception anywhere must not strand the other workers at a
  // barrier.  The failed thread keeps walking the barrier protocol but
  // stops doing work and votes kAbortKey into every subsequent round's
  // reduction; all threads see the abort at the aligned window-decision
  // point — never split across barrier indices — and exit together.
  // (An asynchronous abort *flag* deadlocks here: a thread parked at the
  // mid barrier can observe a flag set by a thread already past its
  // process phase, leave early, and strand the others one barrier later.)
  bool failed = false;

  for (std::uint64_t round = 0;; ++round) {
    // ---- drain phase: merge mailboxes, contribute to the reduction.
    std::uint64_t local_min = kAbortKey;
    if (!failed) {
      try {
        local_min = kInfKey;
        for (std::size_t s = begin; s < end; ++s) {
          shards_[s]->drain_and_schedule();
          const Time nt = shards_[s]->sim_.next_event_time();
          const std::uint64_t key = time_key(nt);
          // Publish this shard's time image for the per-pair window
          // decision; the drain barrier below sequences it before any
          // reader (see PaddedKey for the single-buffer argument).
          shard_key_[s].key.store(key, std::memory_order_relaxed);
          local_min = std::min(local_min, key);
        }
      } catch (...) {
        record_error();
        failed = true;
        local_min = kAbortKey;
      }
    }
    fetch_min(min_key_[round & 1], local_min);
    // Reset the other parity slot for round + 1: its round-(r-1) readers
    // are two barrier edges behind us, its round-(r+1) writers one ahead.
    min_key_[(round + 1) & 1].store(kInfKey, std::memory_order_relaxed);
    barrier_.arrive_and_wait();

    // ---- window decision: every thread derives the identical verdict.
    const std::uint64_t kmin =
        min_key_[round & 1].load(std::memory_order_relaxed);
    if (kmin == kAbortKey) return;  // someone failed: exit, aligned
    if (kmin == kInfKey) break;  // all shards drained, nothing in flight
    const Time tmin = key_time(kmin);
    if (tmin > until) break;  // horizon reached; beyond-horizon events stay
    // Uniform-lookahead window (also the matrix path's per-shard floor
    // fallback is built on the same tmin progress argument below).
    Time w_global = policy_.window_end(tmin);

    // ---- process phase: run the window on this worker's shard block.
    if (!failed) {
      try {
        for (std::size_t s = begin; s < end; ++s) {
          Time w;
          if (policy_.matrix().empty()) {
            w = w_global;
          } else {
            // Per-shard window: bounded only by sources that can reach
            // this shard — INCLUDING itself through the closed matrix's
            // diagonal (the minimum feedback-cycle cost: this shard's
            // own executions can reflect off a neighbour and return).
            // A shard with an infinite next-event time executes nothing
            // this round — it posts nothing, so it contributes no bound;
            // a shard no finite source constrains runs clear to the
            // horizon.
            w = kTimeInfinity;
            for (std::size_t j = 0; j < n; ++j) {
              const std::uint64_t kj =
                  shard_key_[j].key.load(std::memory_order_relaxed);
              if (kj == kInfKey) continue;
              w = std::min(w, policy_.pair_window_end(key_time(kj), j, s));
            }
          }
          // Progress floor: arrivals from any source land strictly after
          // tmin (t_j >= tmin, effective L > 0), so events at <= tmin are
          // always safe — and the global-min shard always advances.
          if (!(w > tmin)) w = std::nextafter(tmin, kTimeInfinity);
          w = std::min(w, horizon_bound);
          shards_[s]->sim_.run_before(w);
        }
      } catch (...) {
        record_error();
        failed = true;  // voted into round r+1's reduction above
      }
    }
    if (t == 0) ++rounds_;
    barrier_.arrive_and_wait();
  }

  // Epilogue: drained shards advance their clock to the horizon exactly
  // as a lone Simulator::run(until) would.  No events can execute here
  // (every remaining event is beyond the horizon), so this cannot throw.
  for (std::size_t s = begin; s < end; ++s) {
    shards_[s]->sim_.run(until);
  }
}

std::uint64_t ShardedSimulator::events_executed() const {
  std::uint64_t sum = 0;
  for (const auto& s : shards_) sum += s->events_executed();
  return sum;
}

std::uint64_t ShardedSimulator::messages_posted() const {
  std::uint64_t sum = 0;
  for (const auto& s : shards_) {
    for (const auto& box : s->incoming_) {
      if (box) sum += box->posted();
    }
  }
  return sum;
}

std::uint64_t ShardedSimulator::messages_spilled() const {
  std::uint64_t sum = 0;
  for (const auto& s : shards_) {
    for (const auto& box : s->incoming_) {
      if (box) sum += box->spilled();
    }
  }
  return sum;
}

}  // namespace emcast::sim
