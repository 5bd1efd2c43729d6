#include "sim/rounds_core.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <thread>

namespace emcast::sim {

RoundsCore::RoundsCore(const RoundsConfig& config)
    : scalar_(config.lookahead) {
  if (!(config.lookahead > 0) || !std::isfinite(config.lookahead)) {
    throw std::invalid_argument("rounds engine: lookahead must be > 0");
  }
  const std::size_t n = std::max<std::size_t>(1, config.shards);
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
  // by shard j's incoming side, so the producer is i's worker and the
  // consumer j's worker by construction.  Worker processes inherit the
  // whole graph through fork's copy-on-write.
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t i = 0; i < n; ++i) {
      if (i == j) continue;
      shards_[j]->incoming_[i] =
          std::make_unique<ShardMailbox>(static_cast<std::uint32_t>(i));
    }
    shards_[j]->outgoing_.resize(n, nullptr);
  }
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i != j) shards_[i]->outgoing_[j] = &mailbox(i, j);
    }
  }
  if (!config.lookahead_matrix.empty()) {
    set_lookahead_matrix(config.lookahead_matrix);
  }
}

RoundsCore::~RoundsCore() = default;

std::size_t RoundsCore::worker_count(std::size_t requested) const {
  const std::size_t w =
      requested != 0 ? requested
                     : static_cast<std::size_t>(
                           std::thread::hardware_concurrency());
  return std::min(shards_.size(), std::max<std::size_t>(1, w));
}

void RoundsCore::set_message_handler(ShardMsgHandler handler) {
  handler_ = std::move(handler);
  for (auto& s : shards_) s->handler_ = &handler_;
}

void RoundsCore::reset(Time lookahead) {
  // lookahead <= 0 keeps the current value.  Negated comparison so NaN
  // falls into the update branch and reaches the finiteness throw (the
  // kernel guard convention) instead of silently keeping a stale value.
  const bool rebind = !(lookahead <= 0.0);
  if (rebind && !std::isfinite(lookahead)) {
    throw std::invalid_argument("rounds engine reset: lookahead not finite");
  }
  // A reset issued from inside a model event reaches a mid-run kernel,
  // whose reset_discarding throws (best-effort misuse guard; the rounds
  // state is unspecified after such a throw, exactly like after a model
  // exception aborting run()).  The lookahead state commits only after
  // every kernel guard passed, so a failed mid-run rebind never leaves a
  // lookahead that a later keep-current reset would silently propagate.
  for (auto& s : shards_) s->reset();
  if (rebind) {
    scalar_ = lookahead;
    plan_.clear();
    matrix_.clear();
  }
  apply_floors();  // Shard::reset rewound them
  rounds_ = 0;
  counts_ = {};
}

void RoundsCore::set_lookahead_plan(std::vector<LookaheadEpoch> plan) {
  if (!plan.empty() && !matrix_.empty()) {
    throw std::logic_error(
        "set_lookahead_plan: a pair lookahead matrix is installed");
  }
  for (std::size_t e = 0; e < plan.size(); ++e) {
    if (!(plan[e].lookahead > 0) || !std::isfinite(plan[e].lookahead)) {
      throw std::invalid_argument(
          "set_lookahead_plan: lookahead must be > 0");
    }
    if (!std::isfinite(plan[e].from) ||
        (e > 0 && !(plan[e].from > plan[e - 1].from))) {
      throw std::invalid_argument(
          "set_lookahead_plan: epochs must be sorted by strictly "
          "increasing from");
    }
  }
  plan_ = std::move(plan);
  apply_floors();
}

void RoundsCore::set_lookahead_matrix(std::vector<Time> matrix) {
  const std::size_t n = shards_.size();
  if (!matrix.empty()) {
    if (!plan_.empty()) {
      throw std::logic_error(
          "set_lookahead_matrix: a lookahead plan is installed");
    }
    if (matrix.size() != n * n) {
      throw std::invalid_argument(
          "set_lookahead_matrix: need shards^2 entries");
    }
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        // Negated > so NaN is rejected too; +infinity (edge-free pair) is
        // explicitly allowed, unlike the scalar lookahead.
        if (i != j && !(matrix[i * n + j] > 0)) {
          throw std::invalid_argument(
              "set_lookahead_matrix: pair lookahead must be > 0");
        }
      }
    }
    // Min-plus transitive closure (Floyd-Warshall over the shard graph),
    // INCLUDING the diagonal — see the header for why unclosed entries
    // are unsafe.  Entries only shrink toward the true earliest-influence
    // bound, and closing an already-closed matrix is a no-op.  (Diagonal
    // inputs are ignored: the cycle bound is rebuilt from the off-diagonal
    // entries.)
    for (std::size_t i = 0; i < n; ++i) matrix[i * n + i] = kTimeInfinity;
    for (std::size_t k = 0; k < n; ++k) {
      for (std::size_t i = 0; i < n; ++i) {
        if (i == k) continue;
        const Time ik = matrix[i * n + k];
        if (!std::isfinite(ik)) continue;
        for (std::size_t j = 0; j < n; ++j) {
          if (j == k) continue;
          const Time via = ik + matrix[k * n + j];
          Time& d = matrix[i * n + j];
          if (via < d) d = via;
        }
      }
    }
  }
  matrix_ = std::move(matrix);
  apply_floors();
}

void RoundsCore::apply_floors() {
  // The scalar floored by every plan epoch is Shard::post's assert floor
  // (and SimContext::lookahead()); the per-epoch contract itself is the
  // model's (see set_lookahead_plan).  With a matrix, the per-destination
  // floors are exactly the closed entries the window step derives from,
  // so a model post that would narrow a window already committed to fails
  // the post assert loudly.
  Time floor = scalar_;
  for (const LookaheadEpoch& e : plan_) floor = std::min(floor, e.lookahead);
  const std::size_t n = shards_.size();
  for (std::size_t i = 0; i < n; ++i) {
    Shard& s = *shards_[i];
    s.lookahead_ = floor;
    if (matrix_.empty()) {
      s.post_floor_.clear();
    } else {
      s.post_floor_.assign(matrix_.begin() + i * n,
                           matrix_.begin() + (i + 1) * n);
    }
  }
}

bool RoundsCore::worker_rounds(std::size_t w, std::size_t workers,
                               std::span<std::uint64_t> keys,
                               RoundSync& sync, Time until) {
  const std::size_t begin = block_begin(w, workers);
  const std::size_t end = block_begin(w + 1, workers);

  // A model exception anywhere must not strand the other workers at a
  // barrier.  The failed worker keeps walking the round protocol but
  // stops doing work and writes the abort vote into its key slots every
  // round; all workers see the abort at the aligned decision point —
  // never split across barrier indices — and leave together.  (An
  // asynchronous abort *flag* deadlocks here: a worker parked at the
  // mid barrier can observe a flag set by a worker already past its
  // window phase, leave early, and strand the others one barrier later.)
  bool failed = false;
  for (;;) {
    if (!failed) {
      try {
        for (std::size_t s = begin; s < end; ++s) keys[s] = drain(s);
      } catch (...) {
        sync.record_error();
        failed = true;
      }
    }
    if (failed) {
      std::fill(keys.begin() + begin, keys.begin() + end, kAbortTimeKey);
    }
    sync.barrier();

    // Every worker reads the same image, so every verdict is the same.
    const std::uint64_t kmin = *std::min_element(keys.begin(), keys.end());
    if (kmin == kAbortTimeKey) return false;
    if (finished(kmin, until)) break;  // beyond-horizon events stay

    if (!failed) {
      try {
        for (std::size_t s = begin; s < end; ++s) {
          run_window(s, keys, key_time(kmin), until);
        }
      } catch (...) {
        sync.record_error();
        failed = true;  // voted in the next round's drain step
      }
    }
    if (w == 0) ++rounds_;
    sync.exchange();
  }

  // Horizon epilogue: advance the clocks exactly as a lone
  // Simulator::run(until) would.  Every remaining event is beyond the
  // horizon, so none executes and this cannot throw.
  for (std::size_t s = begin; s < end; ++s) shards_[s]->sim_.run(until);
  return true;
}

std::uint64_t RoundsCore::drain(std::size_t s) {
  Shard& shard = *shards_[s];
  shard.drain_and_schedule();
  return time_key(shard.sim_.next_event_time());
}

Time RoundsCore::window_end(Time tmin) const {
  Time w = tmin + scalar_;
  if (!plan_.empty()) {
    // Epoch in force at tmin: the last entry with from <= tmin (the
    // scalar covers times before the first epoch).
    auto it = std::upper_bound(
        plan_.begin(), plan_.end(), tmin,
        [](Time t, const LookaheadEpoch& e) { return t < e.from; });
    if (it != plan_.begin()) w = tmin + std::prev(it)->lookahead;
    // Remap at the window boundary: an epoch starting inside the window
    // caps it at b + L(b), so no post made under the old regime can land
    // inside a window that already runs under the new one.
    for (; it != plan_.end() && it->from < w; ++it) {
      w = std::min(w, it->from + it->lookahead);
    }
  }
  return w;
}

void RoundsCore::run_window(std::size_t s,
                            std::span<const std::uint64_t> keys, Time tmin,
                            Time until) {
  Time w;
  if (matrix_.empty()) {
    w = window_end(tmin);
  } else {
    // Per-shard window: bounded only by sources that can reach this
    // shard — INCLUDING itself through the closed diagonal.  A shard no
    // finite source constrains runs clear to the horizon; an edge-free
    // pair (+inf) constrains nothing.
    const std::size_t n = shards_.size();
    w = kTimeInfinity;
    for (std::size_t j = 0; j < n; ++j) {
      if (keys[j] == kInfTimeKey) continue;
      w = std::min(w, key_time(keys[j]) + matrix_[j * n + s]);
    }
  }
  if (!(w > tmin)) w = std::nextafter(tmin, kTimeInfinity);
  w = std::min(w, std::nextafter(until, kTimeInfinity));
  Shard& shard = *shards_[s];
#ifndef NDEBUG
  // Every shard runs to the same w here, so a post landing before it
  // would land inside its destination's window (Shard::post asserts).
  if (matrix_.empty()) shard.window_end_ = w;
#endif
  shard.sim_.run_before(w);
#ifndef NDEBUG
  shard.window_end_ = -kTimeInfinity;
#endif
}

RoundsCounts RoundsCore::block_counts(std::size_t begin,
                                      std::size_t end) const {
  RoundsCounts c;
  for (std::size_t s = begin; s < end; ++s) {
    c.events += shards_[s]->events_executed();
    for (std::size_t d = 0; d < shards_.size(); ++d) {
      if (d == s) continue;
      c.posted += shards_[d]->incoming_[s]->posted();
    }
  }
  return c;
}

}  // namespace emcast::sim
