#include "sim/process_backend.hpp"

#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <string>
#include <thread>

#include "sim/wire_codec.hpp"

namespace emcast::sim {

struct ProcessSimulator::WorkerProc {
  pid_t pid = -1;
  std::unique_ptr<Channel> ch;
  std::size_t begin = 0;
  std::size_t end = 0;
  bool reaped = false;
  std::string death;  ///< cached waitpid diagnostic once reaped
};

namespace {

std::string wait_status_string(std::size_t w, int status) {
  if (WIFSIGNALED(status)) {
    return "worker " + std::to_string(w) + " killed by signal " +
           std::to_string(WTERMSIG(status));
  }
  const int code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return "worker " + std::to_string(w) + " exited with status " +
         std::to_string(code) + " mid-protocol";
}

}  // namespace

void ProcessSimulator::reap_all(std::vector<WorkerProc>& workers,
                                bool kill_first, double timeout) {
  if (kill_first) {
    for (auto& wp : workers) {
      if (!wp.reaped && wp.pid > 0) ::kill(wp.pid, SIGKILL);
    }
  }
  for (std::size_t w = 0; w < workers.size(); ++w) {
    auto& wp = workers[w];
    if (wp.reaped || wp.pid <= 0) continue;
    const double start = monotonic_seconds();
    bool killed = kill_first;
    for (;;) {
      int status = 0;
      const pid_t r = ::waitpid(wp.pid, &status, killed ? 0 : WNOHANG);
      if (r == wp.pid) {
        wp.reaped = true;
        wp.death = wait_status_string(w, status);
        break;
      }
      if (monotonic_seconds() - start > timeout) {
        ::kill(wp.pid, SIGKILL);
        killed = true;
        continue;
      }
      sched_yield();
    }
  }
}

ProcessSimulator::ProcessSimulator(const ProcessConfig& config)
    : config_(config) {
  if (!(config.lookahead > 0) || !std::isfinite(config.lookahead)) {
    throw std::invalid_argument("ProcessSimulator: lookahead must be > 0");
  }
  if (!(config.timeout_seconds > 0)) {
    throw std::invalid_argument("ProcessSimulator: timeout must be > 0");
  }
  const std::size_t n = std::max<std::size_t>(1, config.shards);
  processes_ = [&] {
    std::size_t p = config.processes != 0
                        ? config.processes
                        : std::max<std::size_t>(
                              1, std::thread::hardware_concurrency());
    return std::min(n, std::max<std::size_t>(1, p));
  }();
  policy_.init(n, config.lookahead);
  // Shard + mailbox wiring is IDENTICAL to ShardedSimulator's: the model
  // is built against the same Shard objects, and worker processes inherit
  // them (and their mailbox graph) whole through fork's copy-on-write.
  shards_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    shards_.emplace_back(std::unique_ptr<Shard>(new Shard()));
    Shard& s = *shards_.back();
    s.index_ = i;
    s.lookahead_ = config.lookahead;
    s.incoming_.resize(n);
    s.drain_buf_.reserve(64);
  }
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
  if (!config.lookahead_matrix.empty()) {
    set_lookahead_matrix(config.lookahead_matrix);
  }
}

ProcessSimulator::~ProcessSimulator() = default;

std::size_t ProcessSimulator::owner_of(std::size_t shard) const {
  // Inverse of the contiguous block map; processes_ is small, shard
  // lookups are per-handoff on the hub, so the closed form matters
  // little — but keep it O(1) anyway.
  const std::size_t n = shards_.size();
  std::size_t w = shard * processes_ / n;
  while (shard_begin(w) > shard) --w;
  while (shard_end(w) <= shard) ++w;
  return w;
}

void ProcessSimulator::set_message_handler(ShardMsgHandler handler) {
  handler_ = std::move(handler);
  for (auto& s : shards_) s->handler_ = &handler_;
}

void ProcessSimulator::set_result_hooks(ShardResultWriter writer,
                                        ShardResultReader reader) {
  result_writer_ = std::move(writer);
  result_reader_ = std::move(reader);
}

void ProcessSimulator::reset(Time lookahead) {
  Time next_lookahead = config_.lookahead;
  if (!(lookahead <= 0.0)) {
    if (!std::isfinite(lookahead)) {
      throw std::invalid_argument(
          "ProcessSimulator::reset: lookahead not finite");
    }
    next_lookahead = lookahead;
  }
  for (auto& s : shards_) s->reset(next_lookahead);
  config_.lookahead = next_lookahead;
  policy_.set_scalar(next_lookahead);
  if (!(lookahead <= 0.0)) {
    policy_.clear_plan_and_matrix();
  } else if (!policy_.plan().empty() || !policy_.matrix().empty()) {
    apply_shard_floor();
  }
  rounds_ = 0;
  events_agg_ = 0;
  posted_agg_ = 0;
  spilled_agg_ = 0;
}

void ProcessSimulator::set_lookahead_plan(std::vector<LookaheadEpoch> plan) {
  policy_.set_plan(std::move(plan));
  apply_shard_floor();
}

void ProcessSimulator::set_lookahead_matrix(std::vector<Time> matrix) {
  policy_.set_matrix(std::move(matrix));
  apply_shard_floor();
}

void ProcessSimulator::apply_shard_floor() {
  // Same floors as ShardedSimulator::apply_shard_floor — the post asserts
  // must reject exactly what the (shared) window scheduler relies on.
  const Time floor = policy_.floor();
  const std::size_t n = shards_.size();
  for (std::size_t i = 0; i < n; ++i) {
    Shard& s = *shards_[i];
    s.lookahead_ = floor;
    if (policy_.matrix().empty()) {
      s.post_floor_.clear();
      continue;
    }
    s.post_floor_.assign(n, floor);
    for (std::size_t dst = 0; dst < n; ++dst) {
      if (dst == i) continue;
      s.post_floor_[dst] = policy_.pair_floor(i, dst);
    }
  }
}

std::uint64_t ProcessSimulator::run(Time until) {
  // Channels first, THEN fork: the shm mappings must predate the children
  // to be shared, and socketpairs must exist for both sides to inherit.
  std::vector<ChannelPair> pairs;
  pairs.reserve(processes_);
  for (std::size_t w = 0; w < processes_; ++w) {
    pairs.push_back(config_.transport == TransportKind::Shm
                        ? make_shm_pair()
                        : make_socket_pair());
  }

  std::vector<WorkerProc> workers(processes_);
  for (std::size_t w = 0; w < processes_; ++w) {
    const pid_t pid = ::fork();
    if (pid < 0) {
      const std::string err = std::strerror(errno);
      reap_all(workers, /*kill_first=*/true, config_.timeout_seconds);
      throw std::runtime_error("process backend: fork failed: " + err);
    }
    if (pid == 0) {
      // Child: keep only this worker's end; dropping the rest closes the
      // inherited hub-side fds (socket EOF semantics need that) and
      // unmaps the other pairs' rings in this process.  A dying hub
      // takes the worker with it (PDEATHSIG) even if the worker is
      // compute-bound and not watching the channel.
      std::unique_ptr<Channel> mine = std::move(pairs[w].worker_end);
      pairs.clear();
      workers.clear();
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      worker_main(w, *mine, until);  // _exits, never returns
    }
    workers[w].pid = pid;
    workers[w].begin = shard_begin(w);
    workers[w].end = shard_end(w);
  }
  for (std::size_t w = 0; w < processes_; ++w) {
    workers[w].ch = std::move(pairs[w].hub_end);
  }
  pairs.clear();  // parent drops the worker ends
  for (std::size_t w = 0; w < processes_; ++w) {
    WorkerProc* wp = &workers[w];
    wp->ch->set_timeout(config_.timeout_seconds);
    wp->ch->set_peer_probe([wp, w]() -> std::string {
      if (wp->reaped) return wp->death;
      int status = 0;
      if (::waitpid(wp->pid, &status, WNOHANG) != wp->pid) return "";
      wp->reaped = true;
      wp->death = wait_status_string(w, status);
      return wp->death;
    });
  }

  try {
    const std::uint64_t events = hub_main(workers, until);
    events_agg_ += events;
    return events;
  } catch (const TransportError& e) {
    // A dead or wedged worker: the run is unrecoverable, but the FAILURE
    // must be clean — kill the survivors, reap everything, surface the
    // channel's diagnostic.  No hang, no zombie, no leaked fd.
    reap_all(workers, /*kill_first=*/true, config_.timeout_seconds);
    throw std::runtime_error(std::string("process backend: ") + e.what());
  } catch (const wire::WireError& e) {
    reap_all(workers, /*kill_first=*/true, config_.timeout_seconds);
    throw std::runtime_error(std::string("process backend: ") + e.what());
  } catch (...) {
    reap_all(workers, /*kill_first=*/true, config_.timeout_seconds);
    throw;
  }
}

std::uint64_t ProcessSimulator::hub_main(std::vector<WorkerProc>& workers,
                                         Time until) {
  const std::size_t n = shards_.size();
  std::vector<std::uint8_t> buf;
  std::vector<std::uint8_t> frame;
  std::string model_error;

  // Receive the next frame from `wp`, absorbing Error frames (a worker
  // reports its model exception out-of-band, then keeps the protocol
  // moving with abort votes; only the FIRST message is kept).
  auto recv_typed = [&](WorkerProc& wp) -> wire::FrameType {
    for (;;) {
      wp.ch->recv_frame(frame);
      const wire::FrameType t = wire::peek_type(frame.data(), frame.size());
      if (t != wire::FrameType::kError) return t;
      wire::ErrorFrame e = wire::decode_error(frame.data(), frame.size());
      if (model_error.empty()) model_error = std::move(e.message);
    }
  };

  // ---- handshake: one Hello per worker, blocks verified.
  for (std::size_t w = 0; w < workers.size(); ++w) {
    if (recv_typed(workers[w]) != wire::FrameType::kHello) {
      throw wire::WireError("wire: expected hello from worker " +
                            std::to_string(w));
    }
    const wire::HelloFrame h = wire::decode_hello(frame.data(), frame.size());
    if (h.worker != w || h.shard_begin != workers[w].begin ||
        h.shard_end != workers[w].end) {
      throw wire::WireError("wire: hello does not match worker " +
                            std::to_string(w) + "'s shard block");
    }
  }

  std::vector<std::uint64_t> keys(n, kInfTimeKey);
  // Relay backlog, one queue per destination worker: a worker still in
  // its egress phase is not reading its channel (it is blocked sending
  // handoffs to us), so relaying to it immediately can deadlock once the
  // rings fill in both directions — its egress and the relayed traffic
  // each may exceed the 256-KB ring.  Frames for a worker are held here
  // until its RoundDone arrives; from then on it sits in its ingest recv
  // loop and is guaranteed to drain whatever the hub sends.
  std::vector<bool> ingesting(workers.size(), false);
  std::vector<std::vector<std::vector<std::uint8_t>>> backlog(workers.size());
  for (std::uint64_t round = 0;; ++round) {
    // ---- collect the key image (the distributed min-reduction).
    for (std::size_t w = 0; w < workers.size(); ++w) {
      WorkerProc& wp = workers[w];
      if (recv_typed(wp) != wire::FrameType::kKeys) {
        throw wire::WireError("wire: expected keys from worker " +
                              std::to_string(w));
      }
      const wire::KeysFrame kf = wire::decode_keys(frame.data(), frame.size());
      if (kf.round != round || kf.shard_begin != wp.begin ||
          kf.keys.size() != wp.end - wp.begin) {
        throw wire::WireError("wire: keys frame out of step (worker " +
                              std::to_string(w) + ")");
      }
      std::copy(kf.keys.begin(), kf.keys.end(), keys.begin() + wp.begin);
    }
    const std::uint64_t kmin = *std::min_element(keys.begin(), keys.end());

    // ---- verdict, broadcast to every worker at once.
    wire::WindowFrame win;
    win.round = round;
    if (kmin == kAbortTimeKey) {
      win.verdict = wire::WindowVerdict::kAbort;
    } else if (kmin == kInfTimeKey || key_time(kmin) > until) {
      win.verdict = wire::WindowVerdict::kDone;
    } else {
      win.verdict = wire::WindowVerdict::kRun;
      win.keys = keys;
    }
    buf.clear();
    wire::encode(buf, win);
    for (auto& wp : workers) wp.ch->send_frame(buf);

    if (win.verdict == wire::WindowVerdict::kAbort) {
      // Workers _exit on the abort verdict; reap, then surface the model
      // error.  The original exception TYPE died with the worker — the
      // message is what crosses the boundary (see the class comment).
      reap_all(workers, /*kill_first=*/false, config_.timeout_seconds);
      throw std::runtime_error(
          "process backend: " +
          (model_error.empty() ? std::string("worker voted abort")
                               : model_error));
    }
    if (win.verdict == wire::WindowVerdict::kDone) break;

    // ---- route handoffs until every worker's RoundDone is in.  Raw
    // frame bytes are relayed untouched — the hub never decodes a batch.
    // Per-destination delivery order matches an immediate relay (source
    // workers read in index order, frames in arrival order within each),
    // so the buffering is invisible to the protocol.
    std::fill(ingesting.begin(), ingesting.end(), false);
    for (std::size_t w = 0; w < workers.size(); ++w) {
      for (;;) {
        const wire::FrameType t = recv_typed(workers[w]);
        if (t == wire::FrameType::kRoundDone) {
          const wire::RoundDoneFrame rd =
              wire::decode_round_done(frame.data(), frame.size());
          if (rd.round != round) {
            throw wire::WireError("wire: round-done out of step");
          }
          break;
        }
        if (t != wire::FrameType::kHandoff) {
          throw wire::WireError("wire: expected handoff or round-done");
        }
        const std::uint32_t dest =
            wire::decode_handoff_dest(frame.data(), frame.size());
        if (dest >= n) {
          throw wire::WireError("wire: handoff to nonexistent shard");
        }
        const std::size_t owner = owner_of(dest);
        if (ingesting[owner]) {
          workers[owner].ch->send_frame(frame);
        } else {
          backlog[owner].push_back(frame);
        }
      }
      ingesting[w] = true;
      for (const auto& held : backlog[w]) workers[w].ch->send_frame(held);
      backlog[w].clear();
    }
    buf.clear();
    wire::encode(buf, wire::DrainGoFrame{round});
    for (auto& wp : workers) wp.ch->send_frame(buf);
    ++rounds_;
  }

  // ---- done: results + telemetry, in worker order; blobs replayed in
  // shard order afterwards so the hub-side merge is deterministic.
  std::vector<std::vector<std::uint8_t>> blobs(n);
  std::vector<bool> have_blob(n, false);
  std::uint64_t events = 0;
  for (std::size_t w = 0; w < workers.size(); ++w) {
    for (;;) {
      const wire::FrameType t = recv_typed(workers[w]);
      if (t == wire::FrameType::kResult) {
        wire::ResultFrame rf = wire::decode_result(frame.data(), frame.size());
        if (rf.shard >= n) {
          throw wire::WireError("wire: result for nonexistent shard");
        }
        blobs[rf.shard] = std::move(rf.blob);
        have_blob[rf.shard] = true;
        continue;
      }
      if (t == wire::FrameType::kBye) {
        const wire::ByeFrame bye =
            wire::decode_bye(frame.data(), frame.size());
        events += bye.events_executed;
        posted_agg_ += bye.messages_posted;
        spilled_agg_ += bye.messages_spilled;
        break;
      }
      throw wire::WireError("wire: expected result or bye");
    }
  }
  reap_all(workers, /*kill_first=*/false, config_.timeout_seconds);
  if (result_reader_) {
    for (std::size_t s = 0; s < n; ++s) {
      if (have_blob[s]) result_reader_(s, blobs[s].data(), blobs[s].size());
    }
  }
  return events;
}

void ProcessSimulator::worker_main(std::size_t w, Channel& ch, Time until) {
  const pid_t hub_pid = ::getppid();
  ch.set_timeout(config_.timeout_seconds);
  ch.set_peer_probe([hub_pid]() -> std::string {
    return ::getppid() == hub_pid ? std::string() : "hub process died";
  });

  const std::size_t n = shards_.size();
  const std::size_t begin = shard_begin(w);
  const std::size_t end = shard_end(w);
  const Time horizon_bound = std::nextafter(until, kTimeInfinity);

  std::vector<std::uint8_t> buf;
  std::vector<std::uint8_t> frame;
  bool failed = false;
  auto send_error = [&](const char* what) {
    buf.clear();
    wire::encode(buf, wire::ErrorFrame{std::string(what)});
    ch.send_frame(buf);
    failed = true;
  };

  try {
    buf.clear();
    wire::encode(buf, wire::HelloFrame{static_cast<std::uint32_t>(w),
                                       static_cast<std::uint32_t>(begin),
                                       static_cast<std::uint32_t>(end)});
    ch.send_frame(buf);

    wire::KeysFrame kf;
    kf.shard_begin = static_cast<std::uint32_t>(begin);
    kf.keys.resize(end - begin);
    std::vector<CrossShardMsg> egress;

    for (std::uint64_t round = 0;; ++round) {
      // ---- drain phase (exactly worker_rounds': merge + publish keys;
      // a failed worker keeps the protocol moving with abort votes).
      if (!failed) {
        try {
          for (std::size_t s = begin; s < end; ++s) {
            shards_[s]->drain_and_schedule();
            kf.keys[s - begin] = time_key(shards_[s]->sim_.next_event_time());
          }
        } catch (const std::exception& e) {
          send_error(e.what());
        } catch (...) {
          send_error("unknown model exception");
        }
      }
      if (failed) {
        std::fill(kf.keys.begin(), kf.keys.end(), kAbortTimeKey);
      }
      kf.round = round;
      buf.clear();
      wire::encode(buf, kf);
      ch.send_frame(buf);

      ch.recv_frame(frame);
      const wire::WindowFrame win =
          wire::decode_window(frame.data(), frame.size());
      if (win.verdict == wire::WindowVerdict::kAbort) _exit(2);
      if (win.verdict == wire::WindowVerdict::kDone) break;
      if (win.keys.size() != n) {
        throw wire::WireError("wire: window key image size mismatch");
      }

      // ---- process phase: identical window math to worker_rounds, with
      // the broadcast key image standing in for the shared atomics.
      const std::uint64_t kmin =
          *std::min_element(win.keys.begin(), win.keys.end());
      const Time tmin = key_time(kmin);
      const Time w_global = policy_.window_end(tmin);
      if (!failed) {
        try {
          for (std::size_t s = begin; s < end; ++s) {
            Time wend;
            if (policy_.matrix().empty()) {
              wend = w_global;
            } else {
              wend = kTimeInfinity;
              for (std::size_t j = 0; j < n; ++j) {
                const std::uint64_t kj = win.keys[j];
                if (kj == kInfTimeKey) continue;
                wend =
                    std::min(wend, policy_.pair_window_end(key_time(kj), j, s));
              }
            }
            if (!(wend > tmin)) wend = std::nextafter(tmin, kTimeInfinity);
            wend = std::min(wend, horizon_bound);
            shards_[s]->sim_.run_before(wend);
          }
        } catch (const std::exception& e) {
          send_error(e.what());
        } catch (...) {
          send_error("unknown model exception");
        }
      }

      // ---- egress: cross-process posts landed in THIS process's
      // copy-on-write copies of the remote destinations' mailboxes; ship
      // each non-empty (my source -> remote dest) pair as one Handoff.
      // Same-process destinations keep the in-process path untouched.
      for (std::size_t d = 0; d < n; ++d) {
        if (d >= begin && d < end) continue;
        for (std::size_t s = begin; s < end; ++s) {
          if (s == d) continue;
          egress.clear();
          shards_[d]->incoming_[s]->drain_into(egress);
          if (egress.empty()) continue;
          wire::HandoffFrame hf;
          hf.dest_shard = static_cast<std::uint32_t>(d);
          hf.msgs = std::move(egress);
          buf.clear();
          wire::encode(buf, hf);
          ch.send_frame(buf);
          egress = std::move(hf.msgs);  // keep the arena warm
        }
      }
      buf.clear();
      wire::encode(buf, wire::RoundDoneFrame{round});
      ch.send_frame(buf);

      // ---- ingest forwarded handoffs until the barrier (DrainGo).
      for (;;) {
        ch.recv_frame(frame);
        const wire::FrameType t = wire::peek_type(frame.data(), frame.size());
        if (t == wire::FrameType::kDrainGo) break;
        if (t != wire::FrameType::kHandoff) {
          throw wire::WireError("wire: expected handoff or drain-go");
        }
        const wire::HandoffFrame hf =
            wire::decode_handoff(frame.data(), frame.size());
        if (hf.dest_shard < begin || hf.dest_shard >= end) {
          throw wire::WireError("wire: handoff routed to the wrong worker");
        }
        Shard& dest = *shards_[hf.dest_shard];
        for (const CrossShardMsg& m : hf.msgs) {
          if (m.source_shard >= n || m.source_shard == hf.dest_shard) {
            throw wire::WireError("wire: handoff from an impossible source");
          }
          dest.incoming_[m.source_shard]->inject(m);
        }
      }
    }

    // ---- epilogue: advance drained shards to the horizon (no events can
    // execute — cannot throw), marshal results, report telemetry, leave.
    for (std::size_t s = begin; s < end; ++s) shards_[s]->sim_.run(until);
    if (result_writer_ && !failed) {
      std::vector<std::uint8_t> blob;
      for (std::size_t s = begin; s < end; ++s) {
        blob.clear();
        result_writer_(s, blob);
        wire::ResultFrame rf;
        rf.shard = static_cast<std::uint32_t>(s);
        rf.blob = std::move(blob);
        buf.clear();
        wire::encode(buf, rf);
        ch.send_frame(buf);
        blob = std::move(rf.blob);
      }
    }
    std::uint64_t events = 0, posted = 0, spilled = 0;
    for (std::size_t s = begin; s < end; ++s) {
      events += shards_[s]->events_executed();
    }
    // Posted/spilled counters live in the PRODUCER's copy of each
    // mailbox: sum every pair whose source this worker owns (producer
    // ownership partitions the pairs, so worker sums never overlap).
    for (std::size_t d = 0; d < n; ++d) {
      for (std::size_t s = begin; s < end; ++s) {
        if (s == d) continue;
        posted += shards_[d]->incoming_[s]->posted();
        spilled += shards_[d]->incoming_[s]->spilled();
      }
    }
    buf.clear();
    wire::encode(buf, wire::ByeFrame{events, posted, spilled});
    ch.send_frame(buf);
    _exit(0);
  } catch (...) {
    // Transport/protocol failure (hub died, timeout, corrupt frame):
    // nobody left to report to — exit with a distinct status for the
    // hub's waitpid diagnostic.  _exit, never return: this process must
    // not unwind into the parent's code or static destructors.
    _exit(3);
  }
}

}  // namespace emcast::sim
