#include "sim/process_backend.hpp"

#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <new>
#include <stdexcept>
#include <string>

#include "sim/transport.hpp"
#include "util/barrier.hpp"

namespace emcast::sim {

namespace {

// Worker exit statuses besides 0 (rounds done, bye sent).
constexpr int kExitAborted = 2;   ///< the rounds ended on an abort vote
constexpr int kExitFailed = 3;    ///< the worker itself failed; error sent
constexpr int kExitOrphaned = 4;  ///< the parent died before prctl

std::size_t align64(std::size_t n) { return (n + 63) / 64 * 64; }

std::string wait_status_string(std::size_t w, int status) {
  if (WIFSIGNALED(status)) {
    return "worker " + std::to_string(w) + " killed by signal " +
           std::to_string(WTERMSIG(status));
  }
  const int code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return "worker " + std::to_string(w) + " exited with status " +
         std::to_string(code) + " mid-protocol";
}

std::runtime_error failure(const std::string& what) {
  return std::runtime_error("process backend: " + what);
}

}  // namespace

/// The run's shared state, mapped before fork(): the barrier, the key
/// image, and a ring for every (from, to) pair, where `to` is another
/// worker or, as `to == workers`, the parent.
class ProcessSimulator::Region {
 public:
  Region(std::size_t shards, std::size_t workers)
      : workers_(workers),
        keys_at_(align64(sizeof(util::SpinBarrier))),
        rings_at_(keys_at_ + align64(shards * sizeof(std::uint64_t))),
        ring_bytes_(ShmRing::footprint(ShmRing::kDefaultCapacity)),
        map_(rings_at_ + workers * (workers + 1) * ring_bytes_) {
    barrier_ = new (map_.data()) util::SpinBarrier(workers);
    auto* keys = reinterpret_cast<std::uint64_t*>(map_.data() + keys_at_);
    for (std::size_t i = 0; i < shards; ++i) {
      new (keys + i) std::uint64_t(kInfTimeKey);
    }
    keys_ = {keys, shards};
    for (std::size_t from = 0; from < workers; ++from) {
      for (std::size_t to = 0; to <= workers; ++to) {
        if (to != from) {
          ShmRing::create(slot(from, to), ShmRing::kDefaultCapacity);
        }
      }
    }
  }

  util::SpinBarrier& barrier() { return *barrier_; }
  std::span<std::uint64_t> keys() { return keys_; }
  ShmRing& ring(std::size_t from, std::size_t to) {
    return *std::launder(reinterpret_cast<ShmRing*>(slot(from, to)));
  }
  ShmRing& to_parent(std::size_t from) { return ring(from, workers_); }

 private:
  std::uint8_t* slot(std::size_t from, std::size_t to) {
    return map_.data() + rings_at_ +
           (from * (workers_ + 1) + to) * ring_bytes_;
  }

  std::size_t workers_;
  std::size_t keys_at_;
  std::size_t rings_at_;
  std::size_t ring_bytes_;
  SharedRegion map_;
  util::SpinBarrier* barrier_ = nullptr;
  std::span<std::uint64_t> keys_;
};

/// One worker process's side of the rounds: the RoundSync of its loop,
/// over the region, and its result and bye frames.
class ProcessSimulator::Worker final : public RoundsCore::RoundSync {
 public:
  Worker(ProcessSimulator& sim, Region& region, std::size_t w)
      : sim_(sim),
        region_(region),
        w_(w),
        begin_(sim.block_begin(w, sim.processes_)),
        end_(sim.block_begin(w + 1, sim.processes_)),
        idle_([this] { pump(); }) {
    for (std::size_t v = 0; v < sim.processes_; ++v) {
      if (v != w) inbox_.emplace_back(&region.ring(v, w));
    }
  }
  Worker(const Worker&) = delete;  // idle_ captures this
  Worker& operator=(const Worker&) = delete;

  void barrier() override { region_.barrier().arrive_and_wait(idle_); }

  void exchange() override {
    // Egress: this process's copies of the remote destinations' mailboxes
    // hold what its shards posted to them this round.
    const std::size_t n = sim_.shard_count();
    for (std::size_t d = 0; d < n; ++d) {
      if (d >= begin_ && d < end_) continue;
      for (std::size_t s = begin_; s < end_; ++s) {
        ShardMailbox& box = sim_.mailbox(s, d);
        if (box.staged().empty()) continue;
        frame_.clear();
        put_handoff(frame_, static_cast<std::uint32_t>(d), box.staged());
        box.clear();
        region_.ring(w_, sim_.owner_of(d)).write_frame(frame_, idle_);
      }
    }
    region_.barrier().arrive_and_wait(idle_);
    // Ingest: every egress of the round is in the rings (or already
    // pumped), and none of the next round's can start before this
    // worker's next barrier, so the rings hold exactly this round.
    for (RingReader& in : inbox_) {
      in.pump();
      std::span<const std::uint8_t> payload;
      while (in.next(payload)) {
        decode_frame(payload, decoded_);
        const std::size_t d = decoded_.shard;
        if (decoded_.tag != FrameTag::kHandoff || d < begin_ || d >= end_) {
          throw TransportError("transport: handoff for another worker");
        }
        for (const CrossShardMsg& m : decoded_.msgs) {
          if (m.source_shard >= n || m.source_shard == d) {
            throw TransportError("transport: handoff from no other shard");
          }
          sim_.mailbox(m.source_shard, d).inject(m);
        }
      }
      if (!in.empty()) throw TransportError("transport: partial handoff");
    }
  }

  void record_error() noexcept override {
    try {
      throw;
    } catch (const std::exception& e) {
      send_error(e.what());
    } catch (...) {
      send_error("unknown model exception");
    }
  }

  /// Results of every shard of the block, then the bye frame.
  void send_results() {
    if (sim_.result_writer_) {
      std::vector<std::uint8_t> blob;
      for (std::size_t s = begin_; s < end_; ++s) {
        blob.clear();
        sim_.result_writer_(s, blob);
        frame_.clear();
        put_result(frame_, static_cast<std::uint32_t>(s), blob);
        region_.to_parent(w_).write_frame(frame_, idle_);
      }
    }
    const RoundsCounts c = sim_.block_counts(begin_, end_);
    frame_.clear();
    put_bye(frame_, {sim_.rounds_, c.events, c.posted});
    region_.to_parent(w_).write_frame(frame_, idle_);
  }

 private:
  /// Move every byte other workers wrote to this one into private memory.
  void pump() {
    for (RingReader& in : inbox_) in.pump();
  }

  void send_error(std::string_view what) noexcept {
    try {
      frame_.clear();
      put_error(frame_, what);
      region_.to_parent(w_).write_frame(frame_, idle_);
    } catch (...) {
      _exit(kExitFailed);  // the parent sees an exit without a bye
    }
  }

  ProcessSimulator& sim_;
  Region& region_;
  const std::size_t w_;
  const std::size_t begin_;
  const std::size_t end_;
  const std::function<void()> idle_;
  std::vector<RingReader> inbox_;  ///< from each other worker
  std::vector<std::uint8_t> frame_;
  Frame decoded_;
};

struct ProcessSimulator::Child {
  pid_t pid = -1;
  RingReader frames;
  bool exited = false;
  int status = 0;
  bool bye = false;
};

ProcessSimulator::ProcessSimulator(const ProcessConfig& config)
    : RoundsCore(config),
      processes_(worker_count(config.processes)),
      timeout_seconds_(config.timeout_seconds) {
  if (!(config.timeout_seconds > 0)) {
    throw std::invalid_argument("ProcessSimulator: timeout must be > 0");
  }
}

ProcessSimulator::~ProcessSimulator() = default;

std::size_t ProcessSimulator::owner_of(std::size_t shard) const {
  // Inverse of the contiguous block map, O(1).
  std::size_t w = shard * processes_ / shard_count();
  while (block_begin(w, processes_) > shard) --w;
  while (block_begin(w + 1, processes_) <= shard) ++w;
  return w;
}

void ProcessSimulator::set_result_hooks(ShardResultWriter writer,
                                        ShardResultReader reader) {
  result_writer_ = std::move(writer);
  result_reader_ = std::move(reader);
}

std::uint64_t ProcessSimulator::run(Time until) {
  // Round 0's drain, done here once: a setup-time post sits in the
  // parent's mailbox, and every forked copy of it would deliver it.
  for (std::size_t s = 0; s < shard_count(); ++s) drain(s);

  Region region(shard_count(), processes_);
  const pid_t parent = ::getpid();
  std::vector<Child> children;
  children.reserve(processes_);
  const auto kill_and_reap = [&children] {
    for (const Child& c : children) {
      if (!c.exited) ::kill(c.pid, SIGKILL);
    }
    for (Child& c : children) {
      while (!c.exited && ::waitpid(c.pid, &c.status, 0) < 0 &&
             errno == EINTR) {
      }
      c.exited = true;
    }
  };

  for (std::size_t w = 0; w < processes_; ++w) {
    const pid_t pid = ::fork();
    if (pid < 0) {
      const std::string err = std::strerror(errno);
      kill_and_reap();
      throw failure("fork failed: " + err);
    }
    if (pid == 0) worker_main(w, region, parent, until);
    children.push_back(Child{pid, RingReader(&region.to_parent(w))});
  }
  try {
    return supervise(children, region);
  } catch (...) {
    kill_and_reap();
    throw;
  }
}

void ProcessSimulator::worker_main(std::size_t w, Region& region,
                                   pid_t parent, Time until) {
  // The parent's death takes the worker with it, even mid-window; a
  // parent that died before prctl took effect is caught by the check.
  ::prctl(PR_SET_PDEATHSIG, SIGKILL);
  if (::getppid() != parent) _exit(kExitOrphaned);
  int status = kExitFailed;
  try {
    Worker worker(*this, region, w);
    try {
      if (worker_rounds(w, processes_, region.keys(), worker, until)) {
        worker.send_results();
        status = 0;
      } else {
        status = kExitAborted;
      }
    } catch (...) {
      worker.record_error();
    }
  } catch (...) {
    // No worker to report through (its set-up failed): exit without a bye.
  }
  _exit(status);
}

std::uint64_t ProcessSimulator::supervise(std::vector<Child>& children,
                                          Region& region) {
  using Clock = std::chrono::steady_clock;
  const std::size_t n = shard_count();
  std::vector<std::vector<std::uint8_t>> blobs(n);
  std::vector<bool> have_blob(n, false);
  RoundsCounts counts;
  std::uint64_t rounds = rounds_;
  Frame frame;
  std::uint64_t generation = region.barrier().generation();
  Clock::time_point last_progress = Clock::now();

  for (std::size_t done = 0; done < children.size();) {
    bool busy = false;
    // Exits first, frames second: every frame a worker wrote before its
    // exit is read before the exit is judged.
    for (Child& c : children) {
      if (!c.exited && ::waitpid(c.pid, &c.status, WNOHANG) == c.pid) {
        c.exited = true;
        busy = true;
      }
    }
    for (std::size_t w = 0; w < children.size(); ++w) {
      Child& c = children[w];
      busy |= c.frames.pump();
      std::span<const std::uint8_t> payload;
      while (c.frames.next(payload)) {
        decode_frame(payload, frame);
        switch (frame.tag) {
          case FrameTag::kResult:
            if (frame.shard >= n) throw failure("result of no shard");
            blobs[frame.shard].swap(frame.bytes);
            have_blob[frame.shard] = true;
            break;
          case FrameTag::kBye:
            c.bye = true;
            if (w == 0) rounds = frame.bye.rounds;
            counts.events += frame.bye.events;
            counts.posted += frame.bye.posted;
            break;
          case FrameTag::kError:
            throw failure(std::string(frame.bytes.begin(), frame.bytes.end()));
          default:
            throw failure("worker " + std::to_string(w) +
                          " sent a frame for another worker");
        }
      }
    }
    done = 0;
    for (std::size_t w = 0; w < children.size(); ++w) {
      const Child& c = children[w];
      if (!c.exited) continue;
      if (!c.bye || !WIFEXITED(c.status) || WEXITSTATUS(c.status) != 0) {
        throw failure(wait_status_string(w, c.status));
      }
      ++done;
    }

    const std::uint64_t g = region.barrier().generation();
    const Clock::time_point now = Clock::now();
    if (busy || g != generation) {
      generation = g;
      last_progress = now;
    } else if (now - last_progress >
               std::chrono::duration<double>(timeout_seconds_)) {
      throw failure("timeout: no barrier advance and no frame for " +
                    std::to_string(timeout_seconds_) + " s");
    }
    if (!busy) {
      const timespec pause{0, 50'000};
      ::nanosleep(&pause, nullptr);
    }
  }

  rounds_ = rounds;
  counts_.events += counts.events;
  counts_.posted += counts.posted;
  if (result_reader_) {
    for (std::size_t s = 0; s < n; ++s) {
      if (have_blob[s]) result_reader_(s, blobs[s].data(), blobs[s].size());
    }
  }
  return counts.events;
}

}  // namespace emcast::sim
