#include "sim/context.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace emcast::sim {

const char* to_string(EngineKind kind) {
  switch (kind) {
    case EngineKind::Single:
      return "single";
    case EngineKind::Sharded:
      return "sharded";
    case EngineKind::Process:
      return "process";
  }
  return "?";
}

namespace {

/// Shared by the constructor and the rebinding reset: a sharded backend
/// with shards > 1 needs a map, and every entry must name a real shard.
void validate_shard_map(const std::vector<std::uint32_t>& shard_of,
                        std::size_t shards) {
  if (shards > 1 && shard_of.empty()) {
    throw std::invalid_argument(
        "Engine: sharded backend with shards > 1 needs a host->shard map");
  }
  for (const std::uint32_t s : shard_of) {
    if (s >= std::max<std::size_t>(1, shards)) {
      throw std::invalid_argument(
          "Engine: shard_of entry out of range (>= shards)");
    }
  }
}

}  // namespace

Engine::Engine(EngineConfig config) : config_(std::move(config)) {
  if (config_.kind == EngineKind::Single) {
    if (config_.shards > 1) {
      throw std::invalid_argument("Engine: EngineKind::Single with shards > 1");
    }
    // A leftover map would make context_for_host index past the single
    // backend; everything is local, so drop it rather than honour it.
    config_.shard_of.clear();
    single_ = std::make_unique<Simulator>();
    backends_.push_back(detail::ContextBackend{
        single_.get(), nullptr, 0, nullptr, 0, &deliver_});
    return;
  }

  validate_shard_map(config_.shard_of, config_.shards);
  const auto fill = [this](RoundsConfig& rc) {
    rc.shards = config_.shards;
    rc.lookahead = config_.lookahead;
    rc.mailbox_capacity = config_.mailbox_capacity;
    rc.lookahead_matrix = config_.lookahead_matrix;
  };
  if (config_.kind == EngineKind::Sharded) {
    ShardedConfig shc;
    fill(shc);
    shc.threads = config_.threads;
    sharded_ = std::make_unique<ShardedSimulator>(shc);
    core_ = sharded_.get();
  } else {
    ProcessConfig pc;
    fill(pc);
    pc.processes = config_.processes;
    pc.timeout_seconds = config_.timeout_seconds;
    process_ = std::make_unique<ProcessSimulator>(pc);
    core_ = process_.get();
  }

  // Both rounds backends expose their shards through the core, so the
  // context records — and with them every model-visible behaviour of
  // SimContext — are identical; on the process backend the workers simply
  // inherit them (and the handler below) through fork.
  const std::uint32_t* shard_of =
      config_.shard_of.empty() ? nullptr : config_.shard_of.data();
  backends_.reserve(core_->shard_count());
  for (std::size_t i = 0; i < core_->shard_count(); ++i) {
    Shard& shard = core_->shard(i);
    backends_.push_back(detail::ContextBackend{
        &shard.sim(), &shard, static_cast<std::uint32_t>(i), shard_of,
        config_.shard_of.size(), &deliver_});
  }
  // Cross-shard arrivals: the drain handler only schedules locally (the
  // ShardMsgHandler contract); the model's DeliverFn then fires at the
  // stamped arrival time exactly like a local deliver() would.  The drain
  // arrives sorted, so the local sequence numbers follow the
  // deterministic (deliver_at, source shard, seq) order.
  core_->set_message_handler([this](Shard& shard,
                                    std::span<const CrossShardMsg> msgs) {
    const detail::ContextBackend* b = &backends_[shard.index()];
    for (const CrossShardMsg& m : msgs) {
      b->sim->schedule_at(m.deliver_at,
                          [b, host = m.dest_host, p = m.packet] {
                            (*b->on_deliver)(SimContext(b), host, p);
                          });
    }
  });
}

void Engine::reset() {
  if (core_ != nullptr) {
    core_->reset();
  } else {
    single_->reset_discarding(0.0);
  }
}

void Engine::reset(std::vector<std::uint32_t> shard_of, Time lookahead,
                   std::vector<Time> lookahead_matrix) {
  if (core_ == nullptr) {
    throw std::invalid_argument(
        "Engine::reset: cannot rebind a host->shard map on a Single engine");
  }
  validate_shard_map(shard_of, config_.shards);
  if (!(lookahead > 0) || !std::isfinite(lookahead)) {
    throw std::invalid_argument("Engine::reset: lookahead must be > 0");
  }
  // Rewind the backend BEFORE rebinding: a mid-run reset throws out of
  // the kernel guard with the old routing still intact.  The explicit
  // scalar clears the backend's old plan and matrix; the new matrix (when
  // given) installs after, so a validation throw leaves the engine reset
  // on the uniform scalar rather than on a half-committed matrix.
  core_->reset(lookahead);
  config_.lookahead = lookahead;
  config_.lookahead_matrix.clear();
  config_.shard_of = std::move(shard_of);
  // The map's storage moved: re-point every backend record at it.
  const std::uint32_t* map =
      config_.shard_of.empty() ? nullptr : config_.shard_of.data();
  for (auto& b : backends_) {
    b.shard_of = map;
    b.shard_of_size = config_.shard_of.size();
  }
  if (!lookahead_matrix.empty()) {
    core_->set_lookahead_matrix(lookahead_matrix);  // validates
    config_.lookahead_matrix = std::move(lookahead_matrix);
  }
}

std::uint64_t Engine::run(Time until) {
  if (single_ != nullptr) return single_->run(until);
  if (sharded_ != nullptr) return sharded_->run(until);
  return process_->run(until);
}

}  // namespace emcast::sim
