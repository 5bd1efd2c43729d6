#include "experiments/sweep.hpp"

#include <memory>

#include "util/thread_pool.hpp"

namespace emcast::experiments {

std::vector<double> paper_rho_grid() {
  // ρ̄ ∈ {0.35, 0.40, …, 0.95}.  Generated by integer index: accumulating
  // r += 0.05 makes inclusion of the 0.95 endpoint depend on rounding.
  constexpr int kPoints = 13;
  std::vector<double> grid;
  grid.reserve(kPoints);
  for (int k = 0; k < kPoints; ++k) grid.push_back(0.35 + 0.05 * k);
  return grid;
}

std::vector<SingleHostResult> sweep_single_host(SingleHostConfig base,
                                                const std::vector<double>& grid,
                                                std::size_t threads) {
  std::vector<SingleHostResult> results(grid.size());
  util::parallel_for(
      grid.size(),
      [&](std::size_t i) {
        SingleHostConfig c = base;
        c.utilization = grid[i];
        results[i] = run_single_host(c);
      },
      threads);
  return results;
}

std::vector<MultiGroupSimResult> sweep_multigroup(
    MultiGroupSimConfig base, const std::vector<double>& grid,
    std::size_t threads) {
  std::vector<MultiGroupSimResult> results(grid.size());
  if (base.engine != sim::EngineKind::Single) {
    // One rounds-engine simulation per ρ̄ point: the shard workers
    // (threads or processes) are the parallel axis, so the points
    // themselves run sequentially — through ONE warm engine, reset (and
    // partition-rebound) between points.
    std::unique_ptr<sim::Engine> warm;
    for (std::size_t i = 0; i < grid.size(); ++i) {
      MultiGroupSimConfig c = base;
      c.utilization = grid[i];
      results[i] = run_multigroup(c, warm);
    }
    return results;
  }
  // Single-kernel points fan out over the pool with one warm engine per
  // worker lane: every point after a lane's first reuses that lane's
  // slab/arena working set instead of rebuilding an Engine per ρ̄ point.
  std::vector<std::unique_ptr<sim::Engine>> warm(
      util::max_parallel_lanes(threads));
  util::parallel_for_lanes(
      grid.size(),
      [&](std::size_t lane, std::size_t i) {
        MultiGroupSimConfig c = base;
        c.utilization = grid[i];
        results[i] = run_multigroup(c, warm[lane]);
      },
      threads);
  return results;
}

std::vector<TreeStructureResult> sweep_tree_structure(
    MultiGroupSimConfig base, const std::vector<double>& grid) {
  std::vector<TreeStructureResult> results(grid.size());
  util::parallel_for(grid.size(), [&](std::size_t i) {
    MultiGroupSimConfig c = base;
    c.utilization = grid[i];
    results[i] = evaluate_trees(c);
  });
  return results;
}

}  // namespace emcast::experiments
