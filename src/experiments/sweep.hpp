#pragma once
// Parallel ρ̄ sweeps — each sweep point is an independent simulation with
// its own RNG stream, fanned out over a thread pool.  These drive every
// figure/table bench.
//
// Engine selection composes with sweeping: a MultiGroupSimConfig with a
// rounds engine (Sharded or Process) runs one simulation per grid point,
// with the parallelism *inside* each point (the shard workers, threads or
// forked processes) instead of across points — the two axes would
// otherwise oversubscribe each other.

#include <optional>
#include <vector>

#include "experiments/multigroup_sim.hpp"
#include "experiments/single_host.hpp"
#include "util/math.hpp"

namespace emcast::experiments {

/// The paper's grid: ρ̄ = 0.35, 0.40, …, 0.95.
std::vector<double> paper_rho_grid();

/// Sweep run_single_host over `grid`, varying only the utilisation.
std::vector<SingleHostResult> sweep_single_host(SingleHostConfig base,
                                                const std::vector<double>& grid,
                                                std::size_t threads = 0);

/// Sweep run_multigroup over `grid`.  With a rounds engine (Sharded or
/// Process) the points run sequentially, each fanned out over its own
/// shard workers.  Engines are warm-reused (Engine::reset between points
/// — one warm engine per worker lane on the Single axis, one for the
/// whole sweep on a rounds engine), so only a lane's first point pays
/// engine construction; every later point runs on warmed arenas.
std::vector<MultiGroupSimResult> sweep_multigroup(
    MultiGroupSimConfig base, const std::vector<double>& grid,
    std::size_t threads = 0);

/// Sweep evaluate_trees over `grid` (structure only, fast).
std::vector<TreeStructureResult> sweep_tree_structure(
    MultiGroupSimConfig base, const std::vector<double>& grid);

/// Locate the empirical crossover ρ̄ between two WDB series on a grid
/// (linear interpolation; nullopt when the curves do not cross).  Works
/// for any sweep-result type exposing `worst_case_delay` — single-host
/// and multigroup series alike.
template <typename Result>
std::optional<double> wdb_crossover(const std::vector<double>& grid,
                                    const std::vector<Result>& a,
                                    const std::vector<Result>& b) {
  std::vector<double> ya, yb;
  ya.reserve(a.size());
  yb.reserve(b.size());
  for (const auto& r : a) ya.push_back(r.worst_case_delay);
  for (const auto& r : b) yb.push_back(r.worst_case_delay);
  return util::crossover(grid, ya, yb);
}

}  // namespace emcast::experiments
