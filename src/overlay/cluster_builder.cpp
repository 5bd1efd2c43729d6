#include "overlay/cluster_builder.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace emcast::overlay {

namespace {

/// RTT medoid: the member minimising the sum of RTTs to the others.  With
/// a budget, only members that can still adopt (size−1) children qualify;
/// if none qualifies, fall back to the member with the most budget left
/// (a deliberate, observable overload — the scheme's failure mode).
std::size_t elect_core(const std::vector<std::size_t>& members,
                       const RttFn& rtt,
                       const std::vector<std::size_t>* budget) {
  const std::size_t need = members.size() - 1;
  std::size_t best = members.front();
  Time best_cost = kTimeInfinity;
  bool found = false;
  for (std::size_t candidate : members) {
    if (budget != nullptr && (*budget)[candidate] < need) continue;
    Time cost = 0;
    for (std::size_t other : members) {
      if (other != candidate) cost += rtt(candidate, other);
    }
    if (cost < best_cost) {
      best_cost = cost;
      best = candidate;
      found = true;
    }
  }
  if (!found && budget != nullptr) {
    best = *std::max_element(members.begin(), members.end(),
                             [&](std::size_t a, std::size_t b) {
                               return (*budget)[a] < (*budget)[b];
                             });
  }
  return best;
}

}  // namespace

std::vector<Cluster> cluster_once(const std::vector<std::size_t>& ids,
                                  const RttFn& rtt, const ClusterConfig& cfg,
                                  util::Rng& rng) {
  if (cfg.min_size < 2 || cfg.max_size < cfg.min_size) {
    throw std::invalid_argument("cluster_once: bad size range");
  }
  // Unassigned members live in work[head, end) as (RTT to the current
  // seed, member).  Per cluster, each remaining member's RTT to the seed is
  // written once and partial_sort compares keys alone.  It answers as a
  // comparator calling rtt(seed, ·) on both sides would at the same
  // positions, so it makes the same moves: the chosen members, their order
  // and the leftover order that picks the next seed are unchanged.  For d
  // members in clusters of mean size s that is O(d^2 / s) RTT calls.
  std::vector<std::pair<Time, std::size_t>> work;
  work.reserve(ids.size());
  for (std::size_t id : ids) work.emplace_back(0.0, id);
  const auto at = [&work](std::size_t i) {
    return work.begin() + static_cast<std::ptrdiff_t>(i);
  };
  std::vector<Cluster> clusters;
  std::size_t head = 0;
  while (head < work.size()) {
    const std::size_t remaining = work.size() - head;
    // Paper rule: if fewer than max_size+1 members remain they form one
    // final cluster; otherwise draw a size from [min_size, max_size].
    std::size_t want;
    if (remaining <= cfg.max_size) {
      want = remaining;
    } else {
      want = static_cast<std::size_t>(rng.uniform_int(
          static_cast<std::int64_t>(cfg.min_size),
          static_cast<std::int64_t>(cfg.max_size)));
      // Never leave a single orphan behind (it could not form a cluster).
      if (remaining - want == 1) ++want;
    }
    // Seed selection; a random seed rotates to the front, the others keep
    // their order.
    if (cfg.random_seeds && remaining > 1) {
      const std::size_t seed_pos =
          head + static_cast<std::size_t>(rng.uniform_int(
                     0, static_cast<std::int64_t>(remaining) - 1));
      std::rotate(at(head), at(seed_pos), at(seed_pos + 1));
    }
    const std::size_t seed = work[head++].second;
    // Key the rest by RTT to the seed and take the closest (want−1).
    for (std::size_t i = head; i < work.size(); ++i) {
      work[i].first = rtt(seed, work[i].second);
    }
    const std::size_t take = std::min(want - 1, work.size() - head);
    std::partial_sort(at(head), at(head + take), work.end(),
                      [](const auto& a, const auto& b) {
                        return a.first < b.first;
                      });
    Cluster c;
    c.members.reserve(take + 1);
    c.members.push_back(seed);
    for (std::size_t i = head; i < head + take; ++i) {
      c.members.push_back(work[i].second);
    }
    head += take;
    c.core = elect_core(c.members, rtt, cfg.budget);
    if (cfg.budget != nullptr) {
      auto& left = (*cfg.budget)[c.core];
      left -= std::min(left, c.members.size() - 1);
    }
    clusters.push_back(std::move(c));
  }
  return clusters;
}

Hierarchy build_hierarchy(const std::vector<std::size_t>& ids,
                          const RttFn& rtt, const ClusterConfig& cfg,
                          util::Rng& rng) {
  if (ids.empty()) throw std::invalid_argument("build_hierarchy: no members");
  Hierarchy h;
  std::vector<std::size_t> layer_ids = ids;
  if (layer_ids.size() == 1) {
    h.top = layer_ids.front();
    return h;
  }
  while (layer_ids.size() > 1) {
    auto clusters = cluster_once(layer_ids, rtt, cfg, rng);
    layer_ids.clear();
    for (const auto& c : clusters) layer_ids.push_back(c.core);
    h.layers.push_back(std::move(clusters));
  }
  h.top = layer_ids.front();
  return h;
}

void hierarchy_to_parents(const Hierarchy& h,
                          std::vector<std::size_t>& parent) {
  // Walk bottom-up: at each layer, every non-core member's parent is the
  // cluster core.  A member that is also a core keeps climbing; its parent
  // is assigned at the layer where it stops being a core.
  for (const auto& layer : h.layers) {
    for (const auto& c : layer) {
      for (std::size_t m : c.members) {
        if (m != c.core) parent[m] = c.core;
      }
    }
  }
  parent[h.top] = MulticastTree::npos;
}

}  // namespace emcast::overlay
