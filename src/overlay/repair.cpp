#include "overlay/repair.hpp"

#include <algorithm>
#include <stdexcept>

namespace emcast::overlay {

ChurnTree::ChurnTree(const MulticastTree& tree)
    : parent_(tree.size()),
      children_(tree.size()),
      alive_(tree.size(), true),
      root_(tree.root()),
      alive_count_(tree.size()) {
  for (std::size_t i = 0; i < tree.size(); ++i) {
    parent_[i] = tree.parent(i);
    children_[i].assign(tree.children(i).begin(), tree.children(i).end());
  }
}

void ChurnTree::reset(const MulticastTree& tree) {
  const std::size_t n = tree.size();
  parent_.resize(n);
  children_.resize(n);
  alive_.assign(n, true);
  root_ = tree.root();
  alive_count_ = n;
  for (std::size_t i = 0; i < n; ++i) {
    parent_[i] = tree.parent(i);
    // assign() re-fills within the capacity a previous run's churn grew.
    children_[i].assign(tree.children(i).begin(), tree.children(i).end());
  }
}

void ChurnTree::detach_from_parent(std::size_t i) {
  const std::size_t p = parent_[i];
  if (p == MulticastTree::npos) return;
  auto& siblings = children_[p];
  siblings.erase(std::remove(siblings.begin(), siblings.end(), i),
                 siblings.end());
}

std::size_t ChurnTree::leave(std::size_t i, const RttFn& rtt) {
  if (i >= parent_.size() || !alive_[i]) {
    throw std::invalid_argument("ChurnTree::leave: not an alive member");
  }
  alive_[i] = false;
  --alive_count_;

  scratch_orphans_.assign(children_[i].begin(), children_[i].end());
  children_[i].clear();

  if (alive_count_ == 0) {
    // Last member out: the tree is legally empty until the next join.
    parent_[i] = MulticastTree::npos;
    root_ = MulticastTree::npos;
    return 0;
  }

  std::size_t new_parent;
  std::size_t reparented = 0;
  if (i == root_) {
    if (scratch_orphans_.empty()) {
      // A valid tree cannot reach here (every surviving member descends
      // from the root, so a departing root with survivors has children);
      // keep the operation total anyway: promote the lowest-index
      // survivor so a churn schedule never aborts mid-run.
      parent_[i] = MulticastTree::npos;
      for (std::size_t cand = 0; cand < parent_.size(); ++cand) {
        if (alive_[cand]) {
          root_ = cand;
          parent_[cand] = MulticastTree::npos;
          break;
        }
      }
      return 0;
    }
    // Promote the orphan closest (by RTT) to the departed root.
    auto best = std::min_element(
        scratch_orphans_.begin(), scratch_orphans_.end(),
        [&](std::size_t a, std::size_t b) { return rtt(i, a) < rtt(i, b); });
    root_ = *best;
    parent_[root_] = MulticastTree::npos;
    new_parent = root_;
    scratch_orphans_.erase(best);
  } else {
    detach_from_parent(i);
    new_parent = parent_[i];
  }
  parent_[i] = MulticastTree::npos;

  for (std::size_t orphan : scratch_orphans_) {
    parent_[orphan] = new_parent;
    children_[new_parent].push_back(orphan);
    ++reparented;
  }
  return reparented;
}

void ChurnTree::attach(std::size_t i, std::size_t parent) {
  alive_[i] = true;
  ++alive_count_;
  parent_[i] = parent;
  if (parent == MulticastTree::npos) {
    // First member back into an emptied tree restarts it as root.
    root_ = i;
  } else {
    children_[parent].push_back(i);
  }
}

void ChurnTree::join(std::size_t i, const RttFn& rtt,
                     std::size_t max_fanout) {
  if (i >= parent_.size() || alive_[i]) {
    throw std::invalid_argument("ChurnTree::join: not a departed member");
  }
  if (alive_count_ == 0) {
    attach(i, MulticastTree::npos);
    return;
  }
  std::size_t best = MulticastTree::npos;
  Time best_rtt = kTimeInfinity;
  for (std::size_t cand = 0; cand < parent_.size(); ++cand) {
    if (!alive_[cand]) continue;
    if (children_[cand].size() >= max_fanout) continue;
    const Time r = rtt(i, cand);
    if (r < best_rtt) {
      best_rtt = r;
      best = cand;
    }
  }
  if (best == MulticastTree::npos) {
    // Every host is full: attach to the closest member regardless (a real
    // system would trigger a cluster split here).
    for (std::size_t cand = 0; cand < parent_.size(); ++cand) {
      if (!alive_[cand]) continue;
      const Time r = rtt(i, cand);
      if (r < best_rtt) {
        best_rtt = r;
        best = cand;
      }
    }
  }
  attach(i, best);
}

std::size_t ChurnTree::nearest(const RejoinIndex& index,
                               std::span<const Time> router_delay,
                               std::size_t max_fanout) const {
  const auto eligible = [&](std::size_t m) {
    return alive_[m] && children_[m].size() < max_fanout;
  };
  std::size_t best = MulticastTree::npos;
  Time best_delay = kTimeInfinity;
  for (std::size_t k = 0; k < index.buckets(); ++k) {
    const Time x = router_delay[k];
    const std::span<const RejoinIndex::Entry> bucket = index.members(k);
    std::size_t j = 0;
    while (j < bucket.size() && !eligible(bucket[j].member)) ++j;
    if (j == bucket.size()) continue;
    const Time d = x + bucket[j].access;
    if (!(d <= best_delay)) continue;
    std::size_t pick = bucket[j].member;
    for (++j; j < bucket.size() && x + bucket[j].access == d; ++j) {
      if (bucket[j].member < pick && eligible(bucket[j].member)) {
        pick = bucket[j].member;
      }
    }
    // The reference scan takes a strictly smaller delay, so an infinite
    // delay is never chosen and equal delays keep the lowest index.
    if (d < best_delay ||
        (best != MulticastTree::npos && d == best_delay && pick < best)) {
      best = pick;
      best_delay = d;
    }
  }
  return best;
}

void ChurnTree::join(std::size_t i, const RejoinIndex& index,
                     std::span<const Time> router_delay,
                     std::size_t max_fanout) {
  if (i >= parent_.size() || alive_[i]) {
    throw std::invalid_argument("ChurnTree::join: not a departed member");
  }
  if (alive_count_ == 0) {
    attach(i, MulticastTree::npos);
    return;
  }
  std::size_t best = nearest(index, router_delay, max_fanout);
  if (best == MulticastTree::npos) {
    // Every member is full: the closest alive member regardless.
    best = nearest(index, router_delay, static_cast<std::size_t>(-1));
  }
  attach(i, best);
}

int ChurnTree::depth(std::size_t i) const {
  int d = 0;
  for (std::size_t v = i; v != root_; v = parent_[v]) {
    if (v == MulticastTree::npos || !alive_[v]) return -1;
    ++d;
    if (d > static_cast<int>(parent_.size())) return -1;  // cycle guard
  }
  return d;
}

int ChurnTree::height_hops() const {
  int h = 0;
  for (std::size_t i = 0; i < parent_.size(); ++i) {
    if (alive_[i]) h = std::max(h, depth(i));
  }
  return h;
}

bool ChurnTree::valid() const {
  if (alive_count_ == 0) return root_ == MulticastTree::npos;
  std::size_t reachable = 0;
  for (std::size_t i = 0; i < parent_.size(); ++i) {
    if (!alive_[i]) continue;
    const int d = depth(i);
    if (d < 0) return false;
    ++reachable;
  }
  return reachable == alive_count_;
}

}  // namespace emcast::overlay
