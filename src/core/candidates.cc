#include "src/core/candidates.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "src/common/invariant.h"
#include "src/common/parallel.h"

namespace slp::core {

namespace {

// B_j's first entry without building B_j: the least latency among the
// feasible targets, ties to the lower id (targets are visited in id order),
// -1 when none is feasible.
int32_t Nearest(const SaProblem& problem, const Targets& targets, int r) {
  const int j = targets.subscribers[r];
  const geo::Point& at = problem.subscriber(j).location;
  const double limit = LatencyLimit(problem, j);
  int32_t pick = -1;
  double best = 0;
  for (int t = 0; t < targets.count; ++t) {
    const double latency = targets.Latency(t, at);
    if (latency <= limit && (pick < 0 || latency < best)) {
      pick = t;
      best = latency;
    }
  }
  return pick;
}

// The one fill behind both builders. Target t is tree node nodes[t]: its
// kappa is the node's subtree κ sum and its latency to a subscriber the
// optimistic minimum over the node's subtree leaves. A leaf's subtree is
// the leaf itself, so over the leaf brokers these are min(∞, latency) and
// 0.0 + κ_i: the leaf targets, bit for bit.
Targets BuildTargets(const SaProblem& problem,
                     const std::vector<int>& sub_indices,
                     const std::vector<int>& nodes, int num_shards) {
  const auto& tree = problem.tree();
  const bool last_hop = problem.config().latency_mode == LatencyMode::kLastHop;
  Targets t;
  t.count = static_cast<int>(nodes.size());
  t.total_subscribers = problem.num_subscribers();
  t.subscribers = sub_indices;
  t.kappa.resize(t.count);
  t.dim = static_cast<int>(tree.location(net::BrokerTree::kPublisher).size());
  t.slot_offsets.assign(1, 0);
  for (int c = 0; c < t.count; ++c) {
    t.kappa[c] = problem.subtree_capacity_fraction(nodes[c]);
    for (int leaf : tree.subtree_leaves(nodes[c])) {
      t.base.push_back(last_hop ? 0.0 : tree.PathLatencyFromRoot(leaf));
      const geo::Point& p = tree.location(leaf);
      t.loc.insert(t.loc.end(), p.begin(), p.end());
    }
    t.slot_offsets.push_back(static_cast<int>(t.base.size()));
  }

  const int rows = static_cast<int>(sub_indices.size());
  t.nearest.resize(rows);
  const int shards = std::clamp(num_shards, 1, std::max(rows, 1));
  const auto fill = [&](int s) {
    const int begin = static_cast<int>(static_cast<int64_t>(rows) * s / shards);
    const int end =
        static_cast<int>(static_cast<int64_t>(rows) * (s + 1) / shards);
    for (int r = begin; r < end; ++r) t.nearest[r] = Nearest(problem, t, r);
  };
  if (shards == 1) {
    fill(0);
  } else {
    ThreadPool::Global().ParallelFor(shards, fill);
  }
  return t;
}

}  // namespace

std::vector<int32_t> Candidates(const SaProblem& problem,
                                const Targets& targets, int r) {
  const int j = targets.subscribers[r];
  const geo::Point& at = problem.subscriber(j).location;
  const double limit = LatencyLimit(problem, j);
  std::vector<std::pair<double, int32_t>> row;
  for (int t = 0; t < targets.count; ++t) {
    const double latency = targets.Latency(t, at);
    if (latency <= limit) row.emplace_back(latency, t);
  }
  std::sort(row.begin(), row.end());
  std::vector<int32_t> ids(row.size());
  for (size_t k = 0; k < row.size(); ++k) ids[k] = row[k].second;
  return ids;
}

std::vector<int> AllSubscribers(const SaProblem& problem) {
  std::vector<int> all(problem.num_subscribers());
  std::iota(all.begin(), all.end(), 0);
  return all;
}

Targets BuildLeafTargets(const SaProblem& problem,
                         const std::vector<int>& sub_indices, int num_shards) {
  Targets t = BuildTargets(problem, sub_indices,
                           problem.tree().leaf_brokers(), num_shards);
  // Every row has a nearest target: the Δ-achieving leaf always qualifies.
  SLP_DCHECK(std::find(t.nearest.begin(), t.nearest.end(), -1) ==
             t.nearest.end());
  return t;
}

Targets BuildChildTargets(const SaProblem& problem,
                          const std::vector<int>& sub_indices, int node,
                          int num_shards) {
  const auto& children = problem.tree().children(node);
  SLP_DCHECK(!children.empty());
  return BuildTargets(problem, sub_indices, children, num_shards);
}

}  // namespace slp::core
