#include "src/core/balance.h"

#include <cmath>
#include <vector>

#include "src/common/invariant.h"
#include "src/common/status.h"
#include "src/core/filter_adjust.h"
#include "src/flow/max_flow.h"

namespace slp::core {

namespace {

// Attempts a full assignment with per-leaf caps floor(lbf * κ_i * m).
// Returns true and fills `assignment` (subscriber -> leaf node) on success.
bool TryAssign(const SaProblem& problem,
               const std::vector<std::vector<int>>& candidates, double lbf,
               std::vector<int>* assignment) {
  const int m = problem.num_subscribers();
  const int l = problem.num_leaves();
  flow::MaxFlow mf(2 + l + m);
  const int s = 0, t = 1;
  std::vector<int> broker_edge(l);
  for (int i = 0; i < l; ++i) {
    const auto cap = static_cast<int64_t>(
        std::floor(lbf * problem.capacity_fraction(i) * m + 1e-9));
    broker_edge[i] = mf.AddEdge(s, 2 + i, cap);
  }
  std::vector<std::vector<std::pair<int, int>>> sub_edges(m);
  for (int j = 0; j < m; ++j) {
    mf.AddEdge(2 + l + j, t, 1);
    for (int leaf : candidates[j]) {
      const int i = problem.leaf_index(leaf);
      sub_edges[j].push_back({mf.AddEdge(2 + i, 2 + l + j, 1), leaf});
    }
  }
  if (mf.Solve(s, t) < m) return false;
  assignment->assign(m, -1);
  for (int j = 0; j < m; ++j) {
    for (const auto& [edge, leaf] : sub_edges[j]) {
      if (mf.flow(edge) > 0) {
        (*assignment)[j] = leaf;
        break;
      }
    }
    SLP_DCHECK((*assignment)[j] >= 0);
  }
  return true;
}

}  // namespace

SaSolution RunBalance(const SaProblem& problem, Rng& rng) {
  const int m = problem.num_subscribers();
  const auto& tree = problem.tree();

  // Latency-feasible candidate leaves ("covers" without filters).
  std::vector<std::vector<int>> candidates(m);
  for (int j = 0; j < m; ++j) {
    for (int leaf : tree.leaf_brokers()) {
      if (problem.LatencyOk(j, leaf)) candidates[j].push_back(leaf);
    }
  }

  SaSolution solution;
  solution.algorithm = "Balance";
  // Binary search the smallest feasible lbf. Upper bound: everything on one
  // broker.
  double lo = 1.0 / m;  // surely infeasible
  double min_kappa = 1.0;
  for (int i = 0; i < problem.num_leaves(); ++i) {
    min_kappa = std::min(min_kappa, problem.capacity_fraction(i));
  }
  double hi = min_kappa > 0 ? 1.0 / min_kappa + 1 : m;
  std::vector<int> best_assignment;
  if (!TryAssign(problem, candidates, hi, &best_assignment)) {
    // Even fully unbalanced routing fails only if some subscriber has no
    // latency-feasible broker, which cannot happen (Δ-achieving leaf).
    SLP_DCHECK(false);
    // Defensive Release fallback: best-effort assignment so callers still
    // get a structurally complete (if infeasible) solution.
    best_assignment.assign(m, -1);
    for (int j = 0; j < m; ++j) {
      best_assignment[j] =
          candidates[j].empty() ? tree.leaf_brokers()[0] : candidates[j][0];
    }
  }
  for (int iter = 0; iter < 40 && hi - lo > 1e-4 * hi; ++iter) {
    const double mid = (lo + hi) / 2;
    std::vector<int> attempt;
    if (TryAssign(problem, candidates, mid, &attempt)) {
      hi = mid;
      best_assignment = std::move(attempt);
    } else {
      lo = mid;
    }
  }
  solution.assignment = std::move(best_assignment);

  solution.filters.assign(tree.num_nodes(), geo::Filter());
  AdjustLeafFilters(problem, &solution, rng);
  BuildInternalFilters(problem, &solution, rng);
  // The bisection's lbf can end above β_max: the flags say so.
  SetFeasibilityFlags(problem, &solution);
  return solution;
}

}  // namespace slp::core
