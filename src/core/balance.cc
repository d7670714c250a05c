#include "src/core/balance.h"

#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/common/invariant.h"
#include "src/common/status.h"
#include "src/core/assignment_flow.h"
#include "src/core/filter_adjust.h"

namespace slp::core {

namespace {

// Attempts a full assignment with per-leaf caps floor(lbf * κ_i * m),
// re-solving `flow` from zero flow. Returns true and fills `assignment`
// (subscriber -> leaf node) on success.
bool TryAssign(const SaProblem& problem, double lbf, AssignmentFlow* flow,
               std::vector<int>* assignment) {
  const int m = problem.num_subscribers();
  flow->Reset();
  for (int i = 0; i < problem.num_leaves(); ++i) {
    const auto cap = static_cast<int64_t>(
        std::floor(lbf * problem.capacity_fraction(i) * m + 1e-9));
    flow->SetCap(i, cap);
  }
  if (flow->Solve() < m) return false;
  assignment->assign(m, -1);
  for (int j = 0; j < m; ++j) {
    SLP_DCHECK(flow->target_of(j) >= 0);
    (*assignment)[j] = problem.leaf_node(flow->target_of(j));
  }
  return true;
}

}  // namespace

SaSolution RunBalance(const SaProblem& problem, Rng& rng) {
  const int m = problem.num_subscribers();
  const auto& tree = problem.tree();

  // Latency-feasible candidate leaves ("covers" without filters), by leaf
  // index in leaf order. One kernel serves every bisection step.
  std::vector<int64_t> offsets(m + 1, 0);
  std::vector<int32_t> leaves;
  for (int j = 0; j < m; ++j) {
    for (int leaf : tree.leaf_brokers()) {
      if (problem.LatencyOk(j, leaf)) {
        leaves.push_back(problem.leaf_index(leaf));
      }
    }
    offsets[j + 1] = static_cast<int64_t>(leaves.size());
  }
  AssignmentFlow flow(problem.num_leaves(), std::move(offsets),
                      std::move(leaves));

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
  if (!TryAssign(problem, hi, &flow, &best_assignment)) {
    // Even fully unbalanced routing fails only if some subscriber has no
    // latency-feasible broker, which cannot happen (Δ-achieving leaf).
    SLP_DCHECK(false);
    // Defensive Release fallback: best-effort assignment so callers still
    // get a structurally complete (if infeasible) solution.
    best_assignment.assign(m, -1);
    for (int j = 0; j < m; ++j) {
      best_assignment[j] = flow.covers(j).empty()
                               ? tree.leaf_brokers()[0]
                               : problem.leaf_node(flow.covers(j)[0]);
    }
  }
  for (int iter = 0; iter < 40 && hi - lo > 1e-4 * hi; ++iter) {
    const double mid = (lo + hi) / 2;
    std::vector<int> attempt;
    if (TryAssign(problem, mid, &flow, &attempt)) {
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
