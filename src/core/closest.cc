#include "src/core/closest.h"

#include <limits>

#include "src/common/status.h"
#include "src/core/filter_adjust.h"

namespace slp::core {

namespace {

SaSolution RunClosestImpl(const SaProblem& problem, bool enforce_cap,
                          Rng& rng) {
  const auto& tree = problem.tree();
  const auto& leaves = tree.leaf_brokers();
  const int m = problem.num_subscribers();

  SaSolution solution;
  solution.algorithm = enforce_cap ? "Closest" : "Closest-b";
  solution.assignment.assign(m, -1);
  std::vector<int> loads(problem.num_leaves(), 0);

  auto cap = [&](int idx) {
    return problem.config().beta_max * problem.capacity_fraction(idx) * m;
  };
  for (int j = 0; j < m; ++j) {
    const geo::Point& loc = problem.subscriber(j).location;
    int best = -1;
    double best_dist = std::numeric_limits<double>::infinity();
    int fallback = -1;  // ignores the cap; used if every broker is full
    double fallback_dist = std::numeric_limits<double>::infinity();
    for (int leaf : leaves) {
      const double d = geo::Distance(tree.location(leaf), loc);
      if (d < fallback_dist) {
        fallback_dist = d;
        fallback = leaf;
      }
      if (enforce_cap) {
        const int idx = problem.leaf_index(leaf);
        if (loads[idx] + 1 > cap(idx) + 1e-9) continue;
      }
      if (d < best_dist) {
        best_dist = d;
        best = leaf;
      }
    }
    if (best < 0) best = fallback;  // every broker full; overload the nearest
    solution.assignment[j] = best;
    ++loads[problem.leaf_index(best)];
  }
  // Both variants report overload from the final leaf loads.
  for (int idx = 0; idx < problem.num_leaves(); ++idx) {
    if (loads[idx] > cap(idx) + 1e-9) solution.load_feasible = false;
  }

  solution.filters.assign(tree.num_nodes(), geo::Filter());
  AdjustLeafFilters(problem, &solution, rng);
  BuildInternalFilters(problem, &solution, rng);
  // These baselines never look at the latency constraint; record whether
  // the result happens to satisfy it.
  solution.latency_feasible = true;
  for (int j = 0; j < m; ++j) {
    if (!problem.LatencyOk(j, solution.assignment[j])) {
      solution.latency_feasible = false;
      break;
    }
  }
  return solution;
}

}  // namespace

SaSolution RunClosestNoBalance(const SaProblem& problem, Rng& rng) {
  return RunClosestImpl(problem, /*enforce_cap=*/false, rng);
}

SaSolution RunClosest(const SaProblem& problem, Rng& rng) {
  return RunClosestImpl(problem, /*enforce_cap=*/true, rng);
}

}  // namespace slp::core
