// Yardstick methodology: the paper's central argument is that heuristics
// for subscriber assignment should be judged against SLP and its LP
// fractional lower bound, not against simpler algorithms that drop
// constraints (whose numbers are "too good to be true").
//
// This example evaluates a user-supplied heuristic — here, a random
// latency-feasible assignment with load caps, standing in for "your
// algorithm" — three ways:
//   1. against Gr¬l (a constraint-dropping baseline): misleading;
//   2. against SLP's solution: a realistic achievable target;
//   3. against SLP's fractional bound: a certificate of optimality gap.
// The tree is one-level, so SLP here is the paper's SLP1.

#include <cstdio>

#include "src/core/assignment.h"
#include "src/core/filter_adjust.h"
#include "src/core/greedy.h"
#include "src/core/metrics.h"
#include "src/core/slp.h"
#include "src/network/tree_builder.h"
#include "src/workload/googlegroups.h"

namespace {

using namespace slp;

// "Your heuristic": assign each subscriber to a random latency-feasible
// leaf with spare capacity, then build filters from the assignment.
core::SaSolution RandomFeasibleAssignment(const core::SaProblem& problem,
                                          Rng& rng) {
  core::SaSolution s;
  s.algorithm = "RandomFeasible";
  const auto& tree = problem.tree();
  s.assignment.assign(problem.num_subscribers(), -1);
  std::vector<int> loads(problem.num_leaves(), 0);
  const double cap_per_leaf = problem.config().beta_max /
                              problem.num_leaves() *
                              problem.num_subscribers();
  for (int j = 0; j < problem.num_subscribers(); ++j) {
    std::vector<int> feasible;
    for (int leaf : tree.leaf_brokers()) {
      if (problem.LatencyOk(j, leaf) &&
          loads[problem.leaf_index(leaf)] + 1 <= cap_per_leaf) {
        feasible.push_back(leaf);
      }
    }
    if (feasible.empty()) {
      for (int leaf : tree.leaf_brokers()) {
        if (problem.LatencyOk(j, leaf)) feasible.push_back(leaf);
      }
    }
    const int pick = feasible[rng.UniformInt(0, feasible.size() - 1)];
    s.assignment[j] = pick;
    ++loads[problem.leaf_index(pick)];
  }
  s.filters.assign(tree.num_nodes(), geo::Filter());
  core::AdjustLeafFilters(problem, &s, rng);
  core::BuildInternalFilters(problem, &s, rng);
  return s;
}

}  // namespace

int main() {
  wl::Workload w = wl::GenerateGoogleGroupsVariant(
      wl::Level::kHigh, wl::Level::kLow, /*num_subscribers=*/2000,
      /*num_brokers=*/12, /*seed=*/9);
  net::BrokerTree tree = net::BuildOneLevelTree(w.publisher, w.broker_locations);
  core::SaConfig config;
  core::SaProblem problem(std::move(tree), std::move(w.subscribers), config);

  Rng rng(9);
  const core::SaSolution mine = RandomFeasibleAssignment(problem, rng);
  Rng rng2(9);
  const core::SaSolution gr_nl = core::RunGrNoLatency(problem, rng2);
  Rng rng3(9);
  auto slp = core::RunSlp(problem, core::SlpOptions{}, rng3);
  if (!slp.ok()) {
    std::printf("SLP failed: %s\n", slp.status().ToString().c_str());
    return 1;
  }

  const double bw_mine = core::ComputeMetrics(problem, mine).total_bandwidth;
  const double bw_nl = core::ComputeMetrics(problem, gr_nl).total_bandwidth;
  const double bw_slp =
      core::ComputeMetrics(problem, slp.value()).total_bandwidth;
  const double frac = slp.value().fractional_lower_bound;

  std::printf("evaluating heuristic 'RandomFeasible' (bandwidth %.4f)\n\n",
              bw_mine);
  std::printf("vs Gr-l (drops latency):      %.4f  -> looks %.1fx worse "
              "(misleading: Gr-l's delays are unusable)\n",
              bw_nl, bw_mine / bw_nl);
  std::printf("vs SLP (all constraints):     %.4f  -> %.1fx worse than an "
              "achievable solution\n",
              bw_slp, bw_mine / bw_slp);
  std::printf("vs LP fractional lower bound: %.4f  -> at most %.1fx from "
              "optimal (certificate)\n",
              frac, bw_mine / frac);
  std::printf(
      "\nTakeaway: the LP bound turns 'worse than some heuristic' into a\n"
      "quantified optimality gap, and SLP shows what is actually\n"
      "achievable under ALL constraints.\n");
  return 0;
}
