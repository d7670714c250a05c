#include "src/core/assignment.h"

#include <algorithm>
#include <sstream>

namespace slp::core {

Status ValidateSolution(const SaProblem& problem, const SaSolution& solution,
                        const ValidationOptions& options) {
  const auto& tree = problem.tree();
  const int m = problem.num_subscribers();
  if (static_cast<int>(solution.assignment.size()) != m) {
    return Status::InvalidArgument("assignment size mismatch");
  }
  if (static_cast<int>(solution.filters.size()) != tree.num_nodes()) {
    return Status::InvalidArgument("filters size mismatch");
  }

  // Assignment to leaves + coverage + latency.
  for (int j = 0; j < m; ++j) {
    const int leaf = solution.assignment[j];
    if (leaf < 0 || leaf >= tree.num_nodes() || !tree.is_leaf(leaf)) {
      std::ostringstream os;
      os << "subscriber " << j << " not assigned to a leaf (node " << leaf
         << ")";
      return Status::InvalidArgument(os.str());
    }
    if (!solution.filters[leaf].CoversRect(problem.subscriber(j).subscription)) {
      std::ostringstream os;
      os << "subscriber " << j << " not covered by filter of leaf " << leaf;
      return Status::Internal(os.str());
    }
    if (options.check_latency && !problem.LatencyOk(j, leaf)) {
      std::ostringstream os;
      os << "subscriber " << j << " violates latency bound at leaf " << leaf;
      return Status::Infeasible(os.str());
    }
  }

  // Nesting + complexity over broker nodes.
  for (int v = 1; v < tree.num_nodes(); ++v) {
    const int p = tree.parent(v);
    if (p != net::BrokerTree::kPublisher) {
      if (!solution.filters[p].CoversFilter(solution.filters[v])) {
        std::ostringstream os;
        os << "nesting violated: filter of node " << v
           << " not covered by parent " << p;
        return Status::Internal(os.str());
      }
    }
    if (options.check_filter_complexity &&
        solution.filters[v].size() > problem.config().alpha) {
      std::ostringstream os;
      os << "filter complexity " << solution.filters[v].size() << " > alpha "
         << problem.config().alpha << " at node " << v;
      return Status::Internal(os.str());
    }
  }

  if (options.check_load) {
    const double cap =
        options.lbf_cap > 0 ? options.lbf_cap : problem.config().beta_max;
    const double lbf = LoadBalanceFactor(problem, solution);
    if (lbf > cap + 1e-6) {
      std::ostringstream os;
      os << "load balance factor " << lbf << " exceeds cap " << cap;
      return Status::Infeasible(os.str());
    }
  }
  return Status::OK();
}

std::vector<int> LeafLoads(const SaProblem& problem,
                           const SaSolution& solution) {
  std::vector<int> loads(problem.num_leaves(), 0);
  for (int leaf : solution.assignment) {
    const int idx = problem.leaf_index(leaf);
    if (idx >= 0) ++loads[idx];
  }
  return loads;
}

double LoadBalanceFactor(const SaProblem& problem,
                         const SaSolution& solution) {
  const std::vector<int> loads = LeafLoads(problem, solution);
  const double m = problem.num_subscribers();
  double lbf = 0;
  for (size_t i = 0; i < loads.size(); ++i) {
    const double kappa = problem.capacity_fraction(static_cast<int>(i));
    if (kappa <= 0) continue;
    lbf = std::max(lbf, loads[i] / (kappa * m));
  }
  return lbf;
}

}  // namespace slp::core
