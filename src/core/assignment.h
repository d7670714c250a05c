// Solutions to the SA problem and their validation.

#ifndef SLP_CORE_ASSIGNMENT_H_
#define SLP_CORE_ASSIGNMENT_H_

#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/core/problem.h"
#include "src/geometry/filter.h"

namespace slp::core {

// A complete solution: the subscriber assignment Σ and a filter per broker
// node. filters is indexed by tree node id (the publisher's entry, index 0,
// stays empty).
struct SaSolution {
  std::string algorithm;
  // subscriber index -> leaf node id.
  std::vector<int> assignment;
  // node id -> filter.
  std::vector<geo::Filter> filters;
  // Whether the lbf is within β_max (algorithms report best-effort
  // solutions otherwise, as the paper does for Gr), and whether every
  // subscriber meets its latency bound (algorithms that ignore latency,
  // e.g. Gr¬l, may violate it). SetFeasibilityFlags derives both.
  bool load_feasible = true;
  bool latency_feasible = true;
  // SLP family only: the LP fractional objective (sum of rectangle volumes)
  // from the root run — the lower-bound yardstick of Section IV-D. Negative
  // when not applicable.
  double fractional_lower_bound = -1.0;
};

// Which guarantees to verify (algorithms legitimately differ; e.g. Gr¬l
// never claims latency feasibility).
struct ValidationOptions {
  bool check_latency = true;
  bool check_load = true;
  bool check_filter_complexity = true;
  double lbf_cap = -1;  // <0: use problem config beta_max
};

// Verifies structural invariants of a solution:
//  * every subscriber is assigned to a leaf broker;
//  * coverage: each subscription is contained in a single rectangle of its
//    leaf's filter;
//  * nesting: each broker filter is rectangle-wise covered by its parent's
//    filter (publisher excluded);
//  * (optional) filter complexity <= alpha at every broker;
//  * (optional) latency bounds; (optional) lbf <= cap.
// Returns OK or the first violation found.
Status ValidateSolution(const SaProblem& problem, const SaSolution& solution,
                        const ValidationOptions& options = {});

// Load (subscriber count) per leaf index.
std::vector<int> LeafLoads(const SaProblem& problem,
                           const SaSolution& solution);

// max_i load_i / (κ_i · m): the load-balance factor of the assignment.
double LoadBalanceFactor(const SaProblem& problem,
                         const SaSolution& solution);

// Derives solution->load_feasible (LoadBalanceFactor ≤ β_max, with
// ValidateSolution's tolerance) and solution->latency_feasible (LatencyOk
// for every subscriber at its leaf) from the assignment. Every algorithm
// calls it once its assignment is final.
void SetFeasibilityFlags(const SaProblem& problem, SaSolution* solution);

}  // namespace slp::core

#endif  // SLP_CORE_ASSIGNMENT_H_
