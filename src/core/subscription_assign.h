// SLP1 step 2 (Section IV-B): assign the full subscriber set to targets by
// max-flow, given the preliminary filters. Focuses on load balance while
// only using (filter ∧ latency)-covering edges. The desired lbf β is
// escalated by small steps toward β_max, reusing the current flow after
// each capacity increase, exactly as the paper suggests.

#ifndef SLP_CORE_SUBSCRIPTION_ASSIGN_H_
#define SLP_CORE_SUBSCRIPTION_ASSIGN_H_

#include <cstdint>
#include <vector>

#include "src/common/random.h"
#include "src/common/status.h"
#include "src/core/assignment_flow.h"
#include "src/core/candidates.h"
#include "src/core/problem.h"
#include "src/geometry/filter.h"

namespace slp::core {

struct SubscriptionAssignOptions {
  // Seed the flow with a cost-ordered greedy pre-assignment (cost = volume
  // of the smallest covering rectangle) so max-flow only reroutes where
  // load balance demands it. Off reproduces the paper's plain max-flow.
  bool cohesion_seeding = true;
  // When β_max still leaves subscribers unrouted (their covering targets
  // are all saturated), up to this many enrichment rounds add the stranded
  // subscriptions — as ≤α clustered MEBs — to their nearest
  // latency-feasible target with spare capacity and re-run the flow. The
  // preliminary filters are extended in place; the final filters are
  // rebuilt from the assignment by FilterAdjust anyway.
  int enrichment_rounds = 3;
};

struct SubscriptionAssignResult {
  // Per local row (targets.subscribers order): assigned target id.
  std::vector<int> target_of;
  double achieved_beta = 0;  // β value at which the flow saturated
  bool load_feasible = true;
};

// (*filters)[t] is the (ε-expanded) preliminary filter of target t; it may
// be extended in place by enrichment rounds. A target covers subscriber
// row r iff it is latency-feasible for r and one of its filter rectangles
// contains r's subscription. Returns kInfeasible only if some subscriber
// is covered by no target at all. When even enrichment leaves subscribers
// unrouted at β_max, they are placed best-effort on their least-loaded
// covering target and `load_feasible` is false. The paper stops in this
// case; the fallback keeps benchmark runs comparable.
Result<SubscriptionAssignResult> AssignByMaxFlow(
    const SaProblem& problem, const Targets& targets,
    std::vector<geo::Filter>* filters, Rng& rng,
    const SubscriptionAssignOptions& options = {});

// The covers of one flow stage, as a CSR over local rows: row r's
// covering targets, in candidate order, are
// target[offsets[r] .. offsets[r+1]), and cost[k] is the volume of the
// smallest rectangle of target[k]'s filter that contains the row's
// subscription (the cohesion-seeding key: routing subscribers toward
// their most specific filters keeps topically similar subscriptions
// together, which the final filter adjustment rewards with tight MEBs).
struct CoverTable {
  std::vector<int64_t> offsets;  // rows + 1
  std::vector<int32_t> target;
  std::vector<double> cost;
};

// Target t covers row r iff one of filters[t]'s rectangles of finite
// volume contains r's subscription and t meets r's latency bound (t is in
// B_j). The covers are found from the filters, and a latency is computed
// only for a target whose filter contains the subscription; each row comes
// out in B_j's (latency, id) order. With `first_only` a row stops at its
// first cover, which answers "is the row covered?" and nothing more: the
// one containment scan behind FilterAssign's coverage test as well.
CoverTable ComputeCovers(const SaProblem& problem, const Targets& targets,
                         const std::vector<geo::Filter>& filters,
                         bool first_only = false);

// One flow run of AssignByMaxFlow: with cohesion seeding on, a greedy
// cost-ordered pre-assignment at the problem's β; then max-flow; then,
// while rows stay unrouted, β raised ×1.05 toward β_max (β_max is always
// tried last), each raise resuming from the current flow.
struct FlowRun {
  AssignmentFlow flow;
  double achieved_beta = 0;  // β value at which the flow saturated
};

FlowRun RunFlow(const SaProblem& problem, const Targets& targets,
                CoverTable covers, const SubscriptionAssignOptions& options);

}  // namespace slp::core

#endif  // SLP_CORE_SUBSCRIPTION_ASSIGN_H_
