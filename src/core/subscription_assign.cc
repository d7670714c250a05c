#include "src/core/subscription_assign.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/common/invariant.h"
#include "src/common/status.h"
#include "src/core/filter_adjust.h"
#include "src/flow/max_flow.h"

namespace slp::core {

namespace {

// Multiplicative β escalation per retry (β_max is always tried last).
constexpr double kEscalation = 1.05;

// A (row, target) covering edge with its cohesion cost: the volume of the
// smallest filter rectangle at the target containing the row's
// subscription. Routing subscribers toward their most specific filters
// keeps topically similar subscriptions together, which the final filter
// adjustment rewards with tight MEBs.
struct CoverEdge {
  int target;
  double cost;
};

// One max-flow attempt with β escalation. Fills `target_of` (-1 for rows
// the flow could not route) and returns the achieved β.
struct FlowAttempt {
  std::vector<int> target_of;
  double achieved_beta = 0;
  int64_t flow = 0;
};

FlowAttempt RunFlow(const SaProblem& problem, const Targets& targets,
                    const std::vector<std::vector<CoverEdge>>& covers,
                    const SubscriptionAssignOptions& options) {
  const int rows = static_cast<int>(covers.size());
  const int nt = targets.count;
  flow::MaxFlow mf(2 + nt + rows);
  const int s = 0, t_node = 1;
  const auto cap_at = [&](int t, double beta) {
    return static_cast<int64_t>(std::floor(targets.AbsCap(t, beta) + 1e-9));
  };
  double beta = problem.config().beta;
  std::vector<int> target_edge(nt);
  for (int t = 0; t < nt; ++t) {
    target_edge[t] = mf.AddEdge(s, 2 + t, cap_at(t, beta));
  }
  // Every row is one unit of supply, routed whole to one target.
  const int64_t supply = rows;
  std::vector<int> sink_edge(rows);
  std::vector<std::vector<std::pair<int, int>>> row_edges(rows);
  for (int r = 0; r < rows; ++r) {
    sink_edge[r] = mf.AddEdge(2 + nt + r, t_node, 1);
    for (const CoverEdge& e : covers[r]) {
      row_edges[r].push_back({mf.AddEdge(2 + e.target, 2 + nt + r, 1),
                              e.target});
    }
  }

  // Cohesion seeding: a cost-ordered greedy pre-assignment pushed as
  // initial flow; Solve() then only reroutes where load balance demands.
  if (options.cohesion_seeding) {
    struct Item {
      double cost;
      int row;
      int cover_idx;
    };
    std::vector<Item> items;
    for (int r = 0; r < rows; ++r) {
      for (size_t c = 0; c < covers[r].size(); ++c) {
        items.push_back({covers[r][c].cost, r, static_cast<int>(c)});
      }
    }
    std::sort(items.begin(), items.end(), [](const Item& a, const Item& b) {
      return a.cost < b.cost;
    });
    std::vector<int64_t> used(nt, 0);
    std::vector<bool> seeded(rows, false);
    for (const Item& item : items) {
      if (seeded[item.row]) continue;
      const int t = covers[item.row][item.cover_idx].target;
      if (used[t] + 1 > cap_at(t, beta)) continue;
      seeded[item.row] = true;
      ++used[t];
      mf.PushPath({target_edge[t], row_edges[item.row][item.cover_idx].first,
                   sink_edge[item.row]},
                  1);
    }
  }

  int64_t flow = mf.Solve(s, t_node);
  while (flow < supply && beta < problem.config().beta_max - 1e-12) {
    beta = std::min(beta * kEscalation, problem.config().beta_max);
    for (int t = 0; t < nt; ++t) {
      mf.SetCapacity(target_edge[t], cap_at(t, beta));
    }
    flow = mf.Solve(s, t_node);  // resumes from the current flow
  }
  FlowAttempt out;
  out.achieved_beta = beta;
  out.flow = flow;
  out.target_of.assign(rows, -1);
  for (int r = 0; r < rows; ++r) {
    // A routed row's unit flows over exactly one of its edges.
    for (const auto& [edge, t] : row_edges[r]) {
      if (mf.flow(edge) > 0) {
        out.target_of[r] = t;
        break;
      }
    }
  }
  return out;
}

std::vector<std::vector<CoverEdge>> ComputeCovers(
    const SaProblem& problem, const Targets& targets,
    const std::vector<geo::Filter>& filters) {
  const int rows = static_cast<int>(targets.subscribers.size());
  std::vector<std::vector<CoverEdge>> covers(rows);
  for (int r = 0; r < rows; ++r) {
    const auto& sub = problem.subscriber(targets.subscribers[r]).subscription;
    for (int t : targets.candidates(r)) {
      double best = std::numeric_limits<double>::infinity();
      for (const auto& rect : filters[t].rects()) {
        if (rect.Contains(sub)) best = std::min(best, rect.Volume());
      }
      if (std::isfinite(best)) covers[r].push_back({t, best});
    }
  }
  return covers;
}

}  // namespace

Result<SubscriptionAssignResult> AssignByMaxFlow(
    const SaProblem& problem, const Targets& targets,
    std::vector<geo::Filter>* filters, Rng& rng,
    const SubscriptionAssignOptions& options) {
  SLP_DCHECK(filters != nullptr);
  SLP_DCHECK(static_cast<int>(filters->size()) == targets.count);
  const int rows = static_cast<int>(targets.subscribers.size());
  const int nt = targets.count;

  std::vector<std::vector<CoverEdge>> covers =
      ComputeCovers(problem, targets, *filters);
  for (int r = 0; r < rows; ++r) {
    if (covers[r].empty()) {
      return Status::Infeasible("subscriber covered by no target filter");
    }
  }

  FlowAttempt attempt = RunFlow(problem, targets, covers, options);

  // Enrichment: unroutable rows see only saturated targets; open up their
  // nearest feasible target that still has headroom at β_max.
  for (int round = 0;
       attempt.flow < rows && round < options.enrichment_rounds; ++round) {
    std::vector<int> load(nt, 0);
    for (int r = 0; r < rows; ++r) {
      if (attempt.target_of[r] >= 0) ++load[attempt.target_of[r]];
    }
    std::vector<std::vector<geo::Rectangle>> pending(nt);
    bool any = false;
    for (int r = 0; r < rows; ++r) {
      if (attempt.target_of[r] >= 0) continue;
      // Nearest latency-feasible target with spare β_max capacity that does
      // not already cover this row.
      for (int t : targets.candidates(r)) {
        const double cap = targets.AbsCap(t, problem.config().beta_max);
        const int pending_count = static_cast<int>(pending[t].size());
        if (load[t] + pending_count + 1 > cap + 1e-9) continue;
        const bool already_covering =
            std::any_of(covers[r].begin(), covers[r].end(),
                        [t](const CoverEdge& e) { return e.target == t; });
        if (already_covering) {
          continue;  // the flow just could not use it
        }
        pending[t].push_back(
            problem.subscriber(targets.subscribers[r]).subscription);
        any = true;
        break;
      }
    }
    if (!any) break;
    for (int t = 0; t < nt; ++t) {
      if (pending[t].empty()) continue;
      const geo::Filter extra =
          CoverWithAlphaMebs(pending[t], problem.config().alpha, rng);
      for (const auto& rect : extra.rects()) (*filters)[t].Add(rect);
    }
    covers = ComputeCovers(problem, targets, *filters);
    attempt = RunFlow(problem, targets, covers, options);
  }

  SubscriptionAssignResult result;
  result.achieved_beta = attempt.achieved_beta;
  result.target_of = attempt.target_of;
  result.load_feasible = attempt.flow >= rows;
  if (!result.load_feasible) {
    // Route leftovers best-effort to their least-loaded covering target.
    std::vector<int> load(nt, 0);
    for (int r = 0; r < rows; ++r) {
      if (result.target_of[r] >= 0) ++load[result.target_of[r]];
    }
    for (int r = 0; r < rows; ++r) {
      if (result.target_of[r] >= 0) continue;
      int best = covers[r][0].target;
      double best_ratio = std::numeric_limits<double>::infinity();
      for (const CoverEdge& e : covers[r]) {
        const double denom = std::max(
            1e-12, targets.kappa[e.target] * targets.total_subscribers);
        const double ratio = load[e.target] / denom;
        if (ratio < best_ratio) {
          best_ratio = ratio;
          best = e.target;
        }
      }
      result.target_of[r] = best;
      ++load[best];
    }
  }
  return result;
}

}  // namespace slp::core
