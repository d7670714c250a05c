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

// Integral multiplicity of row r (1 for an unweighted problem): the number
// of member-subscribers an aggregate row stands for, which is the row's
// flow supply and its load contribution.
int64_t RowUnits(const Targets& targets, int r) {
  return static_cast<int64_t>(std::llround(targets.row_weight(r)));
}

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
  // Every edge of row r carries up to the row's full multiplicity: an
  // aggregate row is *preferably* routed whole, but the flow may split it
  // across targets; the extraction below then resolves the split to the
  // majority target (aggregates are never split in the final assignment).
  int64_t supply = 0;
  std::vector<int> sink_edge(rows);
  std::vector<std::vector<std::pair<int, int>>> row_edges(rows);
  for (int r = 0; r < rows; ++r) {
    const int64_t units = RowUnits(targets, r);
    supply += units;
    sink_edge[r] = mf.AddEdge(2 + nt + r, t_node, units);
    for (const CoverEdge& e : covers[r]) {
      row_edges[r].push_back({mf.AddEdge(2 + e.target, 2 + nt + r, units),
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
      const int64_t units = RowUnits(targets, item.row);
      const int t = covers[item.row][item.cover_idx].target;
      if (used[t] + units > cap_at(t, beta)) continue;
      seeded[item.row] = true;
      used[t] += units;
      mf.PushPath({target_edge[t], row_edges[item.row][item.cover_idx].first,
                   sink_edge[item.row]},
                  units);
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
    // Resolve to the target carrying the most of this row's flow (first
    // such target on a tie — covers are in deterministic candidate order).
    // Unweighted rows have unit supply, so this is exactly the historical
    // "first edge with positive flow".
    int64_t best_flow = 0;
    for (const auto& [edge, t] : row_edges[r]) {
      const int64_t f = mf.flow(edge);
      if (f > best_flow) {
        best_flow = f;
        out.target_of[r] = t;
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

  int64_t supply = 0;
  for (int r = 0; r < rows; ++r) {
    supply += static_cast<int64_t>(std::llround(targets.row_weight(r)));
  }

  FlowAttempt attempt = RunFlow(problem, targets, covers, options);

  // Enrichment: unroutable rows see only saturated targets; open up their
  // nearest feasible target that still has headroom at β_max.
  for (int round = 0;
       attempt.flow < supply && round < options.enrichment_rounds; ++round) {
    std::vector<double> load(nt, 0);
    for (int r = 0; r < rows; ++r) {
      if (attempt.target_of[r] >= 0) {
        load[attempt.target_of[r]] += targets.row_weight(r);
      }
    }
    std::vector<std::vector<geo::Rectangle>> pending(nt);
    std::vector<double> pending_count(nt, 0);
    bool any = false;
    for (int r = 0; r < rows; ++r) {
      if (attempt.target_of[r] >= 0) continue;
      const double w = targets.row_weight(r);
      // Nearest latency-feasible target with spare β_max capacity that does
      // not already cover this row.
      for (int t : targets.candidates(r)) {
        const double cap = targets.AbsCap(t, problem.config().beta_max);
        if (load[t] + pending_count[t] + w > cap + 1e-9) continue;
        const bool already_covering =
            std::any_of(covers[r].begin(), covers[r].end(),
                        [t](const CoverEdge& e) { return e.target == t; });
        if (already_covering) {
          continue;  // the flow just could not use it
        }
        pending[t].push_back(
            problem.subscriber(targets.subscribers[r]).subscription);
        pending_count[t] += w;
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

  if (attempt.flow < supply) {
    // A weighted row may have routed part of its supply and still been
    // resolved whole to its majority target; only rows with no flow at all
    // remain unassigned here.
    bool any_unassigned = false;
    for (int r = 0; r < rows; ++r) any_unassigned |= result.target_of[r] < 0;
    if (any_unassigned && !options.best_effort_overflow) {
      return Status::Infeasible(
          "load-balance constraint too tight: max flow < |S| at beta_max");
    }
    // Route leftovers to their least-loaded covering target.
    std::vector<double> load(nt, 0);
    for (int r = 0; r < rows; ++r) {
      if (result.target_of[r] >= 0) {
        load[result.target_of[r]] += targets.row_weight(r);
      }
    }
    for (int r = 0; r < rows; ++r) {
      if (result.target_of[r] >= 0) continue;
      int best = covers[r][0].target;
      double best_ratio = std::numeric_limits<double>::infinity();
      for (const CoverEdge& e : covers[r]) {
        const double denom =
            std::max(1e-12, targets.kappa[e.target] * targets.total_weight);
        const double ratio = load[e.target] / denom;
        if (ratio < best_ratio) {
          best_ratio = ratio;
          best = e.target;
        }
      }
      result.target_of[r] = best;
      load[best] += targets.row_weight(r);
    }
  }
  if (targets.weight.empty()) {
    // Unweighted: unit rows never split, so routed == within-cap and the
    // historical flag semantics hold exactly.
    result.load_feasible = attempt.flow >= supply;
  } else {
    // Weighted: atomically resolving a split aggregate can push a target
    // past its cap even at full flow. Repair deterministically — shed the
    // lightest rows of each overloaded target onto covering targets that
    // still have β_max slack (coverage-safe: covers[] only lists targets
    // whose filter contains the row) — then measure the achieved loads
    // honestly. Moves only land where the cap holds, so repair never
    // creates a new overload.
    std::vector<double> load(nt, 0);
    for (int r = 0; r < rows; ++r) {
      load[result.target_of[r]] += targets.row_weight(r);
    }
    const auto cap = [&](int t) {
      return targets.AbsCap(t, problem.config().beta_max);
    };
    std::vector<int> shed;  // rows currently on an overloaded target
    for (int r = 0; r < rows; ++r) {
      const int t = result.target_of[r];
      if (load[t] > cap(t) + 1e-9) shed.push_back(r);
    }
    std::sort(shed.begin(), shed.end(), [&](int a, int b) {
      if (result.target_of[a] != result.target_of[b]) {
        return result.target_of[a] < result.target_of[b];
      }
      const double wa = targets.row_weight(a);
      const double wb = targets.row_weight(b);
      return wa != wb ? wa < wb : a < b;
    });
    for (const int r : shed) {
      const int t = result.target_of[r];
      if (load[t] <= cap(t) + 1e-9) continue;  // repaired already
      const double w = targets.row_weight(r);
      int best = -1;
      double best_slack = 0;
      for (const CoverEdge& e : covers[r]) {
        if (e.target == t) continue;
        const double slack = cap(e.target) - load[e.target] - w;
        if (slack >= -1e-9 && (best < 0 || slack > best_slack)) {
          best = e.target;
          best_slack = slack;
        }
      }
      if (best < 0) continue;
      result.target_of[r] = best;
      load[t] -= w;
      load[best] += w;
    }
    result.load_feasible = true;
    for (int t = 0; t < nt; ++t) {
      result.load_feasible &= load[t] <= cap(t) + 1e-9;
    }
  }
  return result;
}

}  // namespace slp::core
