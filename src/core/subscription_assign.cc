#include "src/core/subscription_assign.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "src/common/invariant.h"
#include "src/common/status.h"
#include "src/core/filter_adjust.h"

namespace slp::core {

namespace {

// Multiplicative β escalation per retry (β_max is always tried last).
constexpr double kEscalation = 1.05;

}  // namespace

CoverTable ComputeCovers(const SaProblem& problem, const Targets& targets,
                         const std::vector<geo::Filter>& filters,
                         bool first_only) {
  const int rows = targets.num_rows();
  const int nt = targets.count;
  CoverTable covers;
  covers.offsets.assign(rows + 1, 0);
  if (rows == 0) return covers;
  const int d = problem.subscriber(targets.subscribers[0]).subscription.dim();

  // Every target's rectangles, flattened and sorted by volume: the first
  // that contains a subscription is the smallest, whose volume is the
  // cover's cost. A NaN volume can never be that minimum, and an
  // infinite one makes no cover, so the first hit decides. A
  // subscription outside the box enclosing a target's rectangles is in
  // none of them.
  std::vector<int64_t> rect_offsets(nt + 1, 0);
  std::vector<double> rect_volume, rect_lo, rect_hi;
  std::vector<double> box_lo(static_cast<size_t>(nt) * d);
  std::vector<double> box_hi(static_cast<size_t>(nt) * d);
  std::vector<std::pair<double, int>> by_volume;
  for (int t = 0; t < nt; ++t) {
    const std::vector<geo::Rectangle>& rects = filters[t].rects();
    by_volume.clear();
    for (int k = 0; k < static_cast<int>(rects.size()); ++k) {
      SLP_DCHECK(rects[k].dim() == d);
      const double volume = rects[k].Volume();
      if (!std::isnan(volume)) by_volume.push_back({volume, k});
    }
    std::sort(by_volume.begin(), by_volume.end());
    double* lo = box_lo.data() + static_cast<size_t>(t) * d;
    double* hi = box_hi.data() + static_cast<size_t>(t) * d;
    std::fill(lo, lo + d, std::numeric_limits<double>::infinity());
    std::fill(hi, hi + d, -std::numeric_limits<double>::infinity());
    for (const auto& [volume, k] : by_volume) {
      rect_volume.push_back(volume);
      for (int i = 0; i < d; ++i) {
        rect_lo.push_back(rects[k].lo(i));
        rect_hi.push_back(rects[k].hi(i));
        lo[i] = std::min(lo[i], rects[k].lo(i));
        hi[i] = std::max(hi[i], rects[k].hi(i));
      }
    }
    rect_offsets[t + 1] = static_cast<int64_t>(rect_volume.size());
  }
  // Closed containment exactly as Rectangle::Contains tests it.
  const auto contains = [d](const double* lo, const double* hi,
                            const double* sub_lo, const double* sub_hi) {
    for (int i = 0; i < d; ++i) {
      if (sub_lo[i] < lo[i] || sub_hi[i] > hi[i]) return false;
    }
    return true;
  };

  // Untouched capacity costs no memory, so reserving a cover for every
  // (row, target) pair is free where covers are sparse.
  const size_t most = static_cast<size_t>(rows) * (first_only ? 1 : nt);
  covers.target.reserve(most);
  covers.cost.reserve(most);
  struct Cover {
    double latency;
    int32_t target;
    double cost;
  };
  std::vector<Cover> row;
  for (int r = 0; r < rows; ++r) {
    const int j = targets.subscribers[r];
    const geo::Rectangle& sub = problem.subscriber(j).subscription;
    const geo::Point& at = problem.subscriber(j).location;
    const double limit = LatencyLimit(problem, j);
    const double* sub_lo = sub.lo().data();
    const double* sub_hi = sub.hi().data();
    row.clear();
    for (int t = 0; t < nt && !(first_only && !row.empty()); ++t) {
      const size_t box = static_cast<size_t>(t) * d;
      if (!contains(&box_lo[box], &box_hi[box], sub_lo, sub_hi)) continue;
      for (int64_t k = rect_offsets[t]; k < rect_offsets[t + 1]; ++k) {
        if (!contains(&rect_lo[k * d], &rect_hi[k * d], sub_lo, sub_hi)) {
          continue;
        }
        if (std::isfinite(rect_volume[k])) {
          const double latency = targets.Latency(t, at);
          if (latency <= limit) row.push_back({latency, t, rect_volume[k]});
        }
        break;
      }
    }
    // B_j's order: the flow's edge order and the seeding's ties rely on it.
    std::sort(row.begin(), row.end(), [](const Cover& a, const Cover& b) {
      return a.latency < b.latency ||
             (a.latency == b.latency && a.target < b.target);
    });
    for (const Cover& cover : row) {
      covers.target.push_back(cover.target);
      covers.cost.push_back(cover.cost);
    }
    covers.offsets[r + 1] = static_cast<int64_t>(covers.target.size());
  }
  return covers;
}

FlowRun RunFlow(const SaProblem& problem, const Targets& targets,
                CoverTable covers, const SubscriptionAssignOptions& options) {
  const int rows = static_cast<int>(covers.offsets.size()) - 1;
  const int nt = targets.count;
  const auto cap_at = [&](int t, double beta) {
    return static_cast<int64_t>(std::floor(targets.AbsCap(t, beta) + 1e-9));
  };
  double beta = problem.config().beta;

  // Cohesion seeding: a cost-ordered greedy pre-assignment written as the
  // initial flow; Solve() then only reroutes where load balance demands.
  struct Item {
    double cost;
    int row;
    int target;
  };
  std::vector<Item> items;
  if (options.cohesion_seeding) {
    items.reserve(covers.cost.size());
    for (int r = 0; r < rows; ++r) {
      for (int64_t k = covers.offsets[r]; k < covers.offsets[r + 1]; ++k) {
        items.push_back({covers.cost[k], r, covers.target[k]});
      }
    }
  }
  std::vector<double>().swap(covers.cost);
  FlowRun run;
  run.flow =
      AssignmentFlow(nt, std::move(covers.offsets), std::move(covers.target));
  AssignmentFlow& flow = run.flow;
  for (int t = 0; t < nt; ++t) flow.SetCap(t, cap_at(t, beta));

  if (options.cohesion_seeding) {
    // Ties decide the seeding. A cost is the volume of one filter
    // rectangle, and a filter has few, so many items share each cost;
    // std::sort orders tied items unstably but deterministically, and
    // this exact call (same items, same order, same comparator) is what
    // fixes every seeded row. A stable sort, a tie-break or a per-row
    // seeding would each move results (DESIGN.md §5, cohesion seeding).
    std::sort(items.begin(), items.end(), [](const Item& a, const Item& b) {
      return a.cost < b.cost;
    });
    for (const Item& item : items) {
      if (flow.target_of(item.row) >= 0 ||
          flow.load(item.target) >= flow.cap(item.target)) {
        continue;
      }
      flow.Assign(item.row, item.target);
    }
    std::vector<Item>().swap(items);
  }

  flow.Solve();
  while (flow.flow() < rows && beta < problem.config().beta_max - 1e-12) {
    beta = std::min(beta * kEscalation, problem.config().beta_max);
    for (int t = 0; t < nt; ++t) flow.SetCap(t, cap_at(t, beta));
    flow.Solve();  // resumes from the current flow
  }
  run.achieved_beta = beta;
  return run;
}

Result<SubscriptionAssignResult> AssignByMaxFlow(
    const SaProblem& problem, const Targets& targets,
    std::vector<geo::Filter>* filters, Rng& rng,
    const SubscriptionAssignOptions& options) {
  SLP_DCHECK(filters != nullptr);
  SLP_DCHECK(static_cast<int>(filters->size()) == targets.count);
  const int rows = static_cast<int>(targets.subscribers.size());
  const int nt = targets.count;

  CoverTable covers = ComputeCovers(problem, targets, *filters);
  for (int r = 0; r < rows; ++r) {
    if (covers.offsets[r + 1] == covers.offsets[r]) {
      return Status::Infeasible("subscriber covered by no target filter");
    }
  }

  FlowRun run = RunFlow(problem, targets, std::move(covers), options);

  // Enrichment: unroutable rows see only saturated targets; open up their
  // nearest feasible target that still has headroom at β_max.
  for (int round = 0;
       run.flow.flow() < rows && round < options.enrichment_rounds; ++round) {
    const AssignmentFlow& flow = run.flow;
    std::vector<std::vector<geo::Rectangle>> pending(nt);
    bool any = false;
    for (int r = 0; r < rows; ++r) {
      if (flow.target_of(r) >= 0) continue;
      // Nearest latency-feasible target with spare β_max capacity that does
      // not already cover this row.
      for (int t : Candidates(problem, targets, r)) {
        const double cap = targets.AbsCap(t, problem.config().beta_max);
        const auto pending_count = static_cast<int64_t>(pending[t].size());
        if (flow.load(t) + pending_count + 1 > cap + 1e-9) continue;
        const auto row_covers = flow.covers(r);
        if (std::find(row_covers.begin(), row_covers.end(), t) !=
            row_covers.end()) {
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
    run.flow = AssignmentFlow();  // release before the re-run builds anew
    run = RunFlow(problem, targets, ComputeCovers(problem, targets, *filters),
                  options);
  }

  const AssignmentFlow& flow = run.flow;
  SubscriptionAssignResult result;
  result.achieved_beta = run.achieved_beta;
  result.target_of = flow.target_of();
  result.load_feasible = flow.flow() >= rows;
  if (!result.load_feasible) {
    // Route leftovers best-effort to their least-loaded covering target.
    std::vector<int64_t> load(nt);
    for (int t = 0; t < nt; ++t) load[t] = flow.load(t);
    for (int r = 0; r < rows; ++r) {
      if (result.target_of[r] >= 0) continue;
      const auto row_covers = flow.covers(r);
      int best = row_covers[0];
      double best_ratio = std::numeric_limits<double>::infinity();
      for (int t : row_covers) {
        const double denom =
            std::max(1e-12, targets.kappa[t] * targets.total_subscribers);
        const double ratio = load[t] / denom;
        if (ratio < best_ratio) {
          best_ratio = ratio;
          best = t;
        }
      }
      result.target_of[r] = best;
      ++load[best];
    }
  }
  return result;
}

}  // namespace slp::core
