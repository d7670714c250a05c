#include "src/core/lp_relax.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <utility>

#include "src/common/invariant.h"
#include "src/common/status.h"
#include "src/lp/lp_problem.h"
#include "src/lp/simplex.h"

namespace slp::core {

namespace {

// Max candidate targets per subscriber in the LP: the nearest half by
// latency plus a random half of the remaining feasible targets (pure
// nearest-k collapses onto the same few brokers for geographically
// clustered subscribers and starves the load constraint).
constexpr int kTargetsPerSubscriber = 6;
// Max candidate rectangles per subscriber in the LP: the smallest few plus
// log-spaced larger ones (see Build).
constexpr int kRectsPerSubscriber = 8;
// Rounding attempts before the deterministic completion kicks in.
constexpr int kMaxRoundingAttempts = 20;
// Solve reports a load-infeasible sample when the optimum's (C3) slacks
// sum past this many subscribers.
constexpr double kLoadSlackLimit = 0.5;

}  // namespace

Result<LpRelaxModel> LpRelaxModel::Build(
    const SaProblem& problem, const Targets& targets,
    const std::vector<int>& sa_rows, const std::vector<int>& sb_rows,
    const std::vector<geo::Rectangle>& rects, Rng& rng) {
  SLP_DCHECK(!sa_rows.empty());
  SLP_DCHECK(!rects.empty());

  LpRelaxModel model;
  model.targets_ = &targets;
  model.rects_ = rects;
  model.sb_size_ = static_cast<double>(sb_rows.size());
  model.sa_size_ = static_cast<double>(sa_rows.size());

  std::vector<int> sb_sorted = sb_rows;
  std::sort(sb_sorted.begin(), sb_sorted.end());

  // ---- Per-subscriber candidates, then grouping ----
  std::map<std::pair<std::vector<int>, std::vector<int>>, int> group_of;
  std::vector<Group>& groups = model.groups_;
  for (int row : sa_rows) {
    const int j = targets.subscribers[row];
    // Targets: nearest half by latency plus a random spread of the rest —
    // clustered subscribers would otherwise all point at the same few
    // brokers and make load balance impossible within the cap.
    const CandidateRow cand = targets.candidates(row);
    if (cand.empty()) {
      return Status::Infeasible("subscriber with no feasible target");
    }
    std::vector<int> tcap;
    if (cand.size() <= kTargetsPerSubscriber) {
      tcap.assign(cand.begin(), cand.end());
    } else {
      const int near = (kTargetsPerSubscriber + 1) / 2;
      tcap.assign(cand.begin(), cand.begin() + near);
      const int rest = cand.size() - near;
      for (int pick : UniformSampleWithoutReplacement(
               rest, kTargetsPerSubscriber - near, rng)) {
        tcap.push_back(cand[near + pick]);
      }
    }
    // Canonical-key sort (by id) for the grouping map — every element is
    // consumed as part of the key, so there is no top-k prefix to cap at.
    std::sort(tcap.begin(), tcap.end());
    // Rectangles: multi-scale selection from the containing candidates
    // (sorted by volume): the smallest few, then log-spaced larger ones up
    // to and including the largest. Keeping only the smallest would starve
    // (C1) of the big shared rectangles and make the LP infeasible.
    std::vector<int> containing;
    const auto& sub = problem.subscriber(j).subscription;
    for (size_t k = 0; k < rects.size(); ++k) {
      if (rects[k].Contains(sub)) containing.push_back(static_cast<int>(k));
    }
    if (containing.empty()) {
      return Status::Infeasible("subscription not contained in any candidate");
    }
    std::vector<int> rcap;
    const int small_quota = std::max(1, kRectsPerSubscriber - 3);
    const int take_small =
        std::min<int>(small_quota, static_cast<int>(containing.size()));
    rcap.assign(containing.begin(), containing.begin() + take_small);
    for (size_t idx = 2 * small_quota; idx < containing.size(); idx *= 2) {
      rcap.push_back(containing[idx]);
    }
    if (rcap.back() != containing.back()) rcap.push_back(containing.back());
    auto key = std::make_pair(std::move(tcap), std::move(rcap));
    auto [it, inserted] =
        group_of.emplace(key, static_cast<int>(groups.size()));
    if (inserted) {
      Group g;
      g.targets = key.first;
      g.rects = key.second;
      groups.push_back(std::move(g));
    }
    Group& g = groups[it->second];
    g.rows.push_back(row);
    if (std::binary_search(sb_sorted.begin(), sb_sorted.end(), row)) {
      g.weight_sb += 1;
    }
  }

  // ---- LP construction ----
  lp::LpProblem& lp = model.lp_;
  // y variables: only (target, rect) pairs that some group can use.
  std::map<std::pair<int, int>, int> yvar;
  for (const Group& g : groups) {
    for (int t : g.targets) {
      for (int k : g.rects) {
        auto key = std::make_pair(t, k);
        if (!yvar.count(key)) {
          yvar[key] = lp.AddVariable(rects[k].Volume(), 0, 1);
        }
      }
    }
  }
  for (const auto& [key, var] : yvar) {
    model.yvars_.push_back({key.first, key.second, var});
  }
  // x variables per (group, target).
  std::vector<std::vector<int>> xvar(groups.size());
  for (size_t gi = 0; gi < groups.size(); ++gi) {
    for (size_t t = 0; t < groups[gi].targets.size(); ++t) {
      xvar[gi].push_back(lp.AddVariable(0, 0, 1));
    }
  }

  // (C1) per target: Σ_k y_tk ≤ α.
  std::map<int, int> c1_row;
  for (const auto& [key, var] : yvar) {
    const int t = key.first;
    auto it = c1_row.find(t);
    if (it == c1_row.end()) {
      it = c1_row
               .emplace(t, lp.AddConstraint(lp::Sense::kLessEqual,
                                            problem.config().alpha))
               .first;
    }
    lp.AddEntry(it->second, var, 1);
  }
  // (C2) per group: Σ_t x ≥ 1.
  for (size_t gi = 0; gi < groups.size(); ++gi) {
    const int row = lp.AddConstraint(lp::Sense::kGreaterEqual, 1);
    for (size_t t = 0; t < groups[gi].targets.size(); ++t) {
      lp.AddEntry(row, xvar[gi][t], 1);
    }
  }
  // (C3) per target: Σ_groups weight_sb · x ≤ β κ_t |Sb| + slack, with the
  // slack penalized heavily in the objective. The soft form avoids burning
  // full phase-1 infeasibility proofs on over-tight samples; positive slack
  // at the optimum is reported as infeasibility below. The rows are built
  // unconditionally (for non-empty Sb) with caps at the problem's β;
  // SetLoadRung retunes or neutralizes them in place, so a rung change
  // needs no rebuild.
  if (!sb_rows.empty()) {
    double max_vol = 0;
    for (const auto& r : rects) max_vol = std::max(max_vol, r.Volume());
    model.penalty_ =
        2.0 * problem.config().alpha * targets.count * std::max(max_vol, 1e-6);
    const double beta = problem.config().beta;
    std::map<int, int> c3_row;
    for (size_t gi = 0; gi < groups.size(); ++gi) {
      if (groups[gi].weight_sb <= 0) continue;
      for (size_t t = 0; t < groups[gi].targets.size(); ++t) {
        const int target = groups[gi].targets[t];
        auto it = c3_row.find(target);
        if (it == c3_row.end()) {
          const double cap = beta * targets.kappa[target] * model.sb_size_;
          const int row = lp.AddConstraint(lp::Sense::kLessEqual, cap);
          const int slack = lp.AddVariable(model.penalty_, 0, lp::kInfinity);
          lp.AddEntry(row, slack, -1);
          model.c3_rows_.push_back({target, row, slack});
          it = c3_row.emplace(target, row).first;
        }
        lp.AddEntry(it->second, xvar[gi][t], groups[gi].weight_sb);
      }
    }
  }
  // (C4) per (group, target): Σ_{k ∈ rects_g} y_tk - x ≥ 0.
  for (size_t gi = 0; gi < groups.size(); ++gi) {
    for (size_t t = 0; t < groups[gi].targets.size(); ++t) {
      const int target = groups[gi].targets[t];
      const int row = lp.AddConstraint(lp::Sense::kGreaterEqual, 0);
      lp.AddEntry(row, xvar[gi][t], -1);
      for (int k : groups[gi].rects) {
        lp.AddEntry(row, yvar.at({target, k}), 1);
      }
    }
  }
  return model;
}

void LpRelaxModel::SetLoadRung(double beta, bool enforce_load) {
  SLP_DCHECK(beta > 0);
  enforce_load_ = enforce_load;
  for (const C3Row& c3 : c3_rows_) {
    lp_.SetRhs(c3.row, beta * targets_->kappa[c3.target] * sb_size_);
    // Dropping (C3) keeps the rows but makes their slacks free: the
    // constraints go inert without changing the LP's shape.
    lp_.SetObj(c3.slack_var, enforce_load ? penalty_ : 0.0);
  }
}

bool LoadRungRuledOut(const Targets& targets, int sb_size, double beta) {
  double kappa_sum = 0;
  for (double kappa : targets.kappa) kappa_sum += kappa;
  return sb_size * (1 - beta * kappa_sum) > kLoadSlackLimit;
}

double LpRelaxModel::LoadSlackSum(const std::vector<double>& x) const {
  double sum = 0;
  for (const C3Row& c3 : c3_rows_) sum += x[c3.slack_var];
  return sum;
}

Result<LpRelaxResult> LpRelaxModel::Solve(Rng& rng) {
  const lp::LpSolution sol = lp::SimplexSolver().Solve(lp_);
  last_stats_ = sol.stats;
  if (sol.status == lp::SolveStatus::kInfeasible) {
    return Status::Infeasible("filter-assignment LP infeasible");
  }
  if (sol.status != lp::SolveStatus::kOptimal) {
    return Status::ResourceExhausted(std::string("LP solver: ") +
                                     lp::ToString(sol.status));
  }
  LpRelaxResult result;
  // Report only the filter-volume part of the objective; surface any (C3)
  // slack as infeasibility at this β. With load enforcement off the slacks
  // are free variables, so their values are meaningless.
  if (enforce_load_ && LoadSlackSum(sol.x) > kLoadSlackLimit) {
    return Status::Infeasible(
        "load-balance sample cannot be balanced at the requested beta");
  }
  double y_objective = 0;
  for (const YVar& y : yvars_) {
    y_objective += rects_[y.rect].Volume() * sol.x[y.var];
  }
  result.fractional_objective = y_objective;

  // ---- Randomized rounding ----
  const double boost = 2.0 * std::log(std::max(sa_size_, 2.0));
  const int count = targets_->count;
  std::vector<std::vector<int>> chosen(count);  // rect ids per target
  auto round_once = [&]() {
    for (auto& c : chosen) c.clear();
    for (const YVar& y : yvars_) {
      const double yhat = std::clamp(sol.x[y.var], 0.0, 1.0);
      if (yhat <= 1e-12) continue;
      const double p = 1.0 - std::pow(1.0 - yhat, boost);
      if (rng.Bernoulli(p)) chosen[y.target].push_back(y.rect);
    }
  };
  // y variable lookup for coverage checks / completion.
  std::map<std::pair<int, int>, int> yvar;
  for (const YVar& y : yvars_) yvar[{y.target, y.rect}] = y.var;
  auto group_covered = [&](const Group& g) {
    for (size_t t = 0; t < g.targets.size(); ++t) {
      const int target = g.targets[t];
      for (int k : g.rects) {
        if (std::find(chosen[target].begin(), chosen[target].end(), k) !=
            chosen[target].end()) {
          return true;
        }
      }
    }
    return false;
  };

  bool covered = false;
  for (int attempt = 0; attempt < kMaxRoundingAttempts; ++attempt) {
    round_once();
    covered = true;
    for (const Group& g : groups_) {
      if (!group_covered(g)) {
        covered = false;
        break;
      }
    }
    if (covered) break;
  }
  if (!covered) {
    // Deterministic completion: give each uncovered group its
    // highest-fractional-mass (target, rect) pair.
    for (const Group& g : groups_) {
      if (group_covered(g)) continue;
      double best = -1;
      std::pair<int, int> pick{g.targets[0], g.rects[0]};
      for (int t : g.targets) {
        for (int k : g.rects) {
          const double v = sol.x[yvar.at({t, k})];
          if (v > best) {
            best = v;
            pick = {t, k};
          }
        }
      }
      chosen[pick.first].push_back(pick.second);
    }
  }

  result.filters.resize(count);
  for (int t = 0; t < count; ++t) {
    std::sort(chosen[t].begin(), chosen[t].end());
    chosen[t].erase(std::unique(chosen[t].begin(), chosen[t].end()),
                    chosen[t].end());
    std::vector<geo::Rectangle> rs;
    rs.reserve(chosen[t].size());
    for (int k : chosen[t]) rs.push_back(rects_[k]);
    result.filters[t] = geo::Filter(std::move(rs));
  }
  return result;
}

}  // namespace slp::core
