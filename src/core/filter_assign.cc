#include "src/core/filter_assign.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <string>

#include "src/common/invariant.h"
#include "src/common/status.h"
#include "src/core/filter_adjust.h"
#include "src/core/filter_gen.h"
#include "src/core/lp_relax.h"
#include "src/core/subscription_assign.h"
#include "src/geometry/audit.h"

namespace slp::core {

namespace {

// Initial certificate-size guess (Algorithm 1 starts at 4).
constexpr int kInitialG = 4;
// LPRelax retries with a fresh Sb sample when the LP comes back infeasible
// (paper: "up to a small number of times"); the ladder has kSbRetries + 1
// rungs.
constexpr int kSbRetries = 4;
// Cap on valid-iteration resampling attempts (Lemma 3: each attempt is
// valid with probability >= 1/2).
constexpr int kValidityRetries = 12;

#if SLP_AUDITS_ENABLED
// Rectangle sanity (finite, lo<=hi) of every filter a FilterAssign call
// hands back — rounding, ε-expansion, and completion all build new
// rectangles, so this is the phase boundary where a malformed one would
// first escape.
void AuditResultFilters(const FilterAssignResult& result) {
  for (size_t t = 0; t < result.filters.size(); ++t) {
    geo::AuditFilter(result.filters[t],
                     "FilterAssign target " + std::to_string(t));
  }
}
#endif

// Rows (into targets.subscribers) not covered by `filters`: no
// latency-feasible target's filter contains the row's subscription in a
// single rectangle of finite volume — exactly the rows AssignByMaxFlow
// would find without a cover.
std::vector<int> Violate(const SaProblem& problem, const Targets& targets,
                         const std::vector<geo::Filter>& filters) {
  const CoverTable covers =
      ComputeCovers(problem, targets, filters, /*first_only=*/true);
  std::vector<int> out;
  for (int r = 0; r < targets.num_rows(); ++r) {
    if (covers.offsets[r + 1] == covers.offsets[r]) out.push_back(r);
  }
  return out;
}

// Guarantees coverage by adding (clustered MEBs of) the uncovered
// subscriptions to each row's nearest feasible target.
void Complete(const SaProblem& problem, const Targets& targets,
              const std::vector<int>& uncovered, Rng& rng,
              std::vector<geo::Filter>* filters) {
  std::vector<std::vector<geo::Rectangle>> extra(targets.count);
  for (int r : uncovered) {
    const int t = targets.nearest[r];
    SLP_DCHECK(t >= 0);
    extra[t].push_back(problem.subscriber(targets.subscribers[r]).subscription);
  }
  for (int t = 0; t < targets.count; ++t) {
    if (extra[t].empty()) continue;
    const geo::Filter cover =
        CoverWithAlphaMebs(extra[t], problem.config().alpha, rng);
    for (const auto& rect : cover.rects()) (*filters)[t].Add(rect);
  }
}

}  // namespace

Result<FilterAssignResult> FilterAssign(const SaProblem& problem,
                                        const Targets& targets,
                                        const FilterAssignOptions& options,
                                        Rng& rng) {
  const int rows = static_cast<int>(targets.subscribers.size());
  SLP_DCHECK(rows > 0);
  if (std::find(targets.nearest.begin(), targets.nearest.end(), -1) !=
      targets.nearest.end()) {
    return Status::Infeasible("subscriber with no latency-feasible target");
  }

  FilterAssignResult result;
  // Best-so-far (fewest violations) snapshot, for budget-exhausted returns.
  std::vector<geo::Filter> best_filters;
  double best_fractional = 0;
  size_t best_violations = std::numeric_limits<size_t>::max();

  const int sb_size =
      std::min(rows, std::max(1, options.sb_factor * targets.count));
  // Load-enforcing rungs the instance rules out (LoadRungRuledOut) are
  // skipped before any sampling, so the ladder starts at the desired β, at
  // β_max, or at the no-(C3) rung. Starting at the no-(C3) rung — below the
  // root whenever β_max κ_v < 1 — Sb would feed only (C3), so each
  // iteration draws Q alone (Sa = Q), builds one model with no (C3) rows,
  // and makes one LP solve.
  const double beta = problem.config().beta;
  const double beta_max = problem.config().beta_max;
  int first_rung = 0;
  if (LoadRungRuledOut(targets, sb_size, beta_max)) {
    first_rung = kSbRetries;
  } else if (LoadRungRuledOut(targets, sb_size, beta)) {
    first_rung = (kSbRetries + 1) / 2;  // the first β_max rung
  }
  const bool draw_sb = first_rung < kSbRetries;

  std::vector<double> weights;
  auto budget_left = [&]() {
    return options.max_lp_calls <= 0 || result.lp_calls < options.max_lp_calls;
  };
  // Budget-exhausted exit shared by every degraded path: the best
  // (fewest-violations) filters seen so far, completed to full coverage.
  auto best_effort = [&]() -> FilterAssignResult {
    result.budget_exhausted = true;
    if (best_filters.empty()) best_filters.assign(targets.count, geo::Filter());
    const std::vector<int> uncovered = Violate(problem, targets, best_filters);
    Complete(problem, targets, uncovered, rng, &best_filters);
    result.filters = std::move(best_filters);
    result.fractional_objective = best_fractional;
#if SLP_AUDITS_ENABLED
    AuditResultFilters(result);
#endif
    return result;
  };

  for (int g = kInitialG;; g = std::min(2 * g, rows + 1)) {
    if (g > rows + 0) {
      // Certificate search exhausted the whole set; one final exact pass
      // with Q = all rows (guaranteed to cover if the LP succeeds).
      g = rows;
    }
    // MWU coreset weights start at 1 for every row.
    weights.assign(rows, 1.0);
    const int q = std::min(
        rows, static_cast<int>(std::ceil(10.0 * g * std::log(std::max(g, 2)))));
    const int stage_iters = std::max(
        1, static_cast<int>(std::ceil(
               4.0 * g * std::log(std::max(2.0, static_cast<double>(rows) / g)))));

    for (int iter = 0; iter < stage_iters; ++iter) {
      ++result.iterations;
      // ---- One (possibly resampled-for-validity) iteration ----
      for (int validity = 0; validity < kValidityRetries; ++validity) {
        if (!budget_left()) {
          // Budget exhausted: return the best filters seen, completed.
          return best_effort();
        }

        // Q: weight-proportional coreset sample.
        const std::vector<int> q_rows =
            WeightedSampleWithoutReplacement(weights, q, rng);

        // Helper: Sb sample + FilterGen + LPRelax, retrying on LP
        // infeasibility. The infeasibility ladder escalates the load rung
        // (the desired β first, then β_max, and as a last resort without
        // (C3) — load balance is then left to the max-flow assignment
        // step). When only the rung changed between attempts, the sample,
        // the FilterGen candidates, and the built LP are all still valid:
        // the retained model just retunes its (C3) rows and is solved
        // again, with no new random draws. Same-rung retries resample Sb
        // fresh.
        Result<LpRelaxResult> lp_result =
            Status::Internal("no LPRelax attempt made");
        std::vector<int> sa_rows;
        std::optional<LpRelaxModel> model;
        double prev_beta = 0;
        bool prev_enforce = false;
        for (int attempt = first_rung; attempt <= kSbRetries; ++attempt) {
          if (!budget_left()) break;
          const bool enforce_load = attempt < kSbRetries;
          const double rung_beta =
              enforce_load && 2 * attempt >= kSbRetries ? beta_max : beta;
          const bool rung_changed =
              attempt > 0 &&
              (rung_beta != prev_beta || enforce_load != prev_enforce);
          prev_beta = rung_beta;
          prev_enforce = enforce_load;

          if (!model || !rung_changed) {
            // Fresh sample (first attempt, or a same-rung retry): Sb, the
            // merged Sa = Q ∪ Sb, the rectangle candidates, and the LP are
            // all rebuilt. Both samples come back sorted, so the union is
            // a linear merge.
            const std::vector<int> sb_rows =
                draw_sb ? UniformSampleWithoutReplacement(rows, sb_size, rng)
                        : std::vector<int>();
            sa_rows.clear();
            std::set_union(q_rows.begin(), q_rows.end(), sb_rows.begin(),
                           sb_rows.end(), std::back_inserter(sa_rows));

            std::vector<int> sa_subs;
            sa_subs.reserve(sa_rows.size());
            for (int r : sa_rows) sa_subs.push_back(targets.subscribers[r]);
            const std::vector<geo::Rectangle> rects =
                FilterGen(problem, sa_subs, targets.count, rng);

            Result<LpRelaxModel> built = LpRelaxModel::Build(
                problem, targets, sa_rows, sb_rows, rects, rng);
            if (!built.ok()) {
              lp_result = built.status();
              if (built.status().code() != StatusCode::kInfeasible) {
                return built.status();
              }
              model.reset();
              continue;
            }
            model.emplace(std::move(built.value()));
          }
          // Hand the rung to the model. A fresh model was built at the
          // enforced rung of the problem's β; a retained one mutates (C3) in
          // place. Either way the solve below starts cold.
          model->SetLoadRung(rung_beta, enforce_load);

          ++result.lp_calls;
          lp_result = model->Solve(rng);
          // Accumulate solver accounting from every solve, including the
          // infeasible-at-β ones (those are exactly the rungs that
          // escalate).
          const lp::SolverStats& lp_stats = model->last_lp_stats();
          result.pivots += lp_stats.pivots;
          result.degenerate_pivots += lp_stats.degenerate_pivots;
          result.bland_pivots += lp_stats.bland_pivots;
          if (lp_result.ok()) break;
          if (lp_result.status().code() == StatusCode::kResourceExhausted) {
            // The engine's pivot cap died inside a single solve: the
            // sampled LP at this scale is too degenerate to finish, and a
            // fresh sample would stall the same way. Degrade exactly like
            // an exhausted max_lp_calls budget instead of failing the
            // whole pipeline — coverage comes from Complete(), load from
            // the max-flow step, and budget_exhausted reports it.
            return best_effort();
          }
          if (lp_result.status().code() != StatusCode::kInfeasible) {
            return lp_result.status();
          }
        }
        if (!lp_result.ok()) {
          if (!budget_left()) continue;  // outer check will finish up
          return lp_result.status();
        }

        // ε-expand and test global coverage (Algorithm 1, line 11).
        std::vector<geo::Filter> expanded;
        expanded.reserve(targets.count);
        for (const auto& f : lp_result.value().filters) {
          expanded.push_back(f.Expanded(options.eps));
        }
        const std::vector<int> expanded_violations =
            Violate(problem, targets, expanded);
        if (expanded_violations.size() < best_violations) {
          best_violations = expanded_violations.size();
          best_filters = expanded;
          best_fractional = lp_result.value().fractional_objective;
        }
        if (expanded_violations.empty()) {
          result.filters = std::move(expanded);
          result.fractional_objective =
              lp_result.value().fractional_objective;
#if SLP_AUDITS_ENABLED
          AuditResultFilters(result);
#endif
          return result;
        }

        // Validity (Lemma 3): uncovered weight (unexpanded Φ) must be at
        // most ε of the total; otherwise resample.
        const std::vector<int> v =
            Violate(problem, targets, lp_result.value().filters);
        double wv = 0, wtotal = 0;
        for (double w : weights) wtotal += w;
        for (int r : v) wv += weights[r];
        if (wv <= options.eps * wtotal || validity + 1 == kValidityRetries) {
          // Valid (or retries exhausted — accept to guarantee progress):
          // double the weight of uncovered subscribers.
          for (int r : v) weights[r] *= 2;
          break;
        }
      }
    }
    if (g >= rows) break;  // final exact stage already ran
  }

  // All stages ran without full coverage (only possible with a tight LP
  // budget or pathological rounding): complete the best snapshot.
  return best_effort();
}

}  // namespace slp::core
