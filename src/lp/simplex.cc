#include "src/lp/simplex.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "src/common/invariant.h"
#include "src/common/status.h"
#include "src/common/timer.h"
#include "src/lp/lu_factor.h"

namespace slp::lp {

const char* ToString(SolveStatus status) {
  switch (status) {
    case SolveStatus::kOptimal: return "OPTIMAL";
    case SolveStatus::kInfeasible: return "INFEASIBLE";
    case SolveStatus::kUnbounded: return "UNBOUNDED";
    case SolveStatus::kIterationLimit: return "ITERATION_LIMIT";
  }
  return "UNKNOWN";
}

namespace {

constexpr double kInf = kInfinity;
// Absolute floor for acceptable pivots inside the LU factorization.
constexpr double kFactorPivotEps = 1e-12;
// Recompute basic values / duals from scratch this often (pivots).
constexpr int kRecomputeInterval = 500;
// Hard refactorization cadence (pivots); max_eta / eta_fill_factor
// usually trigger much earlier.
constexpr int kRefactorInterval = 3000;
// Primal feasibility tolerance, scaled by 1 + max|rhs|.
constexpr double kFeasibilityTol = 1e-7;
// Reduced-cost tolerance for pricing.
constexpr double kOptimalityTol = 1e-7;
// Smallest |pivot| the ratio test accepts.
constexpr double kPivotTol = 1e-8;
// FTRAN/BTRAN right-hand sides stop tracking their nonzero pattern and
// fall back to dense scans beyond this fill fraction.
constexpr double kDensityThreshold = 0.25;

// ---------------------------------------------------------------------------
// Revised-simplex engine.
//
// Columns are laid out as [structural | slack | artificial], every column
// stored sparsely. The basis is held as a BasisFactorization (sparse LU +
// bounded eta file), so a pivot costs an FTRAN, a sparse unit-vector BTRAN
// for the dual update, and one appended eta — O(m + fill). Basis
// "positions" are decoupled from constraint rows: basis_[p] is the column
// occupying position p, and FTRAN output / ratio-test / eta indices all
// live in position space, while rhs, duals and column entries live in row
// space.
class SparseTableau {
 public:
  SparseTableau(const LpProblem& problem, const SimplexOptions& options)
      : options_(options), m_(problem.num_constraints()) {
    BuildColumns(problem);
    InitCold(problem);
  }

  LpSolution Run(const LpProblem& problem) {
    LpSolution solution;
    const int max_iters = options_.max_iterations > 0
                              ? options_.max_iterations
                              : std::max(20000, 50 * m_);

    // ---- Phase 1 ----
    if (num_art_ > 0) {
      SetPhase1Costs();
      RecomputeDuals();
      const SolveStatus st = Iterate(max_iters, &solution.iterations);
      if (st == SolveStatus::kIterationLimit) {
        solution.status = st;
        return Finish(std::move(solution));
      }
      SLP_DCHECK(st != SolveStatus::kUnbounded);  // phase-1 obj bounded below
      if (CurrentObjective() > kFeasibilityTol * (1 + rhs_norm_)) {
        solution.status = SolveStatus::kInfeasible;
        stats_.phase1_pivots = solution.iterations;
        return Finish(std::move(solution));
      }
      for (int j = art_begin_; j < total_cols_; ++j) {
        lo_[j] = 0;
        hi_[j] = 0;
        xval_[j] = 0;
      }
    }
    stats_.phase1_pivots = solution.iterations;

    // ---- Phase 2 ----
    SetPhase2Costs(problem);
    RecomputeDuals();
    const SolveStatus st = Iterate(max_iters, &solution.iterations);
    solution.status = st;
    if (st != SolveStatus::kOptimal) return Finish(std::move(solution));

    solution.x.assign(xval_.begin(), xval_.begin() + num_struct_);
    solution.objective = 0;
    for (int j = 0; j < num_struct_; ++j) {
      solution.objective += problem.obj(j) * solution.x[j];
    }
    RecomputeDuals();
    solution.duals = y_;
#if SLP_AUDITS_ENABLED
    AuditTableauState();
#endif
    return Finish(std::move(solution));
  }

 private:
  LpSolution Finish(LpSolution solution) {
    if (ftran_count_ > 0) {
      stats_.avg_ftran_density = ftran_density_sum_ / ftran_count_;
    }
    solution.stats = stats_;
    return solution;
  }

  void BuildColumns(const LpProblem& problem) {
    num_struct_ = problem.num_vars();
    const LpProblem::Columns cols = problem.BuildColumns();

    col_start_.assign(1, 0);
    for (int j = 0; j < num_struct_; ++j) {
      for (int p = cols.col_start[j]; p < cols.col_start[j + 1]; ++p) {
        entry_row_.push_back(cols.row[p]);
        entry_coef_.push_back(cols.coef[p]);
      }
      col_start_.push_back(static_cast<int>(entry_row_.size()));
      lo_.push_back(problem.lo(j));
      hi_.push_back(problem.hi(j));
    }

    slack_col_of_row_.assign(m_, -1);
    for (int i = 0; i < m_; ++i) {
      const Sense s = problem.sense(i);
      if (s == Sense::kEqual) continue;
      const double coef = (s == Sense::kLessEqual) ? 1.0 : -1.0;
      slack_col_of_row_[i] = static_cast<int>(col_start_.size()) - 1;
      entry_row_.push_back(i);
      entry_coef_.push_back(coef);
      col_start_.push_back(static_cast<int>(entry_row_.size()));
      lo_.push_back(0);
      hi_.push_back(kInf);
    }
    art_begin_ = static_cast<int>(col_start_.size()) - 1;
    total_cols_ = art_begin_;
    num_art_ = 0;

    xval_.assign(total_cols_, 0.0);
    at_upper_.assign(total_cols_, false);

    rhs_.resize(m_);
    rhs_norm_ = 0;
    for (int i = 0; i < m_; ++i) {
      rhs_[i] = problem.rhs(i);
      rhs_norm_ = std::max(rhs_norm_, std::abs(rhs_[i]));
    }

    w_vec_.Resize(m_);
    rho_.Resize(m_);
    cb_.Resize(m_);
    rhs_work_.Resize(m_);
    y_.assign(m_, 0.0);
    resid_scratch_.assign(m_, 0.0);
  }

  // Appends a phase-1 artificial column `coef`·e_row with bounds [0, ∞).
  int AddArtificial(int row, double coef) {
    entry_row_.push_back(row);
    entry_coef_.push_back(coef);
    col_start_.push_back(static_cast<int>(entry_row_.size()));
    lo_.push_back(0);
    hi_.push_back(kInf);
    xval_.push_back(0);
    at_upper_.push_back(false);
    ++total_cols_;
    return total_cols_ - 1;
  }

  void InitCold(const LpProblem& problem) {
    for (int j = 0; j < num_struct_; ++j) xval_[j] = lo_[j];

    std::vector<double> resid = rhs_;
    for (int j = 0; j < num_struct_; ++j) {
      if (xval_[j] == 0) continue;
      for (int p = col_start_[j]; p < col_start_[j + 1]; ++p) {
        resid[entry_row_[p]] -= entry_coef_[p] * xval_[j];
      }
    }

    basis_.assign(m_, -1);
    std::vector<double> basic_value(m_, 0.0);
    for (int i = 0; i < m_; ++i) {
      const Sense s = problem.sense(i);
      const double r = resid[i];
      const int sc = slack_col_of_row_[i];
      bool use_slack = false;
      if (s == Sense::kLessEqual && r >= 0) use_slack = true;
      if (s == Sense::kGreaterEqual && r <= 0) use_slack = true;
      if (use_slack) {
        basis_[i] = sc;
        basic_value[i] = std::abs(r);
      } else {
        const double coef = (r >= 0) ? 1.0 : -1.0;
        basis_[i] = AddArtificial(i, coef);
        basic_value[i] = std::abs(r);
        ++num_art_;
      }
    }

    basic_row_.assign(total_cols_, -1);
    for (int i = 0; i < m_; ++i) {
      basic_row_[basis_[i]] = i;
      xval_[basis_[i]] = basic_value[i];
    }

    // Initial basis is diagonal (+-1 singleton columns): factorization is
    // trivially nonsingular.
    const auto repairs = factor_.Factorize(col_start_, entry_row_, entry_coef_,
                                           basis_, m_, kFactorPivotEps);
    SLP_INVARIANT(audit::Category::kBasis, repairs.empty(),
                  "cold-start diagonal basis required repairs");
    ++stats_.refactorizations;
  }

  void SetPhase1Costs() {
    cost_.assign(total_cols_, 0.0);
    for (int j = art_begin_; j < total_cols_; ++j) cost_[j] = 1.0;
  }

  void SetPhase2Costs(const LpProblem& problem) {
    cost_.assign(total_cols_, 0.0);
    for (int j = 0; j < num_struct_; ++j) cost_[j] = problem.obj(j);
  }

  double CurrentObjective() const {
    double obj = 0;
    for (int j = 0; j < total_cols_; ++j) obj += cost_[j] * xval_[j];
    return obj;
  }

  // y = B^-T c_B via one full BTRAN.
  void RecomputeDuals() {
    cb_.Clear();
    for (int p = 0; p < m_; ++p) {
      const double cb = cost_[basis_[p]];
      if (cb != 0) cb_.Set(p, cb);
    }
    factor_.Btran(&cb_, kDensityThreshold);
    y_.assign(m_, 0.0);
    if (cb_.dense) {
      for (int i = 0; i < m_; ++i) y_[i] = cb_.val[i];
    } else {
      for (int i : cb_.idx) y_[i] = cb_.val[i];
    }
  }

  double ReducedCost(int j) const {
    double d = cost_[j];
    for (int p = col_start_[j]; p < col_start_[j + 1]; ++p) {
      d -= y_[entry_row_[p]] * entry_coef_[p];
    }
    return d;
  }

  // x_B = B^-1 (b - N x_N). Returns the residual ||B x_B - (b - N x_N)||_inf
  // as a cheap instability probe.
  double ComputeBasicValues() {
    std::vector<double>& r = resid_scratch_;
    r = rhs_;
    for (int j = 0; j < total_cols_; ++j) {
      if (basic_row_[j] >= 0 || xval_[j] == 0) continue;
      for (int p = col_start_[j]; p < col_start_[j + 1]; ++p) {
        r[entry_row_[p]] -= entry_coef_[p] * xval_[j];
      }
    }
    rhs_work_.Clear();
    rhs_work_.dense = true;
    for (int i = 0; i < m_; ++i) rhs_work_.val[i] = r[i];
    factor_.Ftran(&rhs_work_, kDensityThreshold);
    for (int p = 0; p < m_; ++p) xval_[basis_[p]] = rhs_work_.val[p];

    double resid = 0;
    std::vector<double> acc(m_, 0.0);
    for (int p = 0; p < m_; ++p) {
      const int c = basis_[p];
      const double x = xval_[c];
      if (x == 0) continue;
      for (int e = col_start_[c]; e < col_start_[c + 1]; ++e) {
        acc[entry_row_[e]] += entry_coef_[e] * x;
      }
    }
    for (int i = 0; i < m_; ++i) {
      resid = std::max(resid, std::abs(acc[i] - r[i]));
    }
    return resid;
  }

  // Factorizes the current basis from scratch, resetting the eta file. A
  // repair here would mean the pivot tolerances let a numerically singular
  // basis through.
  void Refactorize() {
    stats_.max_eta_length =
        std::max(stats_.max_eta_length, factor_.eta_count());
    const auto repairs = factor_.Factorize(col_start_, entry_row_, entry_coef_,
                                           basis_, m_, kFactorPivotEps);
    SLP_INVARIANT(audit::Category::kBasis, repairs.empty(),
                  "refactorization of a pivot-checked basis repaired " +
                      std::to_string(repairs.size()) + " columns");
    ++stats_.refactorizations;
#if SLP_AUDITS_ENABLED
    AuditTableauState();
#endif
  }

  double EnteringDelta(int j, double d) const {
    if (!at_upper_[j] && d < -kOptimalityTol) return -d;
    if (at_upper_[j] && d > kOptimalityTol && hi_[j] < kInf) return d;
    return 0;
  }

  bool Eligible(int j) const {
    return basic_row_[j] < 0 && lo_[j] < hi_[j];
  }

  // Deep self-audit of the tableau (debug builds, at every refactorization
  // and at the end of every optimal solve): basis/position bijection,
  // nonbasic upper-bound statuses only on boxed columns, bounded eta file,
  // and a B·B^-1 probe — FTRAN of a few basis columns must reproduce unit
  // vectors up to a residual bound (a decayed or mispatched factorization
  // shows up here).
  void AuditTableauState() const {
    constexpr auto kCat = audit::Category::kBasis;
    SLP_AUDIT_CHECK(kCat, static_cast<int>(basis_.size()) == m_,
                    "basis has " + std::to_string(basis_.size()) +
                        " positions for " + std::to_string(m_) + " rows");
    int basic_count = 0;
    for (int c = 0; c < total_cols_; ++c) {
      const int p = basic_row_[c];
      if (p >= 0) {
        ++basic_count;
        SLP_AUDIT_CHECK(kCat, p < m_ && basis_[p] == c,
                        "basic_row/basis bijection broken at column " +
                            std::to_string(c));
      } else {
        SLP_AUDIT_CHECK(kCat, !at_upper_[c] || hi_[c] < kInf,
                        "nonbasic column " + std::to_string(c) +
                            " at upper with infinite bound");
      }
    }
    SLP_AUDIT_CHECK(kCat, basic_count == m_,
                    std::to_string(basic_count) + " basic columns for " +
                        std::to_string(m_) + " rows");
    SLP_AUDIT_CHECK(kCat, factor_.eta_count() <= options_.max_eta,
                    "eta file length " +
                        std::to_string(factor_.eta_count()) +
                        " exceeds max_eta " +
                        std::to_string(options_.max_eta));
    // B·B^-1 unit-vector probe on a few spread positions.
    ScatterVec probe;
    probe.Resize(m_);
    const int samples = std::min(m_, 4);
    for (int k = 0; k < samples; ++k) {
      const int p = static_cast<int>(
          (static_cast<int64_t>(k) * m_) / samples);
      const int c = basis_[p];
      probe.Clear();
      double colnorm = 0;
      for (int e = col_start_[c]; e < col_start_[c + 1]; ++e) {
        probe.Add(entry_row_[e], entry_coef_[e]);
        colnorm = std::max(colnorm, std::abs(entry_coef_[e]));
      }
      factor_.Ftran(&probe, kDensityThreshold);
      const double tol = 1e-6 * (1 + colnorm);
      double err = 0;
      for (int i = 0; i < m_; ++i) {
        const double want = i == p ? 1.0 : 0.0;
        err = std::max(err, std::abs(probe.val[i] - want));
      }
      SLP_AUDIT_CHECK(kCat, err <= tol,
                      "B·B^-1 residual " + std::to_string(err) +
                          " at position " + std::to_string(p));
    }
  }

  // One phase of primal simplex on the current costs; every linear-algebra
  // step runs through the LU+eta factorization with sparse right-hand
  // sides.
  SolveStatus Iterate(int max_iters, int* iteration_counter) {
    int since_recompute = 0;
    int since_refactor = 0;
    int stall = 0;
    bool bland = false;
    bool verified = false;  // optimality confirmed with fresh duals
    double last_obj = CurrentObjective();
    int price_cursor = 0;

    while (true) {
      if (*iteration_counter >= max_iters) return SolveStatus::kIterationLimit;

      // ---- Pricing ----
      int q = -1;
      double best_delta = 0;
      if (bland) {
        for (int j = 0; j < total_cols_; ++j) {
          if (!Eligible(j)) continue;
          if (EnteringDelta(j, ReducedCost(j)) > 0) {
            q = j;
            break;
          }
        }
      } else {
        // Small partial-pricing sections: the rotating cursor already gives
        // every column a regular turn, so a narrow window changes the pivot
        // sequence only marginally while making each pricing pass cheap.
        const int window = std::max(200, total_cols_ / 32);
        int scanned = 0;
        int j = price_cursor;
        while (scanned < total_cols_) {
          if (Eligible(j)) {
            const double delta = EnteringDelta(j, ReducedCost(j));
            if (delta > best_delta) {
              best_delta = delta;
              q = j;
            }
          }
          ++scanned;
          ++j;
          if (j >= total_cols_) j = 0;
          if (q >= 0 && scanned >= window) break;
        }
        price_cursor = j;
      }
      if (q < 0) {
        if (verified) return SolveStatus::kOptimal;
        ComputeBasicValues();
        RecomputeDuals();
        verified = true;
        continue;
      }
      verified = false;

      ++(*iteration_counter);

      // ---- FTRAN: w = B^-1 A_q (position space) ----
      w_vec_.Clear();
      for (int p = col_start_[q]; p < col_start_[q + 1]; ++p) {
        w_vec_.Add(entry_row_[p], entry_coef_[p]);
      }
      factor_.Ftran(&w_vec_, kDensityThreshold);
      ftran_density_sum_ +=
          static_cast<double>(w_vec_.nnz()) / std::max(1, m_);
      ++ftran_count_;

      const double d_q = ReducedCost(q);
      const double sigma = at_upper_[q] ? -1.0 : 1.0;

      // ---- Ratio test (over the nonzeros of w) ----
      double theta = (hi_[q] < kInf) ? hi_[q] - lo_[q] : kInf;  // bound flip
      int leave = -1;          // basis *position* of leaving variable
      double leave_pivot = 0;  // w[leave]
      bool leave_at_upper = false;
      auto ratio_visit = [&](int i, double wi) {
        const double delta = sigma * wi;
        if (std::abs(delta) <= kPivotTol) return;
        const int bcol = basis_[i];
        double limit;
        bool hits_upper;
        if (delta > 0) {
          limit = (xval_[bcol] - lo_[bcol]) / delta;
          hits_upper = false;
        } else {
          if (hi_[bcol] >= kInf) return;
          limit = (hi_[bcol] - xval_[bcol]) / (-delta);
          hits_upper = true;
        }
        if (limit < 0) limit = 0;
        const bool better =
            limit < theta - 1e-10 ||
            (limit < theta + 1e-10 && leave >= 0 &&
             (bland ? bcol < basis_[leave]
                    : std::abs(wi) > std::abs(leave_pivot)));
        if (better || (leave < 0 && limit < theta - 1e-10)) {
          theta = std::min(theta, limit);
          leave = i;
          leave_pivot = wi;
          leave_at_upper = hits_upper;
        }
      };
      if (w_vec_.dense) {
        for (int i = 0; i < m_; ++i) {
          if (w_vec_.val[i] != 0) ratio_visit(i, w_vec_.val[i]);
        }
      } else {
        for (int i : w_vec_.idx) {
          if (w_vec_.val[i] != 0) ratio_visit(i, w_vec_.val[i]);
        }
      }

      if (theta >= kInf) return SolveStatus::kUnbounded;
      if (theta == 0) ++stats_.degenerate_pivots;
      if (bland) ++stats_.bland_pivots;

      // ---- Apply the step ----
      if (theta > 0) {
        auto step_visit = [&](int i, double wi) {
          xval_[basis_[i]] -= sigma * theta * wi;
        };
        if (w_vec_.dense) {
          for (int i = 0; i < m_; ++i) {
            if (w_vec_.val[i] != 0) step_visit(i, w_vec_.val[i]);
          }
        } else {
          for (int i : w_vec_.idx) {
            if (w_vec_.val[i] != 0) step_visit(i, w_vec_.val[i]);
          }
        }
      }

      if (leave < 0) {
        // Bound flip: q moves to its opposite bound; basis unchanged.
        at_upper_[q] = !at_upper_[q];
        xval_[q] = at_upper_[q] ? hi_[q] : lo_[q];
      } else {
        const int lcol = basis_[leave];
        xval_[q] = (at_upper_[q] ? hi_[q] : lo_[q]) + sigma * theta;
        xval_[lcol] = leave_at_upper ? hi_[lcol] : lo_[lcol];
        at_upper_[lcol] = leave_at_upper;
        basis_[leave] = q;
        basic_row_[q] = leave;
        basic_row_[lcol] = -1;

        // ---- Update the factorization (append one eta) ----
        factor_.AppendEta(w_vec_, leave);
        stats_.max_eta_length =
            std::max(stats_.max_eta_length, factor_.eta_count());

        // Incremental dual update: y += d_q * (B_new^-T e_leave), the
        // sparse-BTRAN analogue of adding the new Binv row.
        rho_.Clear();
        rho_.Set(leave, 1.0);
        factor_.Btran(&rho_, kDensityThreshold);
        if (rho_.dense) {
          for (int k = 0; k < m_; ++k) y_[k] += d_q * rho_.val[k];
        } else {
          for (int k : rho_.idx) y_[k] += d_q * rho_.val[k];
        }

        ++since_recompute;
        ++since_refactor;
      }

      // ---- Housekeeping ----
      // Refactorize on eta-file length, eta fill relative to the LU, or the
      // (large) hard pivot cadence; recompute state on the usual interval
      // and escalate to a refactorization if the residual probe says the
      // eta chain has gone unstable.
      const bool need_refactor =
          since_refactor > 0 &&
          (factor_.eta_count() >= options_.max_eta ||
           factor_.eta_nnz() >
               options_.eta_fill_factor * factor_.lu_nnz() ||
           since_refactor >= kRefactorInterval);
      if (need_refactor) {
        Refactorize();
        ComputeBasicValues();
        RecomputeDuals();
        since_refactor = 0;
        since_recompute = 0;
      } else if (since_recompute >= kRecomputeInterval) {
        const double resid = ComputeBasicValues();
        if (resid > 1e-6 * (1 + rhs_norm_) && since_refactor > 0) {
          Refactorize();
          ComputeBasicValues();
          since_refactor = 0;
        }
        RecomputeDuals();
        since_recompute = 0;
      }

      const double obj = CurrentObjective();
      if (obj < last_obj - 1e-12) {
        stall = 0;
        last_obj = obj;
      } else if (++stall > options_.stall_threshold && !bland) {
        bland = true;  // guarantee termination on degenerate instances
        RecomputeDuals();
      }
    }
  }

  const SimplexOptions options_;
  const int m_;  // rows

  // Sparse columns, contiguous across [structural | slack | artificial].
  std::vector<int> col_start_;
  std::vector<int> entry_row_;
  std::vector<double> entry_coef_;
  std::vector<double> lo_, hi_, cost_, xval_;
  std::vector<bool> at_upper_;
  std::vector<double> rhs_;
  double rhs_norm_ = 0;

  int num_struct_ = 0;
  int art_begin_ = 0;
  int total_cols_ = 0;
  int num_art_ = 0;
  std::vector<int> slack_col_of_row_;

  std::vector<int> basis_;      // basis_[position] = column at that position
  std::vector<int> basic_row_;  // inverse map, -1 when nonbasic
  std::vector<double> y_;       // duals (row space)

  BasisFactorization factor_;
  ScatterVec w_vec_;   // FTRAN of the entering column
  ScatterVec rho_;     // BTRAN unit vector for the dual update
  ScatterVec cb_;      // BTRAN of c_B
  ScatterVec rhs_work_;
  std::vector<double> resid_scratch_;

  SolverStats stats_;
  double ftran_density_sum_ = 0;
  int64_t ftran_count_ = 0;
};

}  // namespace

LpSolution SimplexSolver::Solve(const LpProblem& problem) const {
  SLP_DCHECK(problem.num_constraints() > 0);
  SLP_DCHECK(problem.num_vars() > 0);
  WallTimer timer;
  SparseTableau tableau(problem, options_);
  LpSolution solution = tableau.Run(problem);
  solution.stats.pivots = solution.iterations;
  solution.stats.solve_seconds = timer.Seconds();
  return solution;
}

}  // namespace slp::lp
