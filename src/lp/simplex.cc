#include "src/lp/simplex.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
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
// Reduced-cost tolerance for pricing and dual feasibility.
constexpr double kOptimalityTol = 1e-7;
// Smallest |pivot| the primal and dual ratio tests accept.
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
//
// Warm start: a Basis hint seeds basis_/at_upper_, the crashed basis is
// factorized (numerically dependent columns are repaired with pinned
// artificials), and x_B is computed. If the crashed point is primal
// feasible, phase 1 is skipped entirely; otherwise a few feasibility-
// restoration rounds run (out-of-bound basic variables get a working box
// [bound, x] and a +-1 surrogate cost driving them back inside; everything
// else keeps its true bounds, so feasible variables stay feasible). If
// restoration stalls, the engine falls back to a cold two-phase start —
// warm starting is an accelerator, never a correctness risk.
class SparseTableau {
 public:
  SparseTableau(const LpProblem& problem, const SimplexOptions& options,
                const Basis* hint)
      : options_(options), m_(problem.num_constraints()) {
    BuildColumns(problem);
    bool tried_warm = false;
    if (hint != nullptr && !hint->empty() &&
        hint->CompatibleWith(problem.num_vars(), m_)) {
      tried_warm = true;
      warm_ok_ = TryWarmStart(*hint);
    }
    if (!warm_ok_) {
      if (tried_warm) ResetModel(problem);  // discard partial crash state
      InitCold(problem);
    }
  }

  LpSolution Run(const LpProblem& problem) {
    LpSolution solution;
    const int max_iters = options_.max_iterations > 0
                              ? options_.max_iterations
                              : std::max(20000, 50 * m_);

    // ---- Reach primal feasibility ----
    if (warm_ok_) {
      stats_.warm_started = true;
      bool feasible = CountViolations() == 0;
      stats_.warm_feasible = feasible;
      for (int round = 0; round < 3 && !feasible; ++round) {
        ++stats_.warm_restoration_rounds;
        std::vector<SavedBound> saved;
        BoxViolators(&saved);
        RecomputeDuals();
        const SolveStatus st = Iterate(max_iters, &solution.iterations);
        RestoreTrueBounds(saved);
        if (st == SolveStatus::kIterationLimit) {
          solution.status = st;
          return Finish(std::move(solution));
        }
        if (st != SolveStatus::kOptimal) break;
        feasible = CountViolations() == 0;
      }
      if (!feasible) {
        // Restoration could not reach the true bounds: discard the hint and
        // cold-start so infeasibility is decided by the real phase 1. Keep
        // the warm accounting so the caller can see the hint was accepted
        // but ultimately useless (the fallback used to be silent).
        const SolverStats warm_trail = stats_;
        stats_ = SolverStats{};
        // The pivot count carries over the restart, and so do its parts.
        stats_.degenerate_pivots = warm_trail.degenerate_pivots;
        stats_.bland_pivots = warm_trail.bland_pivots;
        stats_.warm_started = warm_trail.warm_started;
        stats_.warm_restoration_rounds = warm_trail.warm_restoration_rounds;
        stats_.warm_fell_back_cold = true;
        warm_ok_ = false;
        ResetModel(problem);
        InitCold(problem);
      }
    }
    if (!warm_ok_ && num_art_ > 0) {
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
    ExportBasis(&solution.basis);
    return Finish(std::move(solution));
  }

  // Dual-simplex re-solve from the crashed hint basis. Returns nullopt when
  // the caller should fall back to the primal warm-start path: the hint was
  // rejected, the crashed basis is not dual-feasible (and bound flips can't
  // make it so), the dual loop stalls or breaks down numerically, or it
  // detects infeasibility (the primal phase 1 stays the only authority that
  // declares a problem infeasible). stats() then holds the dual pivots and
  // bound flips the abandoned attempt took.
  std::optional<LpSolution> RunDual(const LpProblem& problem) {
    if (!warm_ok_) return std::nullopt;
    LpSolution solution;
    const int max_iters = options_.max_iterations > 0
                              ? options_.max_iterations
                              : std::max(20000, 50 * m_);
    stats_.warm_started = true;
    stats_.warm_feasible = CountViolations() == 0;
    SetPhase2Costs(problem);
    RecomputeDuals();
    if (!RestoreDualFeasibility()) return std::nullopt;
    stats_.dual_used = true;

    const std::optional<SolveStatus> st =
        IterateDual(max_iters, &solution.iterations);
    if (!st.has_value()) return std::nullopt;
    solution.status = *st;
    if (*st != SolveStatus::kOptimal) return Finish(std::move(solution));

    solution.x.assign(xval_.begin(), xval_.begin() + num_struct_);
    solution.objective = 0;
    for (int j = 0; j < num_struct_; ++j) {
      solution.objective += problem.obj(j) * solution.x[j];
    }
    RecomputeDuals();
    solution.duals = y_;
    ExportBasis(&solution.basis);
    return Finish(std::move(solution));
  }

  const SolverStats& stats() const { return stats_; }

 private:
  struct SavedBound {
    int col;
    double lo;
    double hi;
  };

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
    entry_row_.clear();
    entry_coef_.clear();
    lo_.clear();
    hi_.clear();
    for (int j = 0; j < num_struct_; ++j) {
      for (int p = cols.col_start[j]; p < cols.col_start[j + 1]; ++p) {
        entry_row_.push_back(cols.row[p]);
        entry_coef_.push_back(cols.coef[p]);
      }
      col_start_.push_back(static_cast<int>(entry_row_.size()));
      lo_.push_back(problem.lo(j));
      hi_.push_back(problem.hi(j));
    }

    slack_begin_ = num_struct_;
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

  // Drops warm-start artificials and restores the pristine column set.
  void ResetModel(const LpProblem& problem) { BuildColumns(problem); }

  // Appends an artificial column `coef`·e_row with bounds [lo, hi].
  int AddArtificial(int row, double coef, double lo, double hi) {
    entry_row_.push_back(row);
    entry_coef_.push_back(coef);
    col_start_.push_back(static_cast<int>(entry_row_.size()));
    lo_.push_back(lo);
    hi_.push_back(hi);
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
        basis_[i] = AddArtificial(i, coef, 0, kInf);
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

  // Crash the basis from a hint. Returns false (leaving partially mutated
  // state for ResetModel to discard) when the hint can't produce a full
  // basis. Repairs from the factorization get pinned artificials; any
  // resulting bound violations are handled by the restoration rounds.
  bool TryWarmStart(const Basis& hint) {
    std::vector<int> basic_cols;
    basic_cols.reserve(m_);
    for (int j = 0; j < num_struct_; ++j) {
      switch (hint.structural[j]) {
        case VarStatus::kBasic:
          basic_cols.push_back(j);
          break;
        case VarStatus::kAtUpper:
          if (hi_[j] < kInf) {
            xval_[j] = hi_[j];
            at_upper_[j] = true;
          } else {
            xval_[j] = lo_[j];
          }
          break;
        case VarStatus::kAtLower:
          xval_[j] = lo_[j];
          break;
      }
    }
    for (int i = 0; i < m_; ++i) {
      if (hint.logical[i] != VarStatus::kBasic) continue;
      const int sc = slack_col_of_row_[i];
      // Equality rows have no slack column; stand in a pinned artificial
      // (bounds [0,0]) whose unit column matches what the row contributes.
      basic_cols.push_back(sc >= 0 ? sc : AddArtificial(i, 1.0, 0, 0));
    }
    if (static_cast<int>(basic_cols.size()) != m_) return false;

    basis_ = std::move(basic_cols);
    basic_row_.assign(total_cols_, -1);
    for (int p = 0; p < m_; ++p) basic_row_[basis_[p]] = p;

    const auto repairs = factor_.Factorize(col_start_, entry_row_, entry_coef_,
                                           basis_, m_, kFactorPivotEps);
    ++stats_.refactorizations;
    for (const auto& rep : repairs) {
      // The dependent column leaves the (repaired) basis at its lower bound;
      // the factorization already substituted e_row, so point the position
      // at a matching pinned artificial.
      const int old_col = basis_[rep.position];
      basic_row_[old_col] = -1;
      at_upper_[old_col] = false;
      xval_[old_col] = lo_[old_col];
      const int ac = AddArtificial(rep.row, 1.0, 0, 0);
      basis_[rep.position] = ac;
      basic_row_.push_back(rep.position);
    }
    ComputeBasicValues();
    return true;
  }

  void SetPhase1Costs() {
    cost_.assign(total_cols_, 0.0);
    for (int j = art_begin_; j < total_cols_; ++j) cost_[j] = 1.0;
  }

  void SetPhase2Costs(const LpProblem& problem) {
    cost_.assign(total_cols_, 0.0);
    for (int j = 0; j < num_struct_; ++j) cost_[j] = problem.obj(j);
  }

  double FeasTol() const {
    return kFeasibilityTol * (1 + rhs_norm_);
  }

  int CountViolations() const {
    const double tol = FeasTol();
    int count = 0;
    for (int c = 0; c < total_cols_; ++c) {
      if (xval_[c] > hi_[c] + tol || xval_[c] < lo_[c] - tol) ++count;
    }
    return count;
  }

  // Gives every out-of-bounds variable a working box [violated bound, x] and
  // a +-1 surrogate cost pulling it back toward its true range; everything
  // else keeps cost 0 and true bounds. Minimizing the surrogate is then
  // exactly minimizing total bound violation within the boxes.
  void BoxViolators(std::vector<SavedBound>* saved) {
    cost_.assign(total_cols_, 0.0);
    const double tol = FeasTol();
    for (int c = 0; c < total_cols_; ++c) {
      const double x = xval_[c];
      if (x > hi_[c] + tol) {
        saved->push_back({c, lo_[c], hi_[c]});
        cost_[c] = 1.0;
        lo_[c] = hi_[c];
        hi_[c] = x;
        if (basic_row_[c] < 0) at_upper_[c] = true;
      } else if (x < lo_[c] - tol) {
        saved->push_back({c, lo_[c], hi_[c]});
        cost_[c] = -1.0;
        hi_[c] = lo_[c];
        lo_[c] = x;
        if (basic_row_[c] < 0) at_upper_[c] = false;
      }
    }
  }

  void RestoreTrueBounds(const std::vector<SavedBound>& saved) {
    for (const SavedBound& s : saved) {
      lo_[s.col] = s.lo;
      hi_[s.col] = s.hi;
      if (basic_row_[s.col] < 0) {
        // Snap the nonbasic status to the nearer true bound.
        at_upper_[s.col] =
            s.hi < kInf &&
            std::abs(xval_[s.col] - s.hi) <= std::abs(xval_[s.col] - s.lo);
      }
    }
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

  void ExportBasis(Basis* out) const {
#if SLP_AUDITS_ENABLED
    AuditTableauState();
#endif
    out->structural.resize(num_struct_);
    for (int j = 0; j < num_struct_; ++j) {
      out->structural[j] = basic_row_[j] >= 0 ? VarStatus::kBasic
                           : at_upper_[j]     ? VarStatus::kAtUpper
                                              : VarStatus::kAtLower;
    }
    out->logical.assign(m_, VarStatus::kAtLower);
    for (int p = 0; p < m_; ++p) {
      const int c = basis_[p];
      if (c < num_struct_) continue;
      out->logical[entry_row_[col_start_[c]]] = VarStatus::kBasic;
    }
  }

  // Deep self-audit of the tableau (debug builds, factorization/export
  // boundaries): basis/position bijection, nonbasic upper-bound statuses
  // only on boxed columns, bounded eta file, and a B·B^-1 probe — FTRAN
  // of a few basis columns must reproduce unit vectors up to a residual
  // bound (a decayed or mispatched factorization shows up here).
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

  // Applies a batch of nonbasic value changes to the basic variables: the
  // accumulated Δ(N·x_N) sits in rhs_work_ (row space); one FTRAN maps it
  // to basis positions and x_B absorbs the negated result.
  void ApplyNonbasicDeltas() {
    factor_.Ftran(&rhs_work_, kDensityThreshold);
    if (rhs_work_.dense) {
      for (int i = 0; i < m_; ++i) {
        if (rhs_work_.val[i] != 0) xval_[basis_[i]] -= rhs_work_.val[i];
      }
    } else {
      for (int i : rhs_work_.idx) {
        if (rhs_work_.val[i] != 0) xval_[basis_[i]] -= rhs_work_.val[i];
      }
    }
  }

  // Makes the current point dual-feasible for the current costs by
  // bound-flipping nonbasic boxed variables whose reduced cost has the
  // wrong sign (rhs edits never break dual feasibility, but objective
  // edits and dual drift after a recompute can). Returns false when an
  // offender has an infinite opposite bound — no flip can fix it and the
  // caller must fall back to the primal path.
  bool RestoreDualFeasibility() {
    const double dtol = kOptimalityTol;
    rhs_work_.Clear();
    bool flipped = false;
    for (int j = 0; j < total_cols_; ++j) {
      if (basic_row_[j] >= 0 || lo_[j] >= hi_[j]) continue;
      const double d = ReducedCost(j);
      double dx = 0;
      if (!at_upper_[j] && d < -dtol) {
        if (hi_[j] >= kInf) return false;
        dx = hi_[j] - lo_[j];
        at_upper_[j] = true;
        xval_[j] = hi_[j];
      } else if (at_upper_[j] && d > dtol) {
        dx = lo_[j] - hi_[j];
        at_upper_[j] = false;
        xval_[j] = lo_[j];
      } else {
        continue;
      }
      ++stats_.bound_flips;
      flipped = true;
      for (int p = col_start_[j]; p < col_start_[j + 1]; ++p) {
        rhs_work_.Add(entry_row_[p], entry_coef_[p] * dx);
      }
    }
    if (flipped) ApplyNonbasicDeltas();
    return true;
  }

  // Bounded-variable dual simplex pivot loop on the shared LU/eta kernel.
  // Leaving row: largest primal bound violation. Entering: dual ratio test
  // with bound-flipping (a candidate whose box can't absorb the remaining
  // violation flips to its opposite bound and the walk continues) and a
  // Harris-style second pass that breaks near-ties at the breakpoint by
  // pivot magnitude. Returns nullopt whenever the primal fallback should
  // take over: a dual ray (primal infeasible — phase 1 stays the only
  // authority for that verdict), a stall of degenerate steps, or numerical
  // breakdown.
  std::optional<SolveStatus> IterateDual(int max_iters,
                                         int* iteration_counter) {
    struct Cand {
      int col;
      double ratio;
      double alpha;
    };
    std::vector<Cand> cands;
    int since_recompute = 0;
    int since_refactor = 0;
    int stall = 0;
    int bad_pivots = 0;
    bool verified = false;  // optimality confirmed with fresh values/duals

    while (true) {
      if (*iteration_counter >= max_iters) return SolveStatus::kIterationLimit;

      // ---- Leaving row: largest bound violation among basic variables ----
      const double ptol = FeasTol();
      int r = -1;
      double delta = 0;  // signed violation of the leaving variable
      for (int p = 0; p < m_; ++p) {
        const int c = basis_[p];
        double v = 0;
        if (xval_[c] < lo_[c] - ptol) {
          v = xval_[c] - lo_[c];
        } else if (xval_[c] > hi_[c] + ptol) {
          v = xval_[c] - hi_[c];
        }
        if (std::abs(v) > std::abs(delta)) {
          delta = v;
          r = p;
        }
      }
      if (r < 0) {
        // Primal feasible. Like the primal loop, confirm on fresh numbers
        // (and re-check dual feasibility, which drifts with the duals).
        if (verified) return SolveStatus::kOptimal;
        ComputeBasicValues();
        RecomputeDuals();
        if (!RestoreDualFeasibility()) return std::nullopt;
        verified = true;
        continue;
      }
      verified = false;
      const double sign_r = delta > 0 ? 1.0 : -1.0;

      // ---- BTRAN: rho = B^-T e_r (row space) ----
      rho_.Clear();
      rho_.Set(r, 1.0);
      factor_.Btran(&rho_, kDensityThreshold);

      // ---- Dual ratio test candidates: alpha_j = rho · a_j ----
      // A candidate blocks the dual step when its reduced cost would cross
      // zero: at-lower columns with sign_r·alpha > 0, at-upper columns with
      // sign_r·alpha < 0, at ratio d_j / (sign_r·alpha_j) ≥ 0.
      cands.clear();
      for (int j = 0; j < total_cols_; ++j) {
        if (basic_row_[j] >= 0 || lo_[j] >= hi_[j]) continue;
        double alpha = 0;
        for (int p = col_start_[j]; p < col_start_[j + 1]; ++p) {
          alpha += rho_.val[entry_row_[p]] * entry_coef_[p];
        }
        const double abar = sign_r * alpha;
        if (!at_upper_[j] && abar > kPivotTol) {
          const double d = std::max(0.0, ReducedCost(j));
          cands.push_back({j, d / abar, alpha});
        } else if (at_upper_[j] && abar < -kPivotTol) {
          const double d = std::min(0.0, ReducedCost(j));
          cands.push_back({j, d / abar, alpha});
        }
      }
      if (cands.empty()) return std::nullopt;  // dual ray: primal infeasible
      std::sort(cands.begin(), cands.end(),
                [](const Cand& a, const Cand& b) { return a.ratio < b.ratio; });

      // ---- BFRT walk: flip boxed candidates whose box can't absorb the
      // remaining violation; the first that can absorbs it and enters. ----
      double remaining = std::abs(delta);
      size_t pick = cands.size();
      size_t flip_end = 0;
      for (size_t ci = 0; ci < cands.size(); ++ci) {
        const int j = cands[ci].col;
        const double absorb =
            hi_[j] < kInf ? (hi_[j] - lo_[j]) * std::abs(cands[ci].alpha)
                          : kInf;
        if (absorb < remaining) {
          remaining -= absorb;
          flip_end = ci + 1;
        } else {
          pick = ci;
          break;
        }
      }
      // Every box exhausted with violation left over: dual ray again.
      if (pick == cands.size()) return std::nullopt;
      // Harris-style second pass: among near-tied ratios at the breakpoint,
      // enter the column with the largest pivot magnitude. Skipped-over
      // ties keep a reduced-cost violation below the tolerance window.
      const double ratio_limit =
          cands[pick].ratio + 1e-9 * (1 + std::abs(cands[pick].ratio));
      size_t best = pick;
      for (size_t ci = pick + 1; ci < cands.size(); ++ci) {
        if (cands[ci].ratio > ratio_limit) break;
        if (std::abs(cands[ci].alpha) > std::abs(cands[best].alpha)) best = ci;
      }
      const int q = cands[best].col;
      const double alpha_q = cands[best].alpha;
      const double d_q = ReducedCost(q);

      // ---- FTRAN the entering column ----
      w_vec_.Clear();
      for (int p = col_start_[q]; p < col_start_[q + 1]; ++p) {
        w_vec_.Add(entry_row_[p], entry_coef_[p]);
      }
      factor_.Ftran(&w_vec_, kDensityThreshold);
      ftran_density_sum_ +=
          static_cast<double>(w_vec_.nnz()) / std::max(1, m_);
      ++ftran_count_;
      const double pivot = w_vec_.val[r];
      // The FTRAN pivot must agree with the BTRAN alpha; a decayed eta
      // chain shows up here. Refactorize and retry once on fresh numbers.
      if (std::abs(pivot) <= kPivotTol ||
          std::abs(pivot - alpha_q) >
              1e-5 * (1 + std::abs(pivot) + std::abs(alpha_q))) {
        if (++bad_pivots > 2 || since_refactor == 0) return std::nullopt;
        Refactorize();
        ComputeBasicValues();
        RecomputeDuals();
        since_refactor = 0;
        since_recompute = 0;
        continue;
      }
      bad_pivots = 0;

      // ---- Apply the bound flips (batched: one FTRAN for all) ----
      if (flip_end > 0) {
        rhs_work_.Clear();
        for (size_t ci = 0; ci < flip_end; ++ci) {
          const int j = cands[ci].col;
          const double dx = at_upper_[j] ? lo_[j] - hi_[j] : hi_[j] - lo_[j];
          at_upper_[j] = !at_upper_[j];
          xval_[j] = at_upper_[j] ? hi_[j] : lo_[j];
          ++stats_.bound_flips;
          for (int p = col_start_[j]; p < col_start_[j + 1]; ++p) {
            rhs_work_.Add(entry_row_[p], entry_coef_[p] * dx);
          }
        }
        ApplyNonbasicDeltas();
      }

      // ---- Pivot: q enters at position r; the leaving variable snaps to
      // its violated bound. ----
      const int lcol = basis_[r];
      const double bound_r = sign_r > 0 ? hi_[lcol] : lo_[lcol];
      const double theta_p = (xval_[lcol] - bound_r) / pivot;
      auto step_visit = [&](int i, double wi) {
        xval_[basis_[i]] -= theta_p * wi;
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
      xval_[q] = (at_upper_[q] ? hi_[q] : lo_[q]) + theta_p;
      xval_[lcol] = bound_r;
      at_upper_[lcol] = sign_r > 0;
      basis_[r] = q;
      basic_row_[q] = r;
      basic_row_[lcol] = -1;

      factor_.AppendEta(w_vec_, r);
      stats_.max_eta_length =
          std::max(stats_.max_eta_length, factor_.eta_count());

      // ---- Dual update: y += (d_q / alpha_q) · rho, the step that zeroes
      // the entering column's reduced cost. ----
      const double tstep = d_q / alpha_q;
      if (rho_.dense) {
        for (int k = 0; k < m_; ++k) y_[k] += tstep * rho_.val[k];
      } else {
        for (int k : rho_.idx) y_[k] += tstep * rho_.val[k];
      }

      ++(*iteration_counter);
      ++stats_.dual_pivots;
      ++since_recompute;
      ++since_refactor;

      // Degenerate dual steps make no progress; a long run of them means
      // the max-infeasibility rule is cycling — let the primal path (with
      // its Bland safeguard) finish instead.
      if (std::abs(tstep) <= 1e-12) {
        ++stats_.degenerate_pivots;
        if (++stall > options_.stall_threshold) return std::nullopt;
      } else {
        stall = 0;
      }

      // ---- Housekeeping (same triggers as the primal loop) ----
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
        if (!RestoreDualFeasibility()) return std::nullopt;
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
        if (!RestoreDualFeasibility()) return std::nullopt;
        since_recompute = 0;
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
  int slack_begin_ = 0;
  int art_begin_ = 0;
  int total_cols_ = 0;
  int num_art_ = 0;
  std::vector<int> slack_col_of_row_;
  bool warm_ok_ = false;

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

LpSolution SimplexSolver::Solve(const LpProblem& problem,
                                const Basis* hint) const {
  SLP_DCHECK(problem.num_constraints() > 0);
  SLP_DCHECK(problem.num_vars() > 0);
  WallTimer timer;
  SparseTableau tableau(problem, options_, hint);
  LpSolution solution = tableau.Run(problem);
  solution.stats.pivots = solution.iterations;
  solution.stats.solve_seconds = timer.Seconds();
  return solution;
}

LpSolution SimplexSolver::ResolveDual(const LpProblem& problem,
                                      const Basis& hint) const {
  SLP_DCHECK(problem.num_constraints() > 0);
  SLP_DCHECK(problem.num_vars() > 0);
  WallTimer timer;
  SolverStats abandoned;  // the dual attempt's counters, if it gives up
  if (!hint.empty() &&
      hint.CompatibleWith(problem.num_vars(), problem.num_constraints())) {
    SparseTableau tableau(problem, options_, &hint);
    std::optional<LpSolution> solution = tableau.RunDual(problem);
    if (solution.has_value()) {
      solution->stats.pivots = solution->iterations;
      solution->stats.solve_seconds = timer.Seconds();
      return *std::move(solution);
    }
    abandoned = tableau.stats();
  }
  // Primal fallback: warm-start from the hint. Never a correctness risk,
  // only a slower path. The abandoned dual work still counts: every pivot
  // it took was a dual pivot.
  LpSolution solution = Solve(problem, &hint);
  solution.iterations += abandoned.dual_pivots;
  solution.stats.pivots = solution.iterations;
  solution.stats.dual_pivots = abandoned.dual_pivots;
  solution.stats.degenerate_pivots += abandoned.degenerate_pivots;
  solution.stats.bound_flips = abandoned.bound_flips;
  solution.stats.dual_fallback = true;
  solution.stats.solve_seconds = timer.Seconds();
  return solution;
}

void AuditBasis(const Basis& basis, const LpProblem& problem) {
  constexpr auto kCat = audit::Category::kBasis;
  const int n = problem.num_vars();
  const int m = problem.num_constraints();
  SLP_AUDIT_CHECK(kCat, static_cast<int>(basis.structural.size()) == n,
                  "basis has " + std::to_string(basis.structural.size()) +
                      " structural statuses for " + std::to_string(n) +
                      " variables");
  SLP_AUDIT_CHECK(kCat, static_cast<int>(basis.logical.size()) == m,
                  "basis has " + std::to_string(basis.logical.size()) +
                      " logical statuses for " + std::to_string(m) +
                      " constraints");
  int basic_count = 0;
  for (int j = 0; j < n && j < static_cast<int>(basis.structural.size());
       ++j) {
    const VarStatus st = basis.structural[j];
    if (st == VarStatus::kBasic) ++basic_count;
    SLP_AUDIT_CHECK(kCat,
                    st != VarStatus::kAtUpper || problem.hi(j) < kInfinity,
                    "variable " + std::to_string(j) +
                        " at upper with infinite upper bound");
  }
  for (const VarStatus st : basis.logical) {
    if (st == VarStatus::kBasic) ++basic_count;
    // ExportBasis's contract: logicals are reported kBasic or kAtLower.
    SLP_AUDIT_CHECK(kCat, st != VarStatus::kAtUpper,
                    "logical variable at upper bound");
  }
  SLP_AUDIT_CHECK(kCat, basic_count == m,
                  std::to_string(basic_count) + " basic variables for " +
                      std::to_string(m) + " constraints");
}

}  // namespace slp::lp
