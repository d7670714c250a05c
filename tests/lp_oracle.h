// Engine-independent certificates for LP verdicts, plus the random LP
// families the LP suites share.
//
// Each certificate judges a SimplexSolver verdict from the problem data
// alone and returns a ::testing::AssertionResult, so a test can assert it
// true on the solver's answers and false on forged ones:
//  * kOptimal: a KKT certificate on the reported (x, duals) — primal
//    feasibility, reduced-cost signs against bound complementarity,
//    row-dual signs against row tightness, and a near-zero duality gap.
//  * kInfeasible: the phase-1 elastic LP (p's box and rows plus one
//    nonnegative cost-1 column per side a row can be violated on) is
//    always feasible and bounded below by 0. Its solve must pass the KKT
//    certificate, and its optimum, the least total row violation over
//    p's box, must be positive.
//  * kUnbounded: a feasible point (the elastic optimum is 0 and its x
//    satisfies p) and an improving recession direction d (d >= 0 on
//    columns with an infinite upper bound, d = 0 on boxed ones, every row
//    of p holding at rhs 0, and c·d < 0).
// The elastic and direction LPs are solved by SimplexSolver too, but every
// number taken from those solves is re-checked against the data, so a
// solver bug would have to forge a valid certificate to pass.

#ifndef SLP_TESTS_LP_ORACLE_H_
#define SLP_TESTS_LP_ORACLE_H_

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/random.h"
#include "src/lp/lp_problem.h"
#include "src/lp/simplex.h"

namespace slp::test {

// Absolute tolerance on bounds, rows and the infeasibility margin.
inline constexpr double kLpTol = 1e-6;

// How far lhs lies on the wrong side of a row with the given sense and
// rhs; <= 0 when the row holds. NaN stays NaN.
inline double RowExcess(lp::Sense sense, double lhs, double rhs) {
  switch (sense) {
    case lp::Sense::kLessEqual: return lhs - rhs;
    case lp::Sense::kGreaterEqual: return rhs - lhs;
    case lp::Sense::kEqual: return std::abs(lhs - rhs);
  }
  return lhs - rhs;
}

// x satisfies every bound and row of p to within kLpTol.
inline ::testing::AssertionResult LpFeasible(const lp::LpProblem& p,
                                             const std::vector<double>& x) {
  if (static_cast<int>(x.size()) != p.num_vars()) {
    return ::testing::AssertionFailure()
           << "x has " << x.size() << " entries for " << p.num_vars()
           << " variables";
  }
  for (int j = 0; j < p.num_vars(); ++j) {
    if (!(x[j] >= p.lo(j) - kLpTol && x[j] <= p.hi(j) + kLpTol)) {
      return ::testing::AssertionFailure()
             << "var " << j << " = " << x[j] << " outside [" << p.lo(j)
             << ", " << p.hi(j) << "]";
    }
  }
  const std::vector<double> lhs = p.EvaluateRows(x);
  for (int i = 0; i < p.num_constraints(); ++i) {
    if (!(RowExcess(p.sense(i), lhs[i], p.rhs(i)) <= kLpTol)) {
      return ::testing::AssertionFailure()
             << "row " << i << " violated: lhs " << lhs[i] << ", rhs "
             << p.rhs(i);
    }
  }
  return ::testing::AssertionSuccess();
}

// KKT certificate for a claimed optimum. Uses only the problem data and
// the reported (x, duals, objective):
//  * primal feasibility (bounds + rows);
//  * reduced cost d_j = c_j - y·a_j: d_j > 0 forces x_j to its lower
//    bound, d_j < 0 forces it to its (finite) upper bound;
//  * row duals: <= rows need y_i <= 0, >= rows need y_i >= 0, and a
//    nonzero y_i needs the row tight (complementary slackness);
//  * duality gap: c·x = y·b + Σ_j d_j·x_j up to tolerance.
inline ::testing::AssertionResult CertifyOptimal(const lp::LpProblem& p,
                                                 const lp::LpSolution& sol) {
  if (sol.status != lp::SolveStatus::kOptimal) {
    return ::testing::AssertionFailure()
           << "status " << lp::ToString(sol.status) << ", not OPTIMAL";
  }
  if (static_cast<int>(sol.duals.size()) != p.num_constraints()) {
    return ::testing::AssertionFailure()
           << sol.duals.size() << " duals for " << p.num_constraints()
           << " rows";
  }
  if (::testing::AssertionResult feasible = LpFeasible(p, sol.x); !feasible) {
    return feasible;
  }

  const lp::LpProblem::Columns cols = p.BuildColumns();
  constexpr double kDualTol = 1e-5;
  constexpr double kSlackTol = 1e-5;
  double dual_obj = 0;
  for (int i = 0; i < p.num_constraints(); ++i) {
    dual_obj += sol.duals[i] * p.rhs(i);
  }
  for (int j = 0; j < p.num_vars(); ++j) {
    double d = p.obj(j);
    for (int e = cols.col_start[j]; e < cols.col_start[j + 1]; ++e) {
      d -= sol.duals[cols.row[e]] * cols.coef[e];
    }
    const double scale = 1 + std::abs(p.obj(j));
    if (d > kDualTol * scale && !(std::abs(sol.x[j] - p.lo(j)) <= kSlackTol)) {
      return ::testing::AssertionFailure()
             << "var " << j << " has d=" << d << " but x=" << sol.x[j]
             << " is off its lower bound " << p.lo(j);
    }
    if (d < -kDualTol * scale &&
        !(p.hi(j) < lp::kInfinity &&
          std::abs(sol.x[j] - p.hi(j)) <= kSlackTol)) {
      return ::testing::AssertionFailure()
             << "var " << j << " has d=" << d << " but x=" << sol.x[j]
             << " is off its upper bound " << p.hi(j);
    }
    dual_obj += d * sol.x[j];
  }
  const std::vector<double> lhs = p.EvaluateRows(sol.x);
  for (int i = 0; i < p.num_constraints(); ++i) {
    const double y = sol.duals[i];
    const bool tight = std::abs(lhs[i] - p.rhs(i)) <= kSlackTol;
    const bool wrong_sign =
        (p.sense(i) == lp::Sense::kLessEqual && y > kDualTol) ||
        (p.sense(i) == lp::Sense::kGreaterEqual && y < -kDualTol);
    if (wrong_sign || (p.sense(i) != lp::Sense::kEqual &&
                       std::abs(y) > kDualTol && !tight)) {
      return ::testing::AssertionFailure()
             << "row " << i << " has dual " << y << " with lhs " << lhs[i]
             << ", rhs " << p.rhs(i);
    }
  }
  if (!(std::abs(dual_obj - sol.objective) <=
        1e-4 * (1 + std::abs(sol.objective)))) {
    return ::testing::AssertionFailure()
           << "duality gap: objective " << sol.objective << ", dual "
           << dual_obj;
  }
  return ::testing::AssertionSuccess();
}

// Appends p's rows, at p's rhs or (when `homogeneous`) at rhs 0, over the
// first p.num_vars() columns of `out`.
inline void CopyRows(const lp::LpProblem& p, bool homogeneous,
                     lp::LpProblem* out) {
  for (int i = 0; i < p.num_constraints(); ++i) {
    out->AddConstraint(p.sense(i), homogeneous ? 0.0 : p.rhs(i));
  }
  const lp::LpProblem::Columns cols = p.BuildColumns();
  for (int j = 0; j < p.num_vars(); ++j) {
    for (int e = cols.col_start[j]; e < cols.col_start[j + 1]; ++e) {
      out->AddEntry(cols.row[e], j, cols.coef[e]);
    }
  }
}

// The phase-1 elastic LP: p's box and rows at cost 0, plus one [0, inf)
// cost-1 column per side a row can be violated on. x = lo with the elastic
// columns absorbing every residual is feasible, and the objective is
// bounded below by 0, so its optimum is the least total row violation
// over p's box.
inline lp::LpProblem ElasticLp(const lp::LpProblem& p) {
  lp::LpProblem e;
  for (int j = 0; j < p.num_vars(); ++j) e.AddVariable(0, p.lo(j), p.hi(j));
  CopyRows(p, /*homogeneous=*/false, &e);
  for (int i = 0; i < p.num_constraints(); ++i) {
    if (p.sense(i) != lp::Sense::kGreaterEqual) {
      e.AddEntry(i, e.AddVariable(1, 0, lp::kInfinity), -1);
    }
    if (p.sense(i) != lp::Sense::kLessEqual) {
      e.AddEntry(i, e.AddVariable(1, 0, lp::kInfinity), 1);
    }
  }
  return e;
}

// Certifies that p has no feasible point.
inline ::testing::AssertionResult CertifyInfeasible(const lp::LpProblem& p) {
  const lp::LpProblem elastic = ElasticLp(p);
  const lp::LpSolution sol = lp::SimplexSolver().Solve(elastic);
  if (::testing::AssertionResult kkt = CertifyOptimal(elastic, sol); !kkt) {
    return ::testing::AssertionFailure()
           << "elastic LP not certified: " << kkt.message();
  }
  double violation = 0;
  for (int j = p.num_vars(); j < elastic.num_vars(); ++j) {
    violation += sol.x[j];
  }
  if (!(violation > kLpTol)) {
    return ::testing::AssertionFailure()
           << "elastic optimum " << violation << ": p is feasible";
  }
  return ::testing::AssertionSuccess()
         << "least total violation " << violation;
}

// Certifies that p is feasible and its objective unbounded below.
inline ::testing::AssertionResult CertifyUnbounded(const lp::LpProblem& p) {
  const lp::LpSolution point = lp::SimplexSolver().Solve(ElasticLp(p));
  if (point.status != lp::SolveStatus::kOptimal) {
    return ::testing::AssertionFailure()
           << "elastic LP ended " << lp::ToString(point.status);
  }
  const std::vector<double> x(point.x.begin(),
                              point.x.begin() + p.num_vars());
  if (::testing::AssertionResult feasible = LpFeasible(p, x); !feasible) {
    return ::testing::AssertionFailure()
           << "no feasible point (elastic optimum " << point.objective
           << "): " << feasible.message();
  }

  // Directions d in [0, 1] on unbounded columns, 0 on boxed ones, keeping
  // every row of p at rhs 0: x + t·d stays feasible for every t >= 0.
  lp::LpProblem cone;
  for (int j = 0; j < p.num_vars(); ++j) {
    cone.AddVariable(p.obj(j), 0, p.hi(j) < lp::kInfinity ? 0.0 : 1.0);
  }
  CopyRows(p, /*homogeneous=*/true, &cone);
  const lp::LpSolution ray = lp::SimplexSolver().Solve(cone);
  if (ray.status != lp::SolveStatus::kOptimal) {
    return ::testing::AssertionFailure()
           << "direction LP ended " << lp::ToString(ray.status);
  }
  if (::testing::AssertionResult in_cone = LpFeasible(cone, ray.x); !in_cone) {
    return ::testing::AssertionFailure()
           << "d is not a recession direction: " << in_cone.message();
  }
  double slope = 0;
  for (int j = 0; j < p.num_vars(); ++j) slope += p.obj(j) * ray.x[j];
  if (!(slope < -kLpTol)) {
    return ::testing::AssertionFailure()
           << "no improving recession direction: min c·d = " << slope;
  }
  return ::testing::AssertionSuccess() << "c·d = " << slope;
}

// Certifies sol's verdict on p; an iteration-limit stop has none.
inline ::testing::AssertionResult CertifyVerdict(const lp::LpProblem& p,
                                                 const lp::LpSolution& sol) {
  switch (sol.status) {
    case lp::SolveStatus::kOptimal: return CertifyOptimal(p, sol);
    case lp::SolveStatus::kInfeasible: return CertifyInfeasible(p);
    case lp::SolveStatus::kUnbounded: return CertifyUnbounded(p);
    case lp::SolveStatus::kIterationLimit: break;
  }
  return ::testing::AssertionFailure()
         << "status " << lp::ToString(sol.status) << " is not a verdict";
}

// Solves p and expects its verdict certified from the problem data alone.
inline lp::LpSolution Certified(const lp::LpProblem& p,
                                lp::SimplexOptions options = {}) {
  const lp::LpSolution sol = lp::SimplexSolver(options).Solve(p);
  EXPECT_TRUE(CertifyVerdict(p, sol));
  return sol;
}

// --- random LP families (seeded; each deterministic in its Rng) ----------

// Random bounded-variable LP with mixed senses and tunable density. All
// variables are boxed, so the only possible verdicts are optimal and
// infeasible.
inline lp::LpProblem RandomBoxedLp(Rng& rng, int n, int m, double density) {
  lp::LpProblem p;
  for (int j = 0; j < n; ++j) {
    const double lo = rng.Bernoulli(0.25) ? rng.Uniform(-1, 1) : 0.0;
    p.AddVariable(rng.Uniform(-5, 5), lo, lo + rng.Uniform(0.5, 4));
  }
  for (int i = 0; i < m; ++i) {
    const int pick = static_cast<int>(rng.UniformInt(0, 2));
    const lp::Sense s = pick == 0   ? lp::Sense::kLessEqual
                        : pick == 1 ? lp::Sense::kGreaterEqual
                                    : lp::Sense::kEqual;
    const int r = p.AddConstraint(s, rng.Uniform(-2, 6));
    int placed = 0;
    for (int j = 0; j < n; ++j) {
      if (rng.Bernoulli(density)) {
        p.AddEntry(r, j, std::round(rng.Uniform(-3, 3)));
        ++placed;
      }
    }
    if (placed == 0) {
      p.AddEntry(r, static_cast<int>(rng.UniformInt(0, n - 1)), 1);
    }
  }
  return p;
}

// Guaranteed-feasible covering LP: min c·x, A x >= b with x in [0,1] and b
// small enough that x = 1 is feasible. Used where a test needs many pivots
// on a feasible instance (refactorization / warm-start scenarios).
inline lp::LpProblem RandomCoveringLp(Rng& rng, int n, int m,
                                      double density) {
  lp::LpProblem p;
  for (int j = 0; j < n; ++j) p.AddVariable(rng.Uniform(0.1, 2), 0, 1);
  for (int i = 0; i < m; ++i) {
    const int r = p.AddConstraint(lp::Sense::kGreaterEqual, 0);
    double row_sum = 0;
    for (int j = 0; j < n; ++j) {
      if (rng.Bernoulli(density)) {
        const double a = rng.Uniform(0.2, 2);
        p.AddEntry(r, j, a);
        row_sum += a;
      }
    }
    if (row_sum == 0) {
      p.AddEntry(r, static_cast<int>(rng.UniformInt(0, n - 1)), 1);
      row_sum = 1;
    }
    p.SetRhs(r, rng.Uniform(0.2, 0.8) * row_sum);
  }
  return p;
}

}  // namespace slp::test

#endif  // SLP_TESTS_LP_ORACLE_H_
