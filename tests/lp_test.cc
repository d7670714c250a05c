#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/random.h"
#include "src/lp/lp_problem.h"
#include "src/lp/simplex.h"
#include "tests/lp_oracle.h"

namespace slp::lp {
namespace {

constexpr double kTol = 1e-6;

// ---------------------------------------------------------------------------
// Brute-force reference: enumerate all basic solutions of the standard form
// (slacks added, nonbasic variables at either finite bound) and take the
// best feasible one. Only valid for LPs whose variables all have finite
// upper bounds (bounded polytope => optimum at a vertex, and infeasibility
// == no feasible basic solution).
// ---------------------------------------------------------------------------
struct ReferenceResult {
  bool feasible = false;
  double objective = 0;
};

bool SolveLinearSystem(std::vector<std::vector<double>> a,
                       std::vector<double> b, std::vector<double>* x) {
  const int n = static_cast<int>(b.size());
  for (int col = 0; col < n; ++col) {
    int piv = -1;
    double best = 1e-9;
    for (int r = col; r < n; ++r) {
      if (std::abs(a[r][col]) > best) {
        best = std::abs(a[r][col]);
        piv = r;
      }
    }
    if (piv < 0) return false;
    std::swap(a[piv], a[col]);
    std::swap(b[piv], b[col]);
    const double p = a[col][col];
    for (int k = col; k < n; ++k) a[col][k] /= p;
    b[col] /= p;
    for (int r = 0; r < n; ++r) {
      if (r == col || a[r][col] == 0) continue;
      const double f = a[r][col];
      for (int k = col; k < n; ++k) a[r][k] -= f * a[col][k];
      b[r] -= f * b[col];
    }
  }
  *x = b;
  return true;
}

ReferenceResult BruteForceLp(const LpProblem& p) {
  const int n = p.num_vars();
  const int m = p.num_constraints();
  // Standard form columns: structural then slacks (<=: +1 in [0,inf) — but
  // for enumeration we give slacks a huge finite upper bound; >=: -1).
  struct Col {
    std::vector<double> a;  // dense length m
    double lo, hi, cost;
  };
  std::vector<Col> cols;
  const LpProblem::Columns cc = p.BuildColumns();
  for (int j = 0; j < n; ++j) {
    Col c;
    c.a.assign(m, 0);
    for (int q = cc.col_start[j]; q < cc.col_start[j + 1]; ++q) {
      c.a[cc.row[q]] = cc.coef[q];
    }
    c.lo = p.lo(j);
    c.hi = p.hi(j);
    c.cost = p.obj(j);
    cols.push_back(std::move(c));
  }
  const double big = 1e7;
  for (int i = 0; i < m; ++i) {
    if (p.sense(i) == Sense::kEqual) continue;
    Col c;
    c.a.assign(m, 0);
    c.a[i] = (p.sense(i) == Sense::kLessEqual) ? 1.0 : -1.0;
    c.lo = 0;
    c.hi = big;
    c.cost = 0;
    cols.push_back(std::move(c));
  }
  // Fixed-at-zero unit columns so a size-m basis always exists, even with
  // redundant equality rows or fewer structural+slack columns than rows.
  for (int i = 0; i < m; ++i) {
    Col c;
    c.a.assign(m, 0);
    c.a[i] = 1.0;
    c.lo = 0;
    c.hi = 0;
    c.cost = 0;
    cols.push_back(std::move(c));
  }
  const int total = static_cast<int>(cols.size());

  ReferenceResult best;
  // Iterate over all C(total, m) basis subsets via prev_permutation on mask.
  std::vector<bool> mask(total, false);
  std::fill(mask.begin(), mask.begin() + m, true);
  do {
    std::vector<int> basis;
    std::vector<int> nonbasis;
    for (int j = 0; j < total; ++j) (mask[j] ? basis : nonbasis).push_back(j);
    // Enumerate bound choices of nonbasic columns.
    const int nn = static_cast<int>(nonbasis.size());
    if (nn > 20) continue;  // keep tests tiny
    for (int bits = 0; bits < (1 << nn); ++bits) {
      std::vector<double> rhs(m);
      for (int i = 0; i < m; ++i) rhs[i] = p.rhs(i);
      double base_cost = 0;
      bool skip = false;
      std::vector<double> nb_val(nn);
      for (int t = 0; t < nn; ++t) {
        const Col& c = cols[nonbasis[t]];
        const double v = (bits >> t & 1) ? c.hi : c.lo;
        if (!std::isfinite(v)) {
          skip = true;
          break;
        }
        nb_val[t] = v;
        if (v != 0) {
          for (int i = 0; i < m; ++i) rhs[i] -= c.a[i] * v;
        }
        base_cost += c.cost * v;
      }
      if (skip) continue;
      std::vector<std::vector<double>> bmat(m, std::vector<double>(m));
      for (int t = 0; t < m; ++t) {
        for (int i = 0; i < m; ++i) bmat[i][t] = cols[basis[t]].a[i];
      }
      std::vector<double> xb;
      if (!SolveLinearSystem(bmat, rhs, &xb)) continue;
      bool feasible = true;
      double cost = base_cost;
      for (int t = 0; t < m; ++t) {
        const Col& c = cols[basis[t]];
        if (xb[t] < c.lo - 1e-7 || xb[t] > c.hi + 1e-7) {
          feasible = false;
          break;
        }
        cost += c.cost * xb[t];
      }
      if (!feasible) continue;
      if (!best.feasible || cost < best.objective) {
        best.feasible = true;
        best.objective = cost;
      }
    }
  } while (std::prev_permutation(mask.begin(), mask.end()));
  return best;
}

// ---------------------------------------------------------------------------
// LpProblem model tests
// ---------------------------------------------------------------------------

TEST(LpProblemTest, BuildColumnsMergesDuplicates) {
  LpProblem p;
  int x = p.AddVariable(1, 0, 1);
  int r = p.AddConstraint(Sense::kLessEqual, 5);
  p.AddEntry(r, x, 2);
  p.AddEntry(r, x, 3);
  auto cols = p.BuildColumns();
  ASSERT_EQ(cols.col_start[1] - cols.col_start[0], 1);
  EXPECT_EQ(cols.row[0], r);
  EXPECT_DOUBLE_EQ(cols.coef[0], 5.0);
}

TEST(LpProblemTest, CancellingDuplicatesDropOut) {
  LpProblem p;
  int x = p.AddVariable(1, 0, 1);
  int r = p.AddConstraint(Sense::kLessEqual, 5);
  p.AddEntry(r, x, 2);
  p.AddEntry(r, x, -2);
  auto cols = p.BuildColumns();
  EXPECT_EQ(cols.col_start[1] - cols.col_start[0], 0);
}

TEST(LpProblemTest, EvaluateRows) {
  LpProblem p;
  int x = p.AddVariable(0, 0, 10);
  int y = p.AddVariable(0, 0, 10);
  int r0 = p.AddConstraint(Sense::kLessEqual, 0);
  int r1 = p.AddConstraint(Sense::kGreaterEqual, 0);
  p.AddEntry(r0, x, 1);
  p.AddEntry(r0, y, 2);
  p.AddEntry(r1, y, -1);
  auto lhs = p.EvaluateRows({3, 4});
  EXPECT_DOUBLE_EQ(lhs[0], 11);
  EXPECT_DOUBLE_EQ(lhs[1], -4);
}

// ---------------------------------------------------------------------------
// Simplex: analytic cases
// ---------------------------------------------------------------------------

TEST(SimplexTest, SimpleMaximizationViaNegation) {
  // max x + y s.t. x + y <= 1, x,y in [0,1]  => objective -1 as min.
  LpProblem p;
  int x = p.AddVariable(-1, 0, 1);
  int y = p.AddVariable(-1, 0, 1);
  int r = p.AddConstraint(Sense::kLessEqual, 1);
  p.AddEntry(r, x, 1);
  p.AddEntry(r, y, 1);
  auto sol = SimplexSolver().Solve(p);
  ASSERT_EQ(sol.status, SolveStatus::kOptimal);
  EXPECT_NEAR(sol.objective, -1.0, kTol);
  EXPECT_TRUE(test::LpFeasible(p, sol.x));
}

TEST(SimplexTest, KnownTwoVarProblem) {
  // min -3x - 5y s.t. x <= 4; 2y <= 12; 3x + 2y <= 18; x,y >= 0.
  // Classic Dantzig example: optimum at (2, 6), objective -36.
  LpProblem p;
  int x = p.AddVariable(-3, 0, kInfinity);
  int y = p.AddVariable(-5, 0, kInfinity);
  int r0 = p.AddConstraint(Sense::kLessEqual, 4);
  int r1 = p.AddConstraint(Sense::kLessEqual, 12);
  int r2 = p.AddConstraint(Sense::kLessEqual, 18);
  p.AddEntry(r0, x, 1);
  p.AddEntry(r1, y, 2);
  p.AddEntry(r2, x, 3);
  p.AddEntry(r2, y, 2);
  auto sol = SimplexSolver().Solve(p);
  ASSERT_EQ(sol.status, SolveStatus::kOptimal);
  EXPECT_NEAR(sol.objective, -36.0, kTol);
  EXPECT_NEAR(sol.x[x], 2.0, kTol);
  EXPECT_NEAR(sol.x[y], 6.0, kTol);
}

TEST(SimplexTest, EqualityConstraint) {
  // min x + 2y s.t. x + y = 3, x in [0,2], y in [0,5] => x=2, y=1, obj 4.
  LpProblem p;
  int x = p.AddVariable(1, 0, 2);
  int y = p.AddVariable(2, 0, 5);
  int r = p.AddConstraint(Sense::kEqual, 3);
  p.AddEntry(r, x, 1);
  p.AddEntry(r, y, 1);
  auto sol = SimplexSolver().Solve(p);
  ASSERT_EQ(sol.status, SolveStatus::kOptimal);
  EXPECT_NEAR(sol.objective, 4.0, kTol);
  EXPECT_TRUE(test::LpFeasible(p, sol.x));
}

TEST(SimplexTest, GreaterEqualCovering) {
  // min 2x + 3y s.t. x + y >= 4, x + 3y >= 6, x,y >= 0.
  // Vertices: (4,0):8, (3,1):9, (0,4):12... check (4,0) infeasible for row2?
  // 4+0=4 < 6, so optimum is at intersection x+y=4, x+3y=6 => y=1, x=3: 9;
  // or (6,0): 12; or (0,4): 12. Optimum 9.
  LpProblem p;
  int x = p.AddVariable(2, 0, kInfinity);
  int y = p.AddVariable(3, 0, kInfinity);
  int r0 = p.AddConstraint(Sense::kGreaterEqual, 4);
  int r1 = p.AddConstraint(Sense::kGreaterEqual, 6);
  p.AddEntry(r0, x, 1);
  p.AddEntry(r0, y, 1);
  p.AddEntry(r1, x, 1);
  p.AddEntry(r1, y, 3);
  auto sol = SimplexSolver().Solve(p);
  ASSERT_EQ(sol.status, SolveStatus::kOptimal);
  EXPECT_NEAR(sol.objective, 9.0, kTol);
  EXPECT_TRUE(test::LpFeasible(p, sol.x));
}

TEST(SimplexTest, InfeasibleDetected) {
  // x >= 2 with x in [0,1].
  LpProblem p;
  int x = p.AddVariable(1, 0, 1);
  int r = p.AddConstraint(Sense::kGreaterEqual, 2);
  p.AddEntry(r, x, 1);
  auto sol = SimplexSolver().Solve(p);
  EXPECT_EQ(sol.status, SolveStatus::kInfeasible);
}

TEST(SimplexTest, InfeasibleEqualitySystem) {
  // x + y = 1 and x + y = 2.
  LpProblem p;
  int x = p.AddVariable(0, 0, 10);
  int y = p.AddVariable(0, 0, 10);
  int r0 = p.AddConstraint(Sense::kEqual, 1);
  int r1 = p.AddConstraint(Sense::kEqual, 2);
  p.AddEntry(r0, x, 1);
  p.AddEntry(r0, y, 1);
  p.AddEntry(r1, x, 1);
  p.AddEntry(r1, y, 1);
  auto sol = SimplexSolver().Solve(p);
  EXPECT_EQ(sol.status, SolveStatus::kInfeasible);
}

TEST(SimplexTest, UnboundedDetected) {
  // min -x s.t. x - y <= 0, x,y >= 0 (both can grow without bound).
  LpProblem p;
  int x = p.AddVariable(-1, 0, kInfinity);
  int y = p.AddVariable(0, 0, kInfinity);
  int r = p.AddConstraint(Sense::kLessEqual, 0);
  p.AddEntry(r, x, 1);
  p.AddEntry(r, y, -1);
  auto sol = SimplexSolver().Solve(p);
  EXPECT_EQ(sol.status, SolveStatus::kUnbounded);
}

TEST(SimplexTest, NonzeroLowerBounds) {
  // min x + y s.t. x + y >= 5, x in [1,10], y in [2,10] => obj 5.
  LpProblem p;
  int x = p.AddVariable(1, 1, 10);
  int y = p.AddVariable(1, 2, 10);
  int r = p.AddConstraint(Sense::kGreaterEqual, 5);
  p.AddEntry(r, x, 1);
  p.AddEntry(r, y, 1);
  auto sol = SimplexSolver().Solve(p);
  ASSERT_EQ(sol.status, SolveStatus::kOptimal);
  EXPECT_NEAR(sol.objective, 5.0, kTol);
  EXPECT_TRUE(test::LpFeasible(p, sol.x));
}

TEST(SimplexTest, FixedVariable) {
  // A variable with lo == hi participates as a constant.
  LpProblem p;
  int x = p.AddVariable(1, 3, 3);
  int y = p.AddVariable(1, 0, 10);
  int r = p.AddConstraint(Sense::kGreaterEqual, 5);
  p.AddEntry(r, x, 1);
  p.AddEntry(r, y, 1);
  auto sol = SimplexSolver().Solve(p);
  ASSERT_EQ(sol.status, SolveStatus::kOptimal);
  EXPECT_NEAR(sol.x[x], 3.0, kTol);
  EXPECT_NEAR(sol.objective, 5.0, kTol);
}

TEST(SimplexTest, SelectKSmallestClosedForm) {
  // min sum c_j x_j s.t. sum x_j >= k, x in [0,1]^n
  // => optimum = sum of the k smallest costs (fractional LP is integral).
  Rng rng(31);
  const int n = 200, k = 50;
  LpProblem p;
  std::vector<double> costs(n);
  int row = -1;
  for (int j = 0; j < n; ++j) {
    costs[j] = rng.Uniform(0, 100);
    p.AddVariable(costs[j], 0, 1);
  }
  row = p.AddConstraint(Sense::kGreaterEqual, k);
  for (int j = 0; j < n; ++j) p.AddEntry(row, j, 1);
  auto sol = SimplexSolver().Solve(p);
  ASSERT_EQ(sol.status, SolveStatus::kOptimal);
  std::sort(costs.begin(), costs.end());
  const double expected = std::accumulate(costs.begin(), costs.begin() + k, 0.0);
  EXPECT_NEAR(sol.objective, expected, 1e-5);
}

TEST(SimplexTest, TransportationProblem) {
  // 2 supplies (10, 20), 3 demands (7, 11, 12); costs:
  //   c = [[4, 6, 8], [5, 3, 2]]
  // Supply 2 is cheaper for demands 2 and 3: ship 11+ to d2? capacity 20:
  // d3 (cost 2) 12 units, d2 (cost 3) 8 units => supply2 full.
  // Remaining: d1 7 via s1 (4), d2 3 via s1 (6) => total
  // 12*2 + 8*3 + 7*4 + 3*6 = 24 + 24 + 28 + 18 = 94.
  LpProblem p;
  const double c[2][3] = {{4, 6, 8}, {5, 3, 2}};
  int var[2][3];
  for (int i = 0; i < 2; ++i) {
    for (int j = 0; j < 3; ++j) var[i][j] = p.AddVariable(c[i][j], 0, kInfinity);
  }
  const double supply[2] = {10, 20};
  const double demand[3] = {7, 11, 12};
  for (int i = 0; i < 2; ++i) {
    int r = p.AddConstraint(Sense::kLessEqual, supply[i]);
    for (int j = 0; j < 3; ++j) p.AddEntry(r, var[i][j], 1);
  }
  for (int j = 0; j < 3; ++j) {
    int r = p.AddConstraint(Sense::kGreaterEqual, demand[j]);
    for (int i = 0; i < 2; ++i) p.AddEntry(r, var[i][j], 1);
  }
  auto sol = SimplexSolver().Solve(p);
  ASSERT_EQ(sol.status, SolveStatus::kOptimal);
  EXPECT_NEAR(sol.objective, 94.0, 1e-6);
  EXPECT_TRUE(test::LpFeasible(p, sol.x));
}

TEST(SimplexTest, DegenerateProblemTerminates) {
  // Klee-Minty-flavored degenerate rows; mostly a termination test.
  LpProblem p;
  const int n = 8;
  std::vector<int> vars;
  for (int j = 0; j < n; ++j) {
    vars.push_back(p.AddVariable(-std::pow(2.0, n - 1 - j), 0, kInfinity));
  }
  for (int i = 0; i < n; ++i) {
    int r = p.AddConstraint(Sense::kLessEqual, std::pow(100.0, i));
    for (int j = 0; j < i; ++j) {
      p.AddEntry(r, vars[j], 2 * std::pow(2.0, i - 1 - j));
    }
    p.AddEntry(r, vars[i], 1);
  }
  auto sol = SimplexSolver().Solve(p);
  ASSERT_EQ(sol.status, SolveStatus::kOptimal);
  EXPECT_NEAR(sol.objective, -std::pow(100.0, n - 1), 1e-3);
}

TEST(SimplexTest, IterationLimitReported) {
  // A problem that needs several pivots, with a budget of one.
  Rng rng(55);
  LpProblem p;
  const int n = 30;
  for (int j = 0; j < n; ++j) p.AddVariable(rng.Uniform(-2, -1), 0, 1);
  for (int i = 0; i < 10; ++i) {
    int r = p.AddConstraint(Sense::kLessEqual, 2);
    for (int j = 0; j < n; ++j) {
      if (rng.Bernoulli(0.4)) p.AddEntry(r, j, 1);
    }
  }
  SimplexOptions opts;
  opts.max_iterations = 1;
  auto sol = SimplexSolver(opts).Solve(p);
  EXPECT_EQ(sol.status, SolveStatus::kIterationLimit);
}

TEST(SimplexTest, DualsAvailableAtOptimum) {
  LpProblem p;
  int x = p.AddVariable(-1, 0, kInfinity);
  int r = p.AddConstraint(Sense::kLessEqual, 7);
  p.AddEntry(r, x, 1);
  auto sol = SimplexSolver().Solve(p);
  ASSERT_EQ(sol.status, SolveStatus::kOptimal);
  ASSERT_EQ(sol.duals.size(), 1u);
  EXPECT_NEAR(sol.duals[0], -1.0, kTol);  // marginal value of relaxing rhs
}

// ---------------------------------------------------------------------------
// Property test: random tiny LPs vs brute-force vertex enumeration, every
// verdict also certified from the problem data.
// ---------------------------------------------------------------------------

class SimplexRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(SimplexRandomTest, MatchesBruteForce) {
  Rng rng(9000 + GetParam());
  const int n = 1 + static_cast<int>(rng.UniformInt(0, 4));
  const int m = 1 + static_cast<int>(rng.UniformInt(0, 3));
  LpProblem p;
  for (int j = 0; j < n; ++j) {
    const double cost = rng.Uniform(-5, 5);
    const double lo = rng.Bernoulli(0.3) ? rng.Uniform(0, 1) : 0.0;
    const double hi = lo + rng.Uniform(0.5, 3);
    p.AddVariable(cost, lo, hi);
  }
  for (int i = 0; i < m; ++i) {
    const int pick = static_cast<int>(rng.UniformInt(0, 2));
    const Sense s = pick == 0   ? Sense::kLessEqual
                    : pick == 1 ? Sense::kGreaterEqual
                                : Sense::kEqual;
    int r = p.AddConstraint(s, rng.Uniform(-3, 6));
    for (int j = 0; j < n; ++j) {
      if (rng.Bernoulli(0.75)) {
        p.AddEntry(r, j, std::round(rng.Uniform(-3, 3)));
      }
    }
  }
  const ReferenceResult ref = BruteForceLp(p);
  const LpSolution sol = SimplexSolver().Solve(p);
  EXPECT_TRUE(test::CertifyVerdict(p, sol));
  if (ref.feasible) {
    ASSERT_EQ(sol.status, SolveStatus::kOptimal)
        << "reference found objective " << ref.objective;
    EXPECT_NEAR(sol.objective, ref.objective, 1e-5);
  } else {
    EXPECT_EQ(sol.status, SolveStatus::kInfeasible);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, SimplexRandomTest, ::testing::Range(0, 120));

// Medium random LP: verify the returned point is feasible and that duals
// give a matching lower bound via weak duality spot-checks.
TEST(SimplexTest, MediumRandomLpFeasibleOptimum) {
  Rng rng(77);
  const int n = 120, m = 60;
  LpProblem p;
  for (int j = 0; j < n; ++j) p.AddVariable(rng.Uniform(0, 1), 0, 1);
  for (int i = 0; i < m; ++i) {
    int r = p.AddConstraint(Sense::kGreaterEqual, rng.Uniform(1, 3));
    for (int j = 0; j < n; ++j) {
      if (rng.Bernoulli(0.1)) p.AddEntry(r, j, 1);
    }
  }
  auto sol = SimplexSolver().Solve(p);
  if (sol.status == SolveStatus::kOptimal) {
    EXPECT_TRUE(test::LpFeasible(p, sol.x));
    EXPECT_GE(sol.objective, -kTol);
  } else {
    EXPECT_EQ(sol.status, SolveStatus::kInfeasible);
  }
}

// ---------------------------------------------------------------------------
// The certificates themselves (tests/lp_oracle.h) must reject forged
// verdicts, or a check through them proves nothing.
// ---------------------------------------------------------------------------

LpSolution Relabelled(LpSolution sol, SolveStatus status) {
  sol.status = status;
  return sol;
}

TEST(LpOracleTest, RejectsForgedVerdicts) {
  // min -3x - 5y s.t. x <= 4; 2y <= 12; 3x + 2y <= 18; x,y >= 0: optimum
  // -36 at (2, 6).
  LpProblem known;
  const int x = known.AddVariable(-3, 0, kInfinity);
  const int y = known.AddVariable(-5, 0, kInfinity);
  const int r0 = known.AddConstraint(Sense::kLessEqual, 4);
  const int r1 = known.AddConstraint(Sense::kLessEqual, 12);
  const int r2 = known.AddConstraint(Sense::kLessEqual, 18);
  known.AddEntry(r0, x, 1);
  known.AddEntry(r1, y, 2);
  known.AddEntry(r2, x, 3);
  known.AddEntry(r2, y, 2);
  const LpSolution best = SimplexSolver().Solve(known);
  ASSERT_EQ(best.status, SolveStatus::kOptimal);
  EXPECT_TRUE(test::CertifyVerdict(known, best));
  EXPECT_FALSE(
      test::CertifyVerdict(known, Relabelled(best, SolveStatus::kInfeasible)));
  EXPECT_FALSE(
      test::CertifyVerdict(known, Relabelled(best, SolveStatus::kUnbounded)));
  LpSolution suboptimal = best;  // the vertex (4, 3), objective -27
  suboptimal.x = {4, 3};
  suboptimal.objective = -27;
  ASSERT_TRUE(test::LpFeasible(known, suboptimal.x));
  EXPECT_FALSE(test::CertifyVerdict(known, suboptimal));
  LpSolution outside = best;  // (5, 6) breaks x <= 4
  outside.x = {5, 6};
  outside.objective = -45;
  EXPECT_FALSE(test::CertifyVerdict(known, outside));

  // x + y = 1 and x + y = 2 over [0, 10]^2.
  LpProblem infeasible;
  const int u = infeasible.AddVariable(0, 0, 10);
  const int v = infeasible.AddVariable(0, 0, 10);
  for (const double rhs : {1.0, 2.0}) {
    const int r = infeasible.AddConstraint(Sense::kEqual, rhs);
    infeasible.AddEntry(r, u, 1);
    infeasible.AddEntry(r, v, 1);
  }
  const LpSolution none = SimplexSolver().Solve(infeasible);
  ASSERT_EQ(none.status, SolveStatus::kInfeasible);
  EXPECT_TRUE(test::CertifyVerdict(infeasible, none));
  LpSolution claimed;  // meets the first row only
  claimed.status = SolveStatus::kOptimal;
  claimed.x = {0.5, 0.5};
  claimed.duals = {0, 0};
  EXPECT_FALSE(test::CertifyVerdict(infeasible, claimed));
  EXPECT_FALSE(test::CertifyVerdict(
      infeasible, Relabelled(none, SolveStatus::kUnbounded)));

  // min -s s.t. s - t <= 0, s,t >= 0: the ray (1, 1) drives it to -inf.
  LpProblem unbounded;
  const int s = unbounded.AddVariable(-1, 0, kInfinity);
  const int t = unbounded.AddVariable(0, 0, kInfinity);
  const int r = unbounded.AddConstraint(Sense::kLessEqual, 0);
  unbounded.AddEntry(r, s, 1);
  unbounded.AddEntry(r, t, -1);
  const LpSolution ray = SimplexSolver().Solve(unbounded);
  ASSERT_EQ(ray.status, SolveStatus::kUnbounded);
  EXPECT_TRUE(test::CertifyVerdict(unbounded, ray));
  // A feasible point whose dual prices s at zero but leaves t a negative
  // reduced cost on an unbounded column.
  LpSolution stopped;
  stopped.status = SolveStatus::kOptimal;
  stopped.x = {1, 1};
  stopped.duals = {-1};
  stopped.objective = -1;
  EXPECT_FALSE(test::CertifyVerdict(unbounded, stopped));
  EXPECT_FALSE(test::CertifyVerdict(
      unbounded, Relabelled(ray, SolveStatus::kInfeasible)));
}

}  // namespace
}  // namespace slp::lp
