// Stress tests for the revised-simplex engine (src/lp/simplex.cc).
//
// Two families:
//  * randomized LPs whose every verdict is certified from the problem data
//    alone (tests/lp_oracle.h: KKT, elastic LP, recession direction);
//  * degenerate / cycling-prone instances that exercise the Bland fallback
//    and the eta-length / fill refactorization triggers.

#include <algorithm>
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/random.h"
#include "src/lp/lp_problem.h"
#include "src/lp/simplex.h"
#include "tests/lp_oracle.h"

namespace slp::lp {
namespace {

constexpr double kTol = 1e-6;

using test::Certified;
using test::LpFeasible;
using test::RandomBoxedLp;
using test::RandomCoveringLp;

// ---------------------------------------------------------------------------
// Randomized sweep, every verdict certified. The suite name predates the
// certificates (a second engine used to be the reference); it is kept so
// the test ids stay stable.
// ---------------------------------------------------------------------------

class DenseSparseCrossTest : public ::testing::TestWithParam<int> {};

TEST_P(DenseSparseCrossTest, EnginesAgree) {
  Rng rng(4200 + GetParam());
  const int n = 5 + static_cast<int>(rng.UniformInt(0, 76));
  const int m = 3 + static_cast<int>(rng.UniformInt(0, std::min(n, 38)));
  const double density = rng.Uniform(0.1, 0.8);
  const LpProblem p = RandomBoxedLp(rng, n, m, density);
  Certified(p);
}

INSTANTIATE_TEST_SUITE_P(Sweep, DenseSparseCrossTest, ::testing::Range(0, 60));

// Larger feasible instances where the sparse data structures actually pay.
TEST(DenseSparseCrossTest, MediumCoveringInstancesAgree) {
  for (int trial = 0; trial < 6; ++trial) {
    Rng rng(7100 + trial);
    const LpProblem p = RandomCoveringLp(rng, 150, 80, 0.08);
    const LpSolution sol = Certified(p);
    ASSERT_EQ(sol.status, SolveStatus::kOptimal);
    EXPECT_GT(sol.stats.pivots, 0);
  }
}

// ---------------------------------------------------------------------------
// Degenerate / cycling instances: Bland fallback and refactorization.
// ---------------------------------------------------------------------------

// Beale's classic cycling example: Dantzig pricing cycles forever on it
// without anti-cycling safeguards. Optimum -1/20 at x = (1/25, 0, 1, 0).
LpProblem BealeCyclingLp() {
  LpProblem p;
  int x1 = p.AddVariable(-0.75, 0, kInfinity);
  int x2 = p.AddVariable(150, 0, kInfinity);
  int x3 = p.AddVariable(-0.02, 0, kInfinity);
  int x4 = p.AddVariable(6, 0, kInfinity);
  int r1 = p.AddConstraint(Sense::kLessEqual, 0);
  p.AddEntry(r1, x1, 0.25);
  p.AddEntry(r1, x2, -60);
  p.AddEntry(r1, x3, -1.0 / 25);
  p.AddEntry(r1, x4, 9);
  int r2 = p.AddConstraint(Sense::kLessEqual, 0);
  p.AddEntry(r2, x1, 0.5);
  p.AddEntry(r2, x2, -90);
  p.AddEntry(r2, x3, -1.0 / 50);
  p.AddEntry(r2, x4, 3);
  int r3 = p.AddConstraint(Sense::kLessEqual, 1);
  p.AddEntry(r3, x3, 1);
  return p;
}

TEST(DegenerateStressTest, BealeCyclingSolvedUnderImmediateBland) {
  const LpProblem p = BealeCyclingLp();
  // stall_threshold = 1 flips to Bland's rule after two non-improving
  // pivots in a row. Dantzig pricing reaches this optimum in two pivots,
  // the first of them degenerate (every rhs is 0 but one), so only
  // stall_threshold = 0 runs the rest of the solve under Bland's rule.
  for (const int stall_threshold : {1, 0}) {
    SimplexOptions opts;
    opts.stall_threshold = stall_threshold;
    const LpSolution sol = Certified(p, opts);
    ASSERT_EQ(sol.status, SolveStatus::kOptimal);
    EXPECT_NEAR(sol.objective, -0.05, kTol);
    EXPECT_GT(sol.stats.degenerate_pivots, 0);
    EXPECT_LE(sol.stats.degenerate_pivots, sol.stats.pivots);
    EXPECT_LE(sol.stats.bland_pivots, sol.stats.pivots);
    if (stall_threshold == 0) {
      EXPECT_GT(sol.stats.bland_pivots, 0);
    }
  }
}

TEST(DegenerateStressTest, HighlyDegenerateAssignmentTerminates) {
  // n x n assignment polytope relaxation: every vertex is massively
  // degenerate (2n tight rows, n^2 variables). Certify the verdict under
  // an aggressive Bland switch.
  const int n = 8;
  Rng rng(99);
  LpProblem p;
  std::vector<std::vector<int>> v(n, std::vector<int>(n));
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      v[i][j] = p.AddVariable(std::round(rng.Uniform(1, 20)), 0, 1);
    }
  }
  for (int i = 0; i < n; ++i) {
    int r = p.AddConstraint(Sense::kEqual, 1);
    for (int j = 0; j < n; ++j) p.AddEntry(r, v[i][j], 1);
  }
  for (int j = 0; j < n; ++j) {
    int r = p.AddConstraint(Sense::kEqual, 1);
    for (int i = 0; i < n; ++i) p.AddEntry(r, v[i][j], 1);
  }
  SimplexOptions opts;
  opts.stall_threshold = 2;
  const LpSolution sol = Certified(p, opts);
  EXPECT_GT(sol.stats.degenerate_pivots, 0);
  EXPECT_GT(sol.stats.bland_pivots, 0);
  EXPECT_LE(sol.stats.bland_pivots, sol.stats.pivots);
}

TEST(DegenerateStressTest, NondegenerateLpReportsNoStalls) {
  // min −x − y s.t. x + 2y ≤ 4, 3x + y ≤ 6: the slack basis is feasible
  // with positive values, and every ratio test has one strictly positive
  // minimum, so each pivot moves and none runs under Bland's rule.
  LpProblem p;
  const int x = p.AddVariable(-1, 0, kInfinity);
  const int y = p.AddVariable(-1, 0, kInfinity);
  const int r1 = p.AddConstraint(Sense::kLessEqual, 4);
  p.AddEntry(r1, x, 1);
  p.AddEntry(r1, y, 2);
  const int r2 = p.AddConstraint(Sense::kLessEqual, 6);
  p.AddEntry(r2, x, 3);
  p.AddEntry(r2, y, 1);
  const LpSolution sol = Certified(p);
  ASSERT_EQ(sol.status, SolveStatus::kOptimal);
  EXPECT_NEAR(sol.objective, -2.8, kTol);  // x = 1.6, y = 1.2
  EXPECT_GT(sol.stats.pivots, 0);
  EXPECT_EQ(sol.stats.degenerate_pivots, 0);
  EXPECT_EQ(sol.stats.bland_pivots, 0);
}

TEST(DegenerateStressTest, TinyEtaFileForcesRefactorizations) {
  Rng rng(1234);
  const LpProblem p = RandomCoveringLp(rng, 120, 60, 0.1);

  SimplexOptions ref_opts;  // default triggers
  const LpSolution ref = SimplexSolver(ref_opts).Solve(p);
  ASSERT_EQ(ref.status, SolveStatus::kOptimal);

  SimplexOptions tiny;
  tiny.max_eta = 4;  // refactorize every <=4 pivots
  const LpSolution sol = SimplexSolver(tiny).Solve(p);
  ASSERT_EQ(sol.status, SolveStatus::kOptimal);
  EXPECT_NEAR(sol.objective, ref.objective, kTol);
  EXPECT_TRUE(LpFeasible(p, sol.x));
  // Enough pivots happen that the tiny eta cap must trip repeatedly, and
  // the recorded eta length can never exceed the cap.
  EXPECT_GT(sol.stats.refactorizations, 2);
  EXPECT_LE(sol.stats.max_eta_length, 4);
}

TEST(DegenerateStressTest, FillFactorTriggerAlsoRefactorizes) {
  Rng rng(4321);
  const LpProblem p = RandomCoveringLp(rng, 120, 60, 0.15);
  SimplexOptions opts;
  opts.eta_fill_factor = 0.01;  // any eta growth exceeds the fill budget
  const LpSolution sol = SimplexSolver(opts).Solve(p);
  ASSERT_EQ(sol.status, SolveStatus::kOptimal);
  EXPECT_TRUE(LpFeasible(p, sol.x));
  EXPECT_GT(sol.stats.refactorizations, 2);

  const LpSolution ref = SimplexSolver().Solve(p);
  ASSERT_EQ(ref.status, SolveStatus::kOptimal);
  EXPECT_NEAR(sol.objective, ref.objective, kTol);
}

}  // namespace
}  // namespace slp::lp
