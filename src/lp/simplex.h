// Bounded-variable two-phase (primal) revised simplex.
//
// This is the LP engine behind LPRelax (Section IV-A.1). It supports
// variables with finite lower bounds and possibly-infinite upper bounds,
// <= / >= / = rows, infeasibility and unboundedness detection, Dantzig
// pricing with a partial-pricing window, and a Bland anti-cycling fallback.
//
// The basis is a sparse LU factorization plus a bounded product-form eta
// file (src/lp/lu_factor.h). FTRAN/BTRAN exploit right-hand-side sparsity,
// so a pivot costs O(m + fill), and the factorization is rebuilt only on
// eta-length / fill / instability triggers. Every solve starts cold from
// the slack/artificial basis, and phase 1 alone decides infeasibility.

#ifndef SLP_LP_SIMPLEX_H_
#define SLP_LP_SIMPLEX_H_

#include <string>
#include <vector>

#include "src/lp/lp_problem.h"

namespace slp::lp {

enum class SolveStatus {
  kOptimal,
  kInfeasible,
  kUnbounded,
  kIterationLimit,
};

const char* ToString(SolveStatus status);

struct SimplexOptions {
  // Hard cap on total pivots across both phases; <=0 means automatic
  // (max(20000, 50 * rows)).
  int max_iterations = 0;
  // Consecutive non-improving pivots before switching to Bland's rule.
  int stall_threshold = 2000;
  // Refactorize once the eta file holds this many pivots...
  int max_eta = 64;
  // ...or once the eta entries outnumber eta_fill_factor * nnz(LU).
  double eta_fill_factor = 4.0;
};

// Per-solve counters exposed on LpSolution: pivots, factorization and
// FTRAN-sparsity behavior, and wall time.
struct SolverStats {
  int pivots = 0;             // total pivots, both phases
  int phase1_pivots = 0;      // pivots spent reaching feasibility
  // Pivots that moved no value (ratio θ = 0): the stalls behind the pivot
  // tail.
  int degenerate_pivots = 0;
  // Pivots priced by Bland's rule, after stall_threshold non-improving
  // pivots in a row.
  int bland_pivots = 0;
  int refactorizations = 0;   // basis refactorizations
  int max_eta_length = 0;     // longest eta file between refactorizations
  double avg_ftran_density = 0;  // mean nnz(B^-1 a_q)/m over all FTRANs
  double solve_seconds = 0;   // wall time inside Solve()
};

struct LpSolution {
  SolveStatus status = SolveStatus::kIterationLimit;
  double objective = 0;
  std::vector<double> x;      // primal values, one per problem variable
  std::vector<double> duals;  // one per constraint (valid when optimal)
  int iterations = 0;
  SolverStats stats;
};

// Solves `problem` (a minimization LP). Stateless across calls.
//
// The solver self-audits its tableau (basis/position bijection, nonbasic
// upper-bound statuses only on boxed columns, eta-file length, B·B^-1
// unit-vector residuals) at every refactorization and at the end of every
// optimal solve when SLP_AUDITS_ENABLED; violations are reported through
// slp::audit::Fail with Category::kBasis (DESIGN.md §10).
class SimplexSolver {
 public:
  explicit SimplexSolver(SimplexOptions options = {}) : options_(options) {}

  LpSolution Solve(const LpProblem& problem) const;

 private:
  SimplexOptions options_;
};

}  // namespace slp::lp

#endif  // SLP_LP_SIMPLEX_H_
