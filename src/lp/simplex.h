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
// eta-length / fill / instability triggers. Solve() returns the final
// Basis, and a later Solve(problem, &basis) on a structurally identical
// problem (same variable/row counts — e.g. after rhs or objective edits)
// crashes its starting basis from the hint, typically reaching the new
// optimum in a handful of pivots.
//
// On top of the primal loop, ResolveDual() runs a bounded-variable dual
// simplex on the same LU/eta kernel. It is the re-solve engine for edits
// that keep a basis dual-feasible but break primal feasibility: rhs
// changes, such as the FilterAssign load rungs. When the hint is not
// dual-feasible (e.g., after objective edits) or dual pivoting runs into
// numerical trouble, it falls back to the primal warm-start path — like
// warm starts, the dual engine is an accelerator, never a correctness
// risk (stats.dual_fallback reports the path taken).

#ifndef SLP_LP_SIMPLEX_H_
#define SLP_LP_SIMPLEX_H_

#include <string>
#include <vector>

#include "src/lp/basis.h"
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

struct LpSolution {
  SolveStatus status = SolveStatus::kIterationLimit;
  double objective = 0;
  std::vector<double> x;      // primal values, one per problem variable
  std::vector<double> duals;  // one per constraint (valid when optimal)
  int iterations = 0;
  SolverStats stats;
  // Final basis snapshot (empty unless the solve ended kOptimal). Feed it
  // back into Solve() to warm-start a re-solve after rhs/objective edits.
  Basis basis;
};

// Solves `problem` (a minimization LP). Stateless across calls; any
// warm-start state lives in the Basis value the caller threads through.
class SimplexSolver {
 public:
  explicit SimplexSolver(SimplexOptions options = {}) : options_(options) {}

  LpSolution Solve(const LpProblem& problem) const {
    return Solve(problem, nullptr);
  }

  // `hint`, when non-null, non-empty, and dimension-compatible with
  // `problem`, seeds the starting basis; otherwise the solver cold-starts
  // with the usual two-phase method.
  LpSolution Solve(const LpProblem& problem, const Basis* hint) const;

  // Re-solves `problem` by dual simplex starting from `hint` (typically
  // the previous optimum of the same problem before rhs edits). Falls back
  // to Solve(problem, &hint) — the primal warm-start path — when the hint
  // is rejected, is not dual-feasible after bound flips, or the dual loop
  // hits numerical trouble; the returned stats report dual_used /
  // dual_fallback, and a fallback's counters include the abandoned dual
  // pivots and bound flips.
  LpSolution ResolveDual(const LpProblem& problem, const Basis& hint) const;

 private:
  SimplexOptions options_;
};

// Deep auditor (DESIGN.md §10): var-status coherence of a basis snapshot
// against the problem it solves — sizes match, exactly num_constraints
// variables are basic, kAtUpper only on variables with a finite upper
// bound, and logical variables never kAtUpper (ExportBasis's contract).
// The solver additionally self-audits its internal tableau
// (basis/position bijection, eta-file length, B·B^-1 unit-vector
// residuals) at factorization boundaries in debug builds. Violations are
// reported through slp::audit::Fail with Category::kBasis.
void AuditBasis(const Basis& basis, const LpProblem& problem);

}  // namespace slp::lp

#endif  // SLP_LP_SIMPLEX_H_
