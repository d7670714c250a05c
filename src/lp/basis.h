// Basis snapshot and solver statistics of the simplex solver.
//
// A Basis records, for one solved LpProblem, where every structural variable
// and every row's logical variable (slack for <= / >= rows, artificial for =
// rows) sits at the optimum: basic, at its lower bound, or at its upper
// bound. SimplexSolver::Solve accepts a Basis from a previous solve of a
// structurally identical problem and crashes its starting basis from it, so
// re-solves after small rhs/objective edits (the FilterAssign β-escalation
// ladder) cost a handful of pivots instead of a full two-phase cold start.

#ifndef SLP_LP_BASIS_H_
#define SLP_LP_BASIS_H_

#include <cstdint>
#include <vector>

namespace slp::lp {

enum class VarStatus : uint8_t {
  kAtLower = 0,
  kAtUpper = 1,
  kBasic = 2,
};

// Snapshot of the final simplex basis. Empty vectors mean "no basis
// available" (the solve did not end optimal).
struct Basis {
  std::vector<VarStatus> structural;  // one per problem variable
  std::vector<VarStatus> logical;     // one per constraint row
  bool empty() const { return structural.empty() && logical.empty(); }
  // Compatible = usable as a warm-start hint for `problem`-shaped LPs.
  bool CompatibleWith(int num_vars, int num_constraints) const {
    return static_cast<int>(structural.size()) == num_vars &&
           static_cast<int>(logical.size()) == num_constraints;
  }
};

// Per-solve counters exposed on LpSolution: pivots, factorization,
// warm-start, dual-simplex, and FTRAN-sparsity behavior, and wall time.
struct SolverStats {
  int pivots = 0;             // total pivots, both phases
  int phase1_pivots = 0;      // pivots spent reaching feasibility
  // Pivots that moved no value: a primal step with ratio θ = 0, or a dual
  // step of zero length (the dual loop's own stall test). The stalls
  // behind the pivot tail.
  int degenerate_pivots = 0;
  // Primal pivots priced by Bland's rule, after stall_threshold
  // non-improving pivots in a row.
  int bland_pivots = 0;
  int refactorizations = 0;   // basis refactorizations
  int max_eta_length = 0;     // longest eta file between refactorizations
  double avg_ftran_density = 0;  // mean nnz(B^-1 a_q)/m over all FTRANs
  double solve_seconds = 0;   // wall time inside Solve()
  bool warm_started = false;  // a basis hint was accepted and used
  bool warm_feasible = false; // crashed basis was primal feasible as-is
  // Primal feasibility-restoration rounds run on a warm start whose
  // crashed basis was out of bounds (0 when warm_feasible).
  int warm_restoration_rounds = 0;
  // Restoration could not reach the true bounds and the solve restarted
  // cold (the hint was accepted but ultimately useless).
  bool warm_fell_back_cold = false;
  // --- dual simplex (ResolveDual) ---
  int dual_pivots = 0;        // pivots taken by the dual pivot loop
  int bound_flips = 0;        // nonbasic bound flips (dual ratio test +
                              // dual-feasibility restoration)
  bool dual_used = false;     // ResolveDual ran its dual loop to completion
  bool dual_fallback = false; // ResolveDual fell back to the primal path
};

}  // namespace slp::lp

#endif  // SLP_LP_BASIS_H_
