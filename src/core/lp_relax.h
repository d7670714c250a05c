// LP relaxation + randomized rounding for preliminary filter assignment
// (Section IV-A.1).
//
// Builds the paper's mixed program over x_ij (subscriber j assigned to
// target i) and y_ik (rectangle k in target i's filter), relaxed to [0,1]:
//   min  Σ Vol(R_k) · y_ik
//   (C1) Σ_k y_ik ≤ α                         per target
//   (C2) Σ_{i ∈ B_j} x_ij ≥ 1                 per subscriber in Sa
//   (C3) Σ_{j ∈ Sb} x_ij ≤ β κ_i |Sb|         per target
//   (C4) Σ_{R_k ⊇ σ_j} y_ik ≥ x_ij            per (j, i ∈ B_j)
// then rounds each y_ik to 1 with probability 1 - (1 - ŷ)^{2 ln|Sa|},
// retrying until the rounded filters cover Sa (success probability ≥ 1/2
// per attempt).
//
// Scalability measures (beyond the paper's text, documented in DESIGN.md):
//  * per-subscriber candidate targets capped to the nearest few;
//  * per-subscriber candidate rectangles capped to the smallest few;
//  * subscribers with identical (targets, rectangles) signatures merged
//    into one weighted group — exact by symmetry of the LP.
//
// LpRelaxModel is the retained form: FilterAssign's infeasibility ladder
// (β → β_max → drop (C3)) builds the model once per sample, then mutates
// only the (C3) caps/penalties between rungs and solves it again, instead
// of redrawing the sample, rerunning FilterGen and rebuilding the LP.
//
// (C3) below the root: κ_i is target i's *global* capacity share, so at an
// interior node v the caps sum to at most β κ_v |Sb|, and with
// β_max κ_v < 1 every load-enforcing rung is infeasible by construction.
// LoadRungRuledOut decides that from the instance, before any sample is
// drawn, and FilterAssign skips the rungs it rules out.

#ifndef SLP_CORE_LP_RELAX_H_
#define SLP_CORE_LP_RELAX_H_

#include <vector>

#include "src/common/random.h"
#include "src/common/status.h"
#include "src/core/candidates.h"
#include "src/core/problem.h"
#include "src/geometry/filter.h"
#include "src/lp/lp_problem.h"
#include "src/lp/simplex.h"

namespace slp::core {

// The static (C3) rule: true when no Sb sample of `sb_size` rows over
// `targets` can be balanced at `beta`, so the load-enforcing rung at
// `beta` is load-infeasible before any sample is drawn. Rows have unit
// weight, so (C2) sends sb_size units into the (C3) rows, whose caps sum
// to at most β Σκ sb_size (Σκ over targets.kappa). At every feasible point
// the (C3) slacks therefore sum to at least sb_size (1 − β Σκ); the rule
// fires when that floor exceeds the 0.5 of slack Solve reports as
// load-infeasible. It never fires at the root (Σκ = 1, β ≥ 1); at a node
// v below it (Σκ = κ_v) it fires whenever β κ_v < 1 − 0.5 / sb_size.
bool LoadRungRuledOut(const Targets& targets, int sb_size, double beta);

struct LpRelaxResult {
  // One (possibly >α rectangles — fixed later by filter adjustment) filter
  // per target.
  std::vector<geo::Filter> filters;
  // Optimal LP objective restricted to the Σ Vol(R_k)·y_ik part — the
  // fractional lower bound of Section IV-D. (C3) is enforced softly with a
  // heavily penalized slack so that an over-tight load sample degrades the
  // solution instead of wasting a full infeasibility proof; the penalty is
  // excluded here, and Solve reports a slack sum past 0.5 as
  // load-infeasible.
  double fractional_objective = 0;
};

// One built relaxation, retained across load-rung changes. The (C3) rows
// and their penalty slacks are always present (when Sb is non-empty), so
// SetLoadRung can retune or neutralize them in place without changing the
// LP's shape: a rung change keeps the sample, the candidate grouping (and
// the random draws behind it) and the built LP, and only the solve is
// repeated. Holds pointers to the problem/targets it was built from; they
// must outlive the model.
class LpRelaxModel {
 public:
  // Groups subscribers, caps candidates (consuming rng for the target
  // spread), and builds the LP at the enforced rung of the problem's β
  // (SetLoadRung moves it to another). sa_rows / sb_rows index into
  // targets.subscribers; sb_rows must be a subset of sa_rows (any order),
  // and an empty sb_rows builds no (C3) rows. `rects` is the candidate set
  // from FilterGen, sorted by volume ascending (copied into the model).
  // Fails kInfeasible when some subscriber has no feasible target or no
  // containing rectangle.
  static Result<LpRelaxModel> Build(const SaProblem& problem,
                                    const Targets& targets,
                                    const std::vector<int>& sa_rows,
                                    const std::vector<int>& sb_rows,
                                    const std::vector<geo::Rectangle>& rects,
                                    Rng& rng);

  // Reconfigures the (C3) load rung in place: caps at `beta` (must be > 0)
  // and, when enforce_load is false, zeroes the slack penalties so the rows
  // go inert. No-op when the model has no (C3) rows (empty Sb).
  void SetLoadRung(double beta, bool enforce_load);

  // Cold-solves the LP at the current rung and rounds the fractional
  // optimum to filters. Returns kInfeasible when the optimum's (C3) slack
  // shows the load sample cannot be balanced at the current β.
  Result<LpRelaxResult> Solve(Rng& rng);

  // Counters from the most recent Solve, populated even when that solve
  // ended infeasible-at-β (the infeasible rungs are exactly the ones that
  // escalate).
  const lp::SolverStats& last_lp_stats() const { return last_stats_; }

  // The (C3) slack sum at a point x of lp().
  double LoadSlackSum(const std::vector<double>& x) const;

  // Test access to the underlying LP, so the differential harness can
  // replay real escalation ladders against the exact LPs FilterAssign
  // solves.
  const lp::LpProblem& lp() const { return lp_; }

 private:
  LpRelaxModel() = default;

  // A group of subscribers sharing candidate targets and rectangles (merged
  // for LP size; exact by symmetry).
  struct Group {
    std::vector<int> targets;  // candidate target ids (capped, sorted)
    std::vector<int> rects;    // candidate rectangle ids (capped, sorted)
    double weight_sb = 0;      // members inside Sb ((C3) coefficient)
  };
  struct YVar {
    int target;
    int rect;
    int var;
  };
  struct C3Row {
    int target;
    int row;
    int slack_var;
  };

  const Targets* targets_ = nullptr;  // not owned
  std::vector<geo::Rectangle> rects_;
  std::vector<Group> groups_;
  std::vector<YVar> yvars_;
  std::vector<C3Row> c3_rows_;
  lp::LpProblem lp_;
  double penalty_ = 0;      // (C3) slack objective coefficient when enforced
  double sb_size_ = 0;      // |Sb| at build time
  double sa_size_ = 0;      // |Sa| at build time (rounding boost)
  bool enforce_load_ = true;
  lp::SolverStats last_stats_;  // counters from the most recent Solve
};

}  // namespace slp::core

#endif  // SLP_CORE_LP_RELAX_H_
