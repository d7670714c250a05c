// Preliminary filter assignment — Algorithm 1 of the paper (Section IV-A):
// iterative reweighted sampling with an exponential search over the
// ε-certificate size g.
//
// Each stage targets a certificate size g: subscriber weights start at 1; a
// coreset Q of ~10·g·ln(g) subscribers is drawn weight-proportionally; the
// helper adds a uniform load-balance sample Sb (10·|B| rows), generates
// candidate filters, and calls LPRelax. If the ε-expanded rounded filters
// cover the whole subscriber set, done; otherwise weights of uncovered
// subscribers double and the stage repeats (valid iterations only — an
// iteration whose uncovered weight exceeds ε of the total is resampled).
// After 4·g·ln(|S|/g) valid iterations the stage concludes the certificate
// is larger and doubles g. Load rungs the instance rules out
// (LoadRungRuledOut, lp_relax.h) are skipped before sampling; where that is
// every load-enforcing rung (below the root when β_max κ_v < 1), no Sb is
// drawn and each iteration makes one LP solve without (C3).
//
// Engineering knob beyond the paper: `max_lp_calls` bounds the total number
// of LP solves; when exhausted the best filters seen are returned after a
// deterministic completion that guarantees coverage (smallest candidate
// rectangle added to the nearest feasible target for each uncovered
// subscriber). Set it to 0 for the paper-faithful unbounded loop.

#ifndef SLP_CORE_FILTER_ASSIGN_H_
#define SLP_CORE_FILTER_ASSIGN_H_

#include <vector>

#include "src/common/random.h"
#include "src/common/status.h"
#include "src/core/candidates.h"
#include "src/core/problem.h"
#include "src/geometry/filter.h"

namespace slp::core {

struct FilterAssignOptions {
  // ε of the ε-expansion / ε-certificate machinery.
  double eps = 0.2;
  // |Sb| = sb_factor · (number of targets), capped by the subscriber count.
  int sb_factor = 5;
  // Total LP budget, counted in LP solves; 0 = unlimited (paper-faithful).
  int max_lp_calls = 40;
};

struct FilterAssignResult {
  // ε-expanded preliminary filter per target: covers every subscriber.
  std::vector<geo::Filter> filters;
  // Fractional LP objective of the final (successful) LPRelax call — the
  // Section IV-D lower-bound yardstick.
  double fractional_objective = 0;
  // LP solves (the max_lp_calls unit): one per ladder rung attempted.
  int lp_calls = 0;
  int iterations = 0;
  // Simplex pivots over every solved rung, and those that were degenerate
  // (zero step) or taken under Bland's rule (lp::SolverStats).
  int pivots = 0;
  int degenerate_pivots = 0;
  int bland_pivots = 0;
  // True if the LP budget (max_lp_calls or the pivot cap) ran out and
  // deterministic completion was used.
  bool budget_exhausted = false;
};

// Computes preliminary filters covering all of targets.subscribers.
// Returns a non-OK status only if LPRelax repeatedly fails for structural
// reasons (e.g., a subscriber with no feasible target).
Result<FilterAssignResult> FilterAssign(const SaProblem& problem,
                                        const Targets& targets,
                                        const FilterAssignOptions& options,
                                        Rng& rng);

}  // namespace slp::core

#endif  // SLP_CORE_FILTER_ASSIGN_H_
