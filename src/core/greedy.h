// The greedy subscriber-assignment algorithms of Section III, plus the
// latency-ignoring variant Gr¬l used as a baseline in Section VI.
//
//  * Gr (online): processes subscribers in arrival order; assigns each to
//    the candidate leaf with the least path-enlargement cost (R-tree-style
//    least-volume-enlargement along the publisher-to-leaf path), breaking
//    ties toward the least-loaded broker.
//  * Gr* (offline): same per-subscriber step, but processes subscribers in
//    ascending order of candidate-set cardinality, re-ordering whenever a
//    broker fills up (deferring subscribers with many choices).
//  * Gr¬l: Gr with the latency constraint dropped from the candidate
//    definition.
//
// All variants enforce the load cap: a candidate must keep the broker's
// load within the current lbf cap (starting at β, escalating toward β_max
// when a subscriber would otherwise have no candidate). If β_max is
// insufficient, the subscriber is assigned best-effort to the least-loaded
// latency-feasible broker and the solution is flagged load-infeasible —
// matching how the paper reports Gr's best-effort solutions.

#ifndef SLP_CORE_GREEDY_H_
#define SLP_CORE_GREEDY_H_

#include "src/common/random.h"
#include "src/core/assignment.h"
#include "src/core/problem.h"

namespace slp::core {

struct GreedyOptions {
  // Process subscribers in candidate-count order with re-sorting (Gr*)
  // instead of arrival order (Gr).
  bool offline = false;
  // Drop the latency constraint from candidate sets (Gr¬l).
  bool ignore_latency = false;
};

// Runs the selected greedy variant. Always produces a complete solution
// (final filters included — greedy filters respect α by construction, and
// internal filters are the R-tree-style path filters it maintained).
SaSolution RunGreedy(const SaProblem& problem, const GreedyOptions& options,
                     Rng& rng);

// Convenience wrappers matching the paper's names.
SaSolution RunGr(const SaProblem& problem, Rng& rng);        // online
SaSolution RunGrStar(const SaProblem& problem, Rng& rng);    // offline
SaSolution RunGrNoLatency(const SaProblem& problem, Rng& rng);

}  // namespace slp::core

#endif  // SLP_CORE_GREEDY_H_
