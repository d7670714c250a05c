// Candidate filter generation (Section IV-A.3).
//
// Produces the rectangle set R that LPRelax may assemble filters from:
//  1. (optional) replace the input subscriptions by k = 5·|B|
//     super-subscriptions — MEBs of clusters computed in a joint
//     network ⊕ event feature space, capturing geographic and topical
//     concentration;
//  2. per event-space dimension, build interval sets J_i with the
//     hierarchical length-doubling scheme (lengths ℓ_j = 2^j δ, no two
//     intervals of a level overlapping by more than ηℓ_j, each interval
//     shrunk to the tightest span of what it contains);
//  3. R = cartesian products of the J_i, each product shrunk to the MEB of
//     the input subscriptions it contains; empty products are dropped,
//     duplicates merged.
// The global MEB of the input is always included, so every subscription is
// contained in at least one candidate. To keep the LP small, a
// keep-smallest pruning retains, per subscription, only the
// kCoversPerSubscription (8) smallest candidates containing it.

#ifndef SLP_CORE_FILTER_GEN_H_
#define SLP_CORE_FILTER_GEN_H_

#include <vector>

#include "src/common/random.h"
#include "src/core/problem.h"
#include "src/geometry/rectangle.h"

namespace slp::core {

// Generates candidate filter rectangles for the subscriptions indexed by
// `sa_indices` (into problem.subscribers()), for a run with `num_targets`
// assignable targets. Result is sorted by volume ascending and non-empty.
std::vector<geo::Rectangle> FilterGen(const SaProblem& problem,
                                      const std::vector<int>& sa_indices,
                                      int num_targets, Rng& rng);

}  // namespace slp::core

#endif  // SLP_CORE_FILTER_GEN_H_
