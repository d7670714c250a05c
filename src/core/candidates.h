// Candidate assignment targets.
//
// SLP1 (Section IV) runs over a set of "targets" a subscriber can be routed
// to. For a one-level run the targets are the leaf brokers; in the
// multi-level algorithm (Section V) the targets at an internal node are its
// child subtrees, with optimistic latency (minimum over the subtree's
// leaves) and aggregated capacity. Targets abstracts both so FilterAssign /
// LPRelax / the max-flow assignment are written once, and one fill builds
// both: a leaf is the one-leaf subtree of itself.
//
// Subscriber j's candidates B_j are its latency-feasible targets, ordered
// by (latency, id). No table of them is stored. Three readers walk a whole
// B_j, each over a minority of the rows: (C2) of the sampled LP, the
// γ-small greedy partition and the flow's enrichment pass. They call
// Candidates() for the rows they read. The flow's covers and FilterAssign's
// coverage test come from the filters (ComputeCovers,
// subscription_assign.h), which compute a latency only where a filter
// contains the subscription. Every other reader needs B_j's first entry
// alone, which the builders store per row.

#ifndef SLP_CORE_CANDIDATES_H_
#define SLP_CORE_CANDIDATES_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "src/core/problem.h"
#include "src/geometry/point.h"

namespace slp::core {

// One SLP1 stage's (or GlobalRepair's) targets for a subset of subscribers.
// `subscribers[r]` is the problem-level subscriber index of local row r.
struct Targets {
  int count = 0;
  // Global capacity fraction of each target (sums to the fraction of the
  // tree these targets cover: 1 at the root or over all leaves). The LP's
  // (C3) caps β · kappa[t] · |Sb| use these global shares, so below the
  // root they sum to less than |Sb| whenever β κ_node < 1 (lp_relax.h).
  std::vector<double> kappa;
  // Total subscribers in the whole problem; the max-flow step's load caps
  // (AbsCap) are β · kappa[t] · total_subscribers regardless of recursion
  // depth, so the global load-balance factor is what gets enforced.
  int total_subscribers = 0;

  std::vector<int> subscribers;  // local row -> problem subscriber index
  // Row r's nearest latency-feasible target: B_j's first entry, the least
  // latency with ties to the lower id, or -1 when no target meets the
  // row's bound.
  std::vector<int32_t> nearest;

  // Latency inputs, flat over every target's subtree leaves: target t's
  // leaves are the slots [slot_offsets[t], slot_offsets[t+1]), and slot
  // i's latency to a subscriber at s is base[i] + |loc_i − s|, with loc_i
  // the dim coordinates at loc[i·dim]. base is the root-path latency, or
  // 0.0 in the last-hop mode.
  int dim = 0;
  std::vector<int> slot_offsets;  // count + 1
  std::vector<double> base;
  std::vector<double> loc;

  int num_rows() const { return static_cast<int>(subscribers.size()); }

  // Target t's optimistic latency to a subscriber at `at`: the minimum over
  // its subtree leaves, bit for bit SaProblem::AssignmentLatency for a
  // leaf (the same subtraction and accumulation order as geo::Distance,
  // and 0.0 + x is exact for x >= 0).
  double Latency(int t, const geo::Point& at) const {
    double best = std::numeric_limits<double>::infinity();
    for (int i = slot_offsets[t]; i < slot_offsets[t + 1]; ++i) {
      const double* lp = loc.data() + static_cast<size_t>(i) * dim;
      double s = 0;
      for (int d = 0; d < dim; ++d) {
        const double diff = lp[d] - at[d];
        s += diff * diff;
      }
      best = std::min(best, base[i] + std::sqrt(s));
    }
    return best;
  }

  // Absolute load cap of target t at load-balance factor `lbf`, in
  // subscribers.
  double AbsCap(int t, double lbf) const {
    return lbf * kappa[t] * total_subscribers;
  }
};

// The largest latency subscriber j accepts, with SaProblem::LatencyOk's
// tolerance: target t is in B_j iff Latency(t, j's location) <= this.
inline double LatencyLimit(const SaProblem& problem, int j) {
  return problem.latency_bound(j) + 1e-12;
}

// Row r's B_j: every latency-feasible target, ordered by (latency, id).
std::vector<int32_t> Candidates(const SaProblem& problem,
                                const Targets& targets, int r);

// Targets = leaf brokers. Every row has a nearest target: the Δ-achieving
// leaf satisfies any max_delay >= 0. `sub_indices` selects the subscribers
// (pass all indices for a full run). With num_shards > 1 the per-row pass
// that finds each row's nearest target is split into that many contiguous
// row ranges run on the shared pool; each range writes only its own rows,
// so any shard count is bit-identical to serial.
Targets BuildLeafTargets(const SaProblem& problem,
                         const std::vector<int>& sub_indices,
                         int num_shards = 1);

// Targets = children of `node`; a child is a candidate for a subscriber if
// the *optimistic* latency — min over the child's subtree leaves of
// (root-path latency + last hop) — meets the subscriber's bound. kappa of a
// child is the sum of its subtree leaves' fractions (precomputed on the
// problem). Sharding as in BuildLeafTargets.
Targets BuildChildTargets(const SaProblem& problem,
                          const std::vector<int>& sub_indices, int node,
                          int num_shards = 1);

// Convenience: every subscriber index of the problem.
std::vector<int> AllSubscribers(const SaProblem& problem);

}  // namespace slp::core

#endif  // SLP_CORE_CANDIDATES_H_
