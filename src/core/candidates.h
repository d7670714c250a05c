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
// Storage is CSR (compressed sparse row): per-row offsets into one flat
// int32 array of target ids. A row is subscriber j's B_j — its
// latency-feasible targets — in latency order; the latencies that decide
// the order are not stored, since no reader needs one once the row is
// sorted. At 1M subscribers the historical vector<vector<...>> layout
// spent most of its time in the allocator and pointer-chasing; the flat
// layout is one allocation per array and scans contiguously.

#ifndef SLP_CORE_CANDIDATES_H_
#define SLP_CORE_CANDIDATES_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/core/problem.h"

namespace slp::core {

// One SLP1 stage's (or GlobalRepair's) targets for a subset of subscribers.
// `subscribers[r]` is the problem-level subscriber index of local row r;
// candidate rows are indexed by the local row r.
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

  // CSR candidate storage: row r's candidates are
  // cand_targets[cand_offsets[r] .. cand_offsets[r+1]). Each row is sorted
  // by latency ascending, ties by target id — a load-bearing contract, and
  // with no latency stored the order is all a row says beyond its ids:
  // consumers walk rows nearest-first to unbounded depth (GreedyPartition
  // scans until capacity admits the subscriber; the enrichment pass in
  // subscription_assign.cc scans until it finds an assigned broker), so no
  // top-k prefix short of the whole row is safe to cap at.
  std::vector<int64_t> cand_offsets;  // size rows + 1
  std::vector<int32_t> cand_targets;

  int num_rows() const { return static_cast<int>(subscribers.size()); }

  // Row r's target ids, nearest first.
  std::span<const int32_t> candidates(int r) const {
    return {cand_targets.data() + cand_offsets[r],
            cand_targets.data() + cand_offsets[r + 1]};
  }

  // Absolute load cap of target t at load-balance factor `lbf`, in
  // subscribers.
  double AbsCap(int t, double lbf) const {
    return lbf * kappa[t] * total_subscribers;
  }
};

// Targets = leaf brokers; candidate lists are the latency-feasible leaves
// (always non-empty: the Δ-achieving leaf satisfies any max_delay >= 0).
// `sub_indices` selects the subscribers (pass all indices for a full run).
// With num_shards > 1 the row range is split into that many contiguous
// shards built on the shared pool; rows are independent and shard results
// are concatenated in row order, so any shard count is bit-identical to
// serial.
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
