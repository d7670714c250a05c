// SLP — the multi-level algorithm (Section V): recursively apply the SLP1
// machinery top-down. At each internal broker, the one-level pipeline
// (FilterAssign + max-flow) distributes the node's subscribers among its
// child subtrees, treated as virtual targets with optimistic latency and
// aggregated capacity; each child is then processed recursively with its
// share.
//
// Per the technical-report role of the threshold γ, a recursion node whose
// subscriber share is at most γ skips the LP machinery and partitions
// greedily (nearest feasible child with available capacity).
//
// RunSlp is also SLP1's entry point (Section IV): on a one-level tree the
// root stage is SLP1's FilterAssign and max-flow over the leaves, then
// GlobalRepair re-runs the leaf-level flow with an α-MEB cover of each
// leaf's assigned subscriptions added to its filters. A one-level problem
// with at most γ subscribers is partitioned greedily, with no bound.

#ifndef SLP_CORE_SLP_H_
#define SLP_CORE_SLP_H_

#include "src/common/random.h"
#include "src/common/status.h"
#include "src/core/assignment.h"
#include "src/core/filter_assign.h"
#include "src/core/problem.h"
#include "src/core/subscription_assign.h"

namespace slp::core {

// One SLP1 stage's options, used at every node that runs the LP machinery
// (subscription_assign also drives GlobalRepair's flow).
struct Slp1Options {
  FilterAssignOptions filter_assign;
  SubscriptionAssignOptions subscription_assign;
};

struct SlpOptions {
  Slp1Options slp1;
  // LP-bypass threshold: recursion nodes with at most this many subscribers
  // are partitioned greedily.
  int gamma = 64;
  // 1 runs the child-subtree recursion and the repair covering serially on
  // the calling thread; any other value uses the shared thread pool
  // (ThreadPool::Global). Results are bit-identical either way: every
  // parallel region draws from per-subtree RNG streams forked (salted by
  // node id) before dispatch, never from a shared generator.
  int num_threads = 0;
  // Number of contiguous shards the parallel regions (child-subtree
  // fan-out, the GlobalRepair per-leaf covering, and the targets' per-row
  // nearest-target pass) are split into before dispatching on the pool.
  // <= 0 derives one shard per pool thread. Any value is bit-identical to
  // serial: work items depend only on their own index (RNG streams are
  // forked per index before dispatch) and each writes only its own slots,
  // so the partition never affects the output — only the scheduling
  // granularity.
  int num_shards = 0;
};

// Sums over every FilterAssign call of the run (FilterAssignResult has
// the per-call meaning of each counter).
struct SlpStats {
  int slp1_invocations = 0;
  int lp_calls = 0;
  int pivots = 0;
  int degenerate_pivots = 0;
  int bland_pivots = 0;
};

// Runs SLP over the tree of `problem`. fractional_lower_bound of the
// result is the root-level LP objective, -1 if the root ran no LP (only
// the one-level case makes it a bandwidth lower bound; see DESIGN.md).
Result<SaSolution> RunSlp(const SaProblem& problem, const SlpOptions& options,
                          Rng& rng, SlpStats* stats = nullptr);

// Groups each subscriber's subscription rectangle under its assigned leaf
// node (indexed by node id). An assignment entry that is still the -1
// sentinel, out of range, or not a leaf is an INTERNAL error, not undefined
// behavior — GlobalRepair relies on this guard before indexing.
Result<std::vector<std::vector<geo::Rectangle>>> GroupSubscriptionsByLeaf(
    const SaProblem& problem, const std::vector<int>& assignment);

}  // namespace slp::core

#endif  // SLP_CORE_SLP_H_
