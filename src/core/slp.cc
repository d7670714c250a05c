#include "src/core/slp.h"

#include <algorithm>
#include <limits>
#include <string>
#include <utility>

#include "src/common/invariant.h"
#include "src/common/parallel.h"
#include "src/common/sync.h"
#include "src/common/status.h"
#include "src/core/audit.h"
#include "src/core/candidates.h"
#include "src/core/filter_adjust.h"
#include "src/core/filter_assign.h"
#include "src/core/subscription_assign.h"

namespace slp::core {

namespace {

class SlpRunner {
 public:
  SlpRunner(const SaProblem& problem, const SlpOptions& options, Rng& rng,
            SlpStats* stats)
      : problem_(problem), options_(options), rng_(rng), stats_(stats) {}

  Result<SaSolution> Run() {
    SaSolution solution;
    solution.algorithm = "SLP";
    solution.assignment.assign(problem_.num_subscribers(), -1);

    // Pre-size before the recursion: concurrent child subtrees write
    // disjoint slots but must never resize the vector.
    preliminary_leaf_filters_.assign(problem_.tree().num_nodes(),
                                     geo::Filter());

    Rng root_rng = rng_.Fork(net::BrokerTree::kPublisher);
    const Status st = Recurse(net::BrokerTree::kPublisher,
                              AllSubscribers(problem_), &solution,
                              /*is_root=*/true, root_rng);
    if (!st.ok()) return st;

    // Global load repair: the per-level assignments enforce the load caps
    // only against sampled Sb sets, and the sampling error compounds down
    // the recursion. One leaf-level max-flow over the whole subscriber set
    // restores the global cap wherever feasible. Its cohesion seeding is
    // cost-ordered over every cover, not over current leaves: a subscriber
    // starts at its current leaf only when that leaf's cover is also its
    // cheapest.
    SLP_RETURN_IF_ERROR(GlobalRepair(&solution));

    AdjustLeafFilters(problem_, &solution, rng_);
    BuildInternalFilters(problem_, &solution, rng_);
    SetFeasibilityFlags(problem_, &solution);
#if SLP_AUDITS_ENABLED
    AuditNesting(problem_, solution);
#endif
    return solution;
  }

 private:
  // How many contiguous shards an n-item parallel region is split into.
  int ShardCount(int n) const {
    if (n <= 1 || options_.num_threads == 1) return 1;
    const int shards = options_.num_shards > 0
                           ? options_.num_shards
                           : ThreadPool::Global().num_workers() + 1;
    return std::clamp(shards, 1, n);
  }

  // Runs fn(0..n-1), split into ShardCount(n) contiguous index shards
  // dispatched on the shared pool (serially on the calling thread when the
  // run is pinned to one thread). Tasks must synchronize any shared writes
  // themselves; each index's work depends only on that index, so the shard
  // partition affects scheduling granularity, never results.
  void RunSharded(int n, const std::function<void(int)>& fn) {
    const int shards = ShardCount(n);
    if (shards == 1 && options_.num_threads == 1) {
      for (int i = 0; i < n; ++i) fn(i);
      return;
    }
    ThreadPool::Global().ParallelFor(shards, [&](int s) {
      const int begin =
          static_cast<int>(static_cast<int64_t>(n) * s / shards);
      const int end =
          static_cast<int>(static_cast<int64_t>(n) * (s + 1) / shards);
      for (int i = begin; i < end; ++i) fn(i);
    });
  }

  // Leaf-level rebalance across the whole tree (see Run()). Leaf filters
  // for the repair are the recursion's preliminary filters plus an α-MEB
  // cover of each leaf's currently assigned subscriptions, so the current
  // assignment is always one of the flow's options.
  Status GlobalRepair(SaSolution* solution) {
    const auto& tree = problem_.tree();
    const Targets targets =
        BuildLeafTargets(problem_, AllSubscribers(problem_),
                         ShardCount(problem_.num_subscribers()));

    Result<std::vector<std::vector<geo::Rectangle>>> assigned =
        GroupSubscriptionsByLeaf(problem_, solution->assignment);
    if (!assigned.ok()) return assigned.status();

    // Per-leaf covering is independent; fork one stream per target (salted
    // by leaf node id) before dispatching so the covering is reproducible
    // at any thread count.
    std::vector<Rng> leaf_rngs;
    leaf_rngs.reserve(targets.count);
    for (int t = 0; t < targets.count; ++t) {
      leaf_rngs.push_back(rng_.Fork(problem_.leaf_node(t)));
    }
    std::vector<geo::Filter> filters(targets.count);
    RunSharded(targets.count, [&](int t) {
      const int leaf = problem_.leaf_node(t);
      filters[t] = preliminary_leaf_filters_[leaf];
      const geo::Filter current = CoverWithAlphaMebs(
          assigned.value()[leaf], problem_.config().alpha, leaf_rngs[t]);
      for (const auto& rect : current.rects()) filters[t].Add(rect);
    });

    Result<SubscriptionAssignResult> repaired = AssignByMaxFlow(
        problem_, targets, &filters, rng_, options_.slp1.subscription_assign);
    if (!repaired.ok()) return repaired.status();
    for (size_t r = 0; r < targets.subscribers.size(); ++r) {
      solution->assignment[targets.subscribers[r]] =
          problem_.leaf_node(repaired.value().target_of[r]);
    }
    // Hand the (possibly enriched) repair filters to the adjustment step.
    solution->filters.assign(tree.num_nodes(), geo::Filter());
    for (int t = 0; t < targets.count; ++t) {
      solution->filters[problem_.leaf_node(t)] = filters[t];
    }
    return Status::OK();
  }

  // Distributes `subs` (problem subscriber indices) below `node`. `rng` is
  // this subtree's private stream; concurrent siblings never share one.
  Status Recurse(int node, std::vector<int> subs, SaSolution* solution,
                 bool is_root, Rng& rng) {
    if (subs.empty()) return Status::OK();
    const auto& tree = problem_.tree();
    if (node != net::BrokerTree::kPublisher && tree.is_leaf(node)) {
      for (int j : subs) solution->assignment[j] = node;
      return Status::OK();
    }
    const auto& children = tree.children(node);
    SLP_DCHECK(!children.empty());
    if (children.size() == 1) {
      return Recurse(children[0], std::move(subs), solution, is_root, rng);
    }

    const Targets targets = BuildChildTargets(
        problem_, subs, node, ShardCount(static_cast<int>(subs.size())));
    std::vector<int> target_of;
    // A spent deadline degrades every remaining recursion node to the
    // greedy partition (FilterAssign would only burn time completing
    // deterministically anyway); checking it consumes no randomness, so an
    // infinite deadline leaves the run bit-identical.
    if (static_cast<int>(subs.size()) <= options_.gamma ||
        options_.slp1.filter_assign.deadline.expired()) {
      if (static_cast<int>(subs.size()) > options_.gamma &&
          stats_ != nullptr) {
        MutexLock lock(mu_);
        stats_->any_budget_exhausted = true;
      }
      target_of = GreedyPartition(targets);
    } else {
      // One SLP1 stage over the child subtrees.
      if (stats_ != nullptr) {
        MutexLock lock(mu_);
        ++stats_->slp1_invocations;
      }
      Result<FilterAssignResult> fa =
          FilterAssign(problem_, targets, options_.slp1.filter_assign, rng);
      if (!fa.ok()) return fa.status();
      if (stats_ != nullptr) {
        MutexLock lock(mu_);
        stats_->lp_calls += fa.value().lp_calls;
        stats_->pivots += fa.value().pivots;
        stats_->degenerate_pivots += fa.value().degenerate_pivots;
        stats_->bland_pivots += fa.value().bland_pivots;
        stats_->any_budget_exhausted |= fa.value().budget_exhausted;
      }
      if (is_root) {
        solution->fractional_lower_bound = fa.value().fractional_objective;
      }
      std::vector<geo::Filter> preliminary = fa.value().filters;
      Result<SubscriptionAssignResult> sa = AssignByMaxFlow(
          problem_, targets, &preliminary, rng,
          options_.slp1.subscription_assign);
      if (!sa.ok()) return sa.status();
      target_of = sa.value().target_of;
      // Remember leaf-level preliminary filters for the adjustment step
      // (pre-sized in Run(); children are disjoint across sibling tasks).
      for (int t = 0; t < targets.count; ++t) {
        const int child = children[t];
        if (tree.is_leaf(child)) {
          preliminary_leaf_filters_[child] = preliminary[t];
        }
      }
    }

    // Recurse per child with its share. Child subtrees are independent:
    // fork every child's stream first (deterministic order, salted by the
    // child's node id), then fan the recursion out over the pool.
    std::vector<std::vector<int>> share(children.size());
    for (size_t r = 0; r < subs.size(); ++r) {
      SLP_DCHECK(target_of[r] >= 0);
      share[target_of[r]].push_back(subs[r]);
    }
    std::vector<Rng> child_rngs;
    child_rngs.reserve(children.size());
    for (int child : children) child_rngs.push_back(rng.Fork(child));
    std::vector<Status> child_status(children.size());
    RunSharded(static_cast<int>(children.size()), [&](int c) {
      child_status[c] = Recurse(children[c], std::move(share[c]), solution,
                                false, child_rngs[c]);
    });
    for (const Status& st : child_status) SLP_RETURN_IF_ERROR(st);
    return Status::OK();
  }

  // γ-small nodes: nearest feasible child with available capacity (under
  // β, then β_max), falling back to the nearest feasible child.
  std::vector<int> GreedyPartition(const Targets& targets) {
    const int rows = static_cast<int>(targets.subscribers.size());
    std::vector<int> load(targets.count, 0);
    std::vector<int> target_of(rows, -1);
    for (int r = 0; r < rows; ++r) {
      const CandidateRow cand = targets.candidates(r);
      SLP_DCHECK(!cand.empty());
      int pick = -1;
      for (double lbf : {problem_.config().beta, problem_.config().beta_max}) {
        for (int t : cand) {
          if (load[t] + 1 <= targets.AbsCap(t, lbf) + 1e-9) {
            pick = t;
            break;
          }
        }
        if (pick >= 0) break;
      }
      if (pick < 0) pick = cand[0];
      target_of[r] = pick;
      ++load[pick];
    }
    return target_of;
  }

  const SaProblem& problem_;
  const SlpOptions options_;
  Rng& rng_;
  // The pointer is set once at construction (may be null); the pointee is
  // mutated by concurrent subtree tasks and therefore guarded.
  SlpStats* stats_ SLP_PT_GUARDED_BY(mu_);
  // Written by concurrent subtree tasks at *disjoint* leaf indices into a
  // pre-sized vector (never resized during the recursion) — data-race-free
  // by index disjointness, which the type system cannot express; see the
  // pre-sizing note in Run().
  std::vector<geo::Filter> preliminary_leaf_filters_;
  // Guards the stats_ pointee from concurrent subtrees.
  Mutex mu_;
};

}  // namespace

Result<std::vector<std::vector<geo::Rectangle>>> GroupSubscriptionsByLeaf(
    const SaProblem& problem, const std::vector<int>& assignment) {
  const auto& tree = problem.tree();
  if (static_cast<int>(assignment.size()) != problem.num_subscribers()) {
    return Status::Internal("assignment size " +
                            std::to_string(assignment.size()) +
                            " != subscriber count " +
                            std::to_string(problem.num_subscribers()));
  }
  std::vector<std::vector<geo::Rectangle>> grouped(tree.num_nodes());
  for (int j = 0; j < problem.num_subscribers(); ++j) {
    const int node = assignment[j];
    if (node < 0 || node >= tree.num_nodes() || !tree.is_leaf(node)) {
      return Status::Internal("subscriber " + std::to_string(j) +
                              " has invalid leaf assignment " +
                              std::to_string(node));
    }
    grouped[node].push_back(problem.subscriber(j).subscription);
  }
  return grouped;
}

Result<SaSolution> RunSlp(const SaProblem& problem, const SlpOptions& options,
                          Rng& rng, SlpStats* stats) {
  SlpRunner runner(problem, options, rng, stats);
  return runner.Run();
}

}  // namespace slp::core
