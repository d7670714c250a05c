// Differential suite for the assignment-flow kernel
// (src/core/assignment_flow.h): on every input, the kernel must leave
// exactly the per-row targets, the flow and the achieved β that the
// linked-list Dinic of tests/flow_oracle.h leaves. Three input sets:
//  * seeded random bipartite instances (caps from 0 to oversubscribed,
//    seeding on and off, β escalation, arbitrary chained cap raises and
//    re-solves from zero flow);
//  * SLP1 step-2 stages of seeded grid instances: FilterAssign's filters
//    at the root and below it, enrichment rounds, and GlobalRepair's
//    leaf-level shape;
//  * every bisection step of the Balance baseline, and its final
//    assignment.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/random.h"
#include "src/core/assignment_flow.h"
#include "src/core/balance.h"
#include "src/core/candidates.h"
#include "src/core/filter_adjust.h"
#include "src/core/filter_assign.h"
#include "src/core/problem.h"
#include "src/core/slp.h"
#include "src/core/subscription_assign.h"
#include "src/geometry/filter.h"
#include "src/network/broker_tree.h"
#include "src/network/tree_builder.h"
#include "src/workload/grid.h"
#include "tests/flow_oracle.h"
#include "tests/test_util.h"

namespace slp {
namespace {

using core::AssignmentFlow;
using core::CoverTable;

// The oracle network, with its edges added in RunFlow's order (source →
// target edges by target id, then per row its sink edge and its cover
// edges in cover order), so its per-row targets can be read back and its
// flow seeded row by row.
class OracleNetwork {
 public:
  OracleNetwork(int num_targets, const CoverTable& covers)
      : mf_(2 + num_targets + Rows(covers)),
        num_targets_(num_targets),
        row_edges_(Rows(covers)) {
    for (int t = 0; t < num_targets; ++t) {
      target_edge_.push_back(mf_.AddEdge(kSource, 2 + t, 0));
    }
    for (int r = 0; r < Rows(covers); ++r) {
      sink_edge_.push_back(mf_.AddEdge(Node(r), kSink, 1));
      for (int64_t k = covers.offsets[r]; k < covers.offsets[r + 1]; ++k) {
        const int t = covers.target[k];
        row_edges_[r].push_back({mf_.AddEdge(2 + t, Node(r), 1), t});
      }
    }
  }

  void SetCap(int t, int64_t cap) { mf_.SetCapacity(target_edge_[t], cap); }
  void Assign(int r, int t) {
    for (const auto& [edge, target] : row_edges_[r]) {
      if (target == t) {
        mf_.PushPath({target_edge_[t], edge, sink_edge_[r]}, 1);
        return;
      }
    }
    FAIL() << "row " << r << " has no cover on target " << t;
  }
  int64_t Solve() { return mf_.Solve(kSource, kSink); }
  int TargetOf(int r) const {
    for (const auto& [edge, t] : row_edges_[r]) {
      if (mf_.flow(edge) > 0) return t;
    }
    return -1;
  }

 private:
  static constexpr int kSource = 0;
  static constexpr int kSink = 1;
  static int Rows(const CoverTable& covers) {
    return static_cast<int>(covers.offsets.size()) - 1;
  }
  int Node(int r) const { return 2 + num_targets_ + r; }

  flow::MaxFlow mf_;
  int num_targets_;
  std::vector<int> target_edge_;
  std::vector<int> sink_edge_;
  std::vector<std::vector<std::pair<int, int>>> row_edges_;
};

void ExpectSameFlow(const OracleNetwork& oracle, int64_t oracle_flow,
                    const AssignmentFlow& kernel) {
  ASSERT_EQ(oracle_flow, kernel.flow());
  for (int r = 0; r < kernel.num_rows(); ++r) {
    ASSERT_EQ(oracle.TargetOf(r), kernel.target_of(r)) << "row " << r;
  }
}

std::vector<std::vector<flow::CoverEdge>> OracleCovers(
    const CoverTable& covers) {
  std::vector<std::vector<flow::CoverEdge>> out(covers.offsets.size() - 1);
  for (size_t r = 0; r < out.size(); ++r) {
    for (int64_t k = covers.offsets[r]; k < covers.offsets[r + 1]; ++k) {
      out[r].push_back({covers.target[k], covers.cost[k]});
    }
  }
  return out;
}

// One flow run, both ways, with seeding on and off.
void ExpectSameRuns(const core::SaProblem& problem,
                    const core::Targets& targets, const CoverTable& covers) {
  const auto oracle_covers = OracleCovers(covers);
  for (const bool seeding : {true, false}) {
    SCOPED_TRACE(seeding ? "seeding on" : "seeding off");
    core::SubscriptionAssignOptions options;
    options.cohesion_seeding = seeding;
    const flow::FlowAttempt oracle =
        flow::RunFlow(problem, targets, oracle_covers, options);
    const core::FlowRun run = core::RunFlow(problem, targets, covers, options);
    ASSERT_EQ(oracle.flow, run.flow.flow());
    EXPECT_EQ(oracle.achieved_beta, run.achieved_beta);
    ASSERT_EQ(oracle.target_of, run.flow.target_of());
  }
}

// A problem that carries only a β range: RunFlow reads nothing else of
// it, and the random instances' Targets stand on their own.
core::SaProblem BetaProblem(double beta, double beta_max) {
  net::BrokerTree tree({0, 0});
  tree.AddBroker({1, 0}, net::BrokerTree::kPublisher);
  tree.Finalize();
  wl::Subscriber sub;
  sub.location = {1, 0};
  sub.subscription = geo::Rectangle({0, 0}, {1, 1});
  core::SaConfig config;
  config.beta = beta;
  config.beta_max = beta_max;
  return core::SaProblem(std::move(tree), {sub}, config);
}

// Random covers: 0-8 distinct targets per row, costs drawn from a few
// values so the seeding sort meets long runs of ties, as it does on
// filter-rectangle volumes.
CoverTable RandomCovers(int rows, int num_targets, Rng& rng) {
  CoverTable covers;
  covers.offsets.push_back(0);
  const int max_covers = std::min(8, num_targets);
  for (int r = 0; r < rows; ++r) {
    const int n = static_cast<int>(rng.UniformInt(0, max_covers));
    const int64_t begin = covers.offsets.back();
    while (static_cast<int64_t>(covers.target.size()) - begin < n) {
      const auto t =
          static_cast<int32_t>(rng.UniformInt(0, num_targets - 1));
      if (std::find(covers.target.begin() + begin, covers.target.end(), t) ==
          covers.target.end()) {
        covers.target.push_back(t);
        covers.cost.push_back(0.125 *
                              static_cast<double>(rng.UniformInt(0, 6)));
      }
    }
    covers.offsets.push_back(static_cast<int64_t>(covers.target.size()));
  }
  return covers;
}

TEST(AssignmentFlowDifferentialTest, RandomBipartiteInstancesMatchOracle) {
  constexpr int kInstances = 520;
  int cap_bound = 0;  // instances whose caps strand a coverable row
  for (int instance = 0; instance < kInstances; ++instance) {
    SCOPED_TRACE(::testing::Message() << "instance " << instance);
    Rng rng(9100 + instance);
    // Mostly small instances, with a tail up to 2,000 rows.
    const int max_rows = instance % 10 == 0 ? 2000 : 300;
    const int rows = static_cast<int>(rng.UniformInt(1, max_rows));
    const int nt = static_cast<int>(rng.UniformInt(1, 30));
    const CoverTable covers = RandomCovers(rows, nt, rng);

    // SLP1 step 2's flow run: caps floor(β κ_t n), from 0 (κ_t = 0 or a
    // small n) to several times oversubscribed, escalated toward β_max.
    core::Targets targets;
    targets.count = nt;
    for (int t = 0; t < nt; ++t) {
      const bool zero = rng.UniformInt(0, 7) == 0;
      targets.kappa.push_back(zero ? 0.0 : rng.Uniform(0, 2.0 / nt));
    }
    targets.total_subscribers =
        std::max(1, static_cast<int>(rows * rng.Uniform(0.1, 2.0)));
    const double beta = rng.Uniform(1.0, 1.6);
    const core::SaProblem problem =
        BetaProblem(beta, beta * rng.Uniform(1.0, 2.5));
    ExpectSameRuns(problem, targets, covers);
    if (HasFatalFailure()) return;

    // The bare kernel: random caps, a random seeded flow, then three
    // chained raises of random caps, each re-solved from the current flow;
    // then a re-solve from zero flow under fresh (possibly lower) caps.
    OracleNetwork oracle(nt, covers);
    AssignmentFlow kernel(nt, covers.offsets, covers.target);
    std::vector<int64_t> cap(nt);
    const auto draw_cap = [&] {
      return rng.UniformInt(0, 2 * (rows / nt) + 2);
    };
    for (int t = 0; t < nt; ++t) {
      cap[t] = draw_cap();
      oracle.SetCap(t, cap[t]);
      kernel.SetCap(t, cap[t]);
    }
    for (int r = 0; r < rows; ++r) {
      const auto row = kernel.covers(r);
      if (row.empty() || rng.UniformInt(0, 2) != 0) continue;
      const int t = row[rng.UniformInt(0, static_cast<int>(row.size()) - 1)];
      if (kernel.load(t) >= cap[t]) continue;
      oracle.Assign(r, t);
      kernel.Assign(r, t);
    }
    for (int raise = 0; raise < 4; ++raise) {
      SCOPED_TRACE(::testing::Message() << "raise " << raise);
      const int64_t oracle_flow = oracle.Solve();
      kernel.Solve();
      ExpectSameFlow(oracle, oracle_flow, kernel);
      if (HasFatalFailure()) return;
      for (int t = 0; t < nt; ++t) {
        if (rng.UniformInt(0, 1) == 0) continue;
        cap[t] += rng.UniformInt(0, rows / nt + 1);
        oracle.SetCap(t, cap[t]);
        kernel.SetCap(t, cap[t]);
      }
    }
    int coverable = 0;
    for (int r = 0; r < rows; ++r) coverable += !kernel.covers(r).empty();
    if (kernel.flow() < coverable) ++cap_bound;

    OracleNetwork fresh(nt, covers);
    kernel.Reset();
    for (int t = 0; t < nt; ++t) {
      const int64_t c = draw_cap();
      fresh.SetCap(t, c);
      kernel.SetCap(t, c);
    }
    const int64_t fresh_flow = fresh.Solve();
    kernel.Solve();
    ExpectSameFlow(fresh, fresh_flow, kernel);
    if (HasFatalFailure()) return;
  }
  // Both cap-bound flows and flows that route every coverable row were
  // exercised.
  EXPECT_GT(cap_bound, kInstances / 10);
  EXPECT_LT(cap_bound, kInstances - kInstances / 10);
}

// A seeded multi-level grid instance, as perfbench's `solve` draws them.
core::SaProblem GridProblem(uint64_t seed, core::SaConfig config) {
  wl::GridParams params;
  params.num_subscribers = 1500;
  params.num_brokers = 20;
  params.seed = seed;
  wl::Workload w = wl::GenerateGrid(params);
  Rng rng(seed);
  net::BrokerTree tree =
      net::BuildMultiLevelTree(w.publisher, w.broker_locations, 4, rng);
  return core::SaProblem(std::move(tree), std::move(w.subscribers), config);
}

// The stage's covers both ways, then its flow runs.
void ExpectStageMatches(const core::SaProblem& problem,
                        const core::Targets& targets,
                        const std::vector<geo::Filter>& filters) {
  const CoverTable covers = core::ComputeCovers(problem, targets, filters);
  const auto oracle_covers = flow::ComputeCovers(problem, targets, filters);
  ASSERT_EQ(oracle_covers.size() + 1, covers.offsets.size());
  for (size_t r = 0; r < oracle_covers.size(); ++r) {
    ASSERT_EQ(static_cast<int64_t>(oracle_covers[r].size()),
              covers.offsets[r + 1] - covers.offsets[r]);
    for (size_t c = 0; c < oracle_covers[r].size(); ++c) {
      ASSERT_EQ(oracle_covers[r][c].target,
                covers.target[covers.offsets[r] + c]);
      ASSERT_EQ(oracle_covers[r][c].cost, covers.cost[covers.offsets[r] + c]);
    }
  }
  ExpectSameRuns(problem, targets, covers);
}

// The first node below the publisher with more than one child: SLP's
// root stage.
int RootStageNode(const net::BrokerTree& tree) {
  int node = net::BrokerTree::kPublisher;
  while (tree.children(node).size() == 1) node = tree.children(node)[0];
  return node;
}

TEST(AssignmentFlowDifferentialTest, GridStagesMatchOracle) {
  int root_stages = 0, lower_stages = 0, enriched_stages = 0;
  for (const uint64_t seed : {1, 2, 3}) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    core::SaConfig loose;
    loose.max_delay = 1.0;
    // β = β_max = 1 strands rows at the root, so enrichment runs.
    core::SaConfig tight = loose;
    tight.beta = 1.0;
    tight.beta_max = 1.0;
    for (const core::SaConfig& config : {loose, tight}) {
      const core::SaProblem problem = GridProblem(seed, config);
      const net::BrokerTree& tree = problem.tree();
      const int root = RootStageNode(tree);
      const core::Targets targets =
          core::BuildChildTargets(problem, core::AllSubscribers(problem), root);
      Rng rng(seed * 31 + 7);
      const auto fa = core::FilterAssign(problem, targets, {}, rng);
      ASSERT_TRUE(fa.ok());
      ExpectStageMatches(problem, targets, fa.value().filters);
      if (HasFatalFailure()) return;
      ++root_stages;

      // Enrichment: AssignByMaxFlow with k rounds leaves the filters its
      // k-th re-run solved over.
      for (int rounds = 1; rounds <= 3; ++rounds) {
        std::vector<geo::Filter> filters = fa.value().filters;
        Rng enrich_rng(seed);
        core::SubscriptionAssignOptions options;
        options.enrichment_rounds = rounds;
        const auto enriched = core::AssignByMaxFlow(problem, targets, &filters,
                                                    enrich_rng, options);
        ASSERT_TRUE(enriched.ok());
        bool grew = false;
        for (int t = 0; t < targets.count; ++t) {
          grew |= filters[t].size() != fa.value().filters[t].size();
        }
        if (!grew) break;
        ExpectStageMatches(problem, targets, filters);
        if (HasFatalFailure()) return;
        ++enriched_stages;
      }

      // Below the root: each interior child's stage over its share.
      std::vector<geo::Filter> filters = fa.value().filters;
      const auto sa = core::AssignByMaxFlow(problem, targets, &filters, rng);
      ASSERT_TRUE(sa.ok());
      const auto& children = tree.children(root);
      for (size_t c = 0; c < children.size(); ++c) {
        const int child = children[c];
        if (tree.is_leaf(child) || tree.children(child).size() < 2) continue;
        std::vector<int> share;
        for (int r = 0; r < targets.num_rows(); ++r) {
          if (sa.value().target_of[r] == static_cast<int>(c)) {
            share.push_back(targets.subscribers[r]);
          }
        }
        if (share.size() < 2) continue;
        const core::Targets below =
            core::BuildChildTargets(problem, share, child);
        const auto below_fa = core::FilterAssign(problem, below, {}, rng);
        ASSERT_TRUE(below_fa.ok());
        ExpectStageMatches(problem, below, below_fa.value().filters);
        if (HasFatalFailure()) return;
        ++lower_stages;
      }
    }
  }
  EXPECT_EQ(root_stages, 6);
  EXPECT_GT(lower_stages, 0);
  EXPECT_GT(enriched_stages, 0);
}

// GlobalRepair's shape: every subscriber over the leaves, each leaf's
// filter (here SLP's final one) plus an α-MEB cover of the subscriptions
// SLP assigned it.
TEST(AssignmentFlowDifferentialTest, GlobalRepairShapeMatchesOracle) {
  for (const uint64_t seed : {4, 5}) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    core::SaConfig config;
    config.max_delay = 1.0;
    const core::SaProblem problem = GridProblem(seed, config);
    core::SlpOptions options;
    options.num_threads = 1;
    Rng rng(seed);
    const auto solved = core::RunSlp(problem, options, rng);
    ASSERT_TRUE(solved.ok());
    const auto assigned =
        core::GroupSubscriptionsByLeaf(problem, solved.value().assignment);
    ASSERT_TRUE(assigned.ok());
    const core::Targets targets =
        core::BuildLeafTargets(problem, core::AllSubscribers(problem));
    std::vector<geo::Filter> filters(targets.count);
    for (int t = 0; t < targets.count; ++t) {
      const int leaf = problem.leaf_node(t);
      filters[t] = solved.value().filters[leaf];
      const geo::Filter current = core::CoverWithAlphaMebs(
          assigned.value()[leaf], problem.config().alpha, rng);
      for (const auto& rect : current.rects()) filters[t].Add(rect);
    }
    ExpectStageMatches(problem, targets, filters);
    if (HasFatalFailure()) return;
  }
}

// Balance's feasibility check on the oracle, over the network RunBalance
// solves (source → leaf edges by leaf index, then per subscriber its sink
// edge and its latency-feasible leaves in leaf order): true and
// `assignment` (subscriber -> leaf node) when every subscriber fits under
// caps floor(lbf κ_i m).
bool OracleTryAssign(const core::SaProblem& problem,
                     const std::vector<std::vector<int>>& candidates,
                     double lbf, std::vector<int>* assignment,
                     int64_t* routed) {
  const int m = problem.num_subscribers();
  const int l = problem.num_leaves();
  flow::MaxFlow mf(2 + l + m);
  const int s = 0, t = 1;
  for (int i = 0; i < l; ++i) {
    const auto cap = static_cast<int64_t>(
        std::floor(lbf * problem.capacity_fraction(i) * m + 1e-9));
    mf.AddEdge(s, 2 + i, cap);
  }
  std::vector<std::vector<std::pair<int, int>>> sub_edges(m);
  for (int j = 0; j < m; ++j) {
    mf.AddEdge(2 + l + j, t, 1);
    for (int leaf : candidates[j]) {
      const int i = problem.leaf_index(leaf);
      sub_edges[j].push_back({mf.AddEdge(2 + i, 2 + l + j, 1), leaf});
    }
  }
  *routed = mf.Solve(s, t);
  assignment->assign(m, -1);
  for (int j = 0; j < m; ++j) {
    for (const auto& [edge, leaf] : sub_edges[j]) {
      if (mf.flow(edge) > 0) {
        (*assignment)[j] = leaf;
        break;
      }
    }
  }
  return *routed == m;
}

TEST(AssignmentFlowDifferentialTest, BalanceBisectionMatchesOracle) {
  core::SaConfig config;
  config.max_delay = 0.5;
  const std::vector<core::SaProblem> problems = {
      test::SmallGridProblem(600, 10, config, 11),
      test::SmallGgProblem(800, 12, config, 12),
      test::SmallMultiLevelProblem(800, 30, 5, config, 13)};
  for (const core::SaProblem& problem : problems) {
    const int m = problem.num_subscribers();
    const int l = problem.num_leaves();
    const auto& tree = problem.tree();
    std::vector<std::vector<int>> candidates(m);
    std::vector<int64_t> offsets = {0};
    std::vector<int32_t> leaves;
    for (int j = 0; j < m; ++j) {
      for (int leaf : tree.leaf_brokers()) {
        if (!problem.LatencyOk(j, leaf)) continue;
        candidates[j].push_back(leaf);
        leaves.push_back(problem.leaf_index(leaf));
      }
      offsets.push_back(static_cast<int64_t>(leaves.size()));
    }
    AssignmentFlow kernel(l, offsets, leaves);

    // RunBalance's bisection, each step checked against the kernel
    // re-solved from zero flow.
    double min_kappa = 1.0;
    for (int i = 0; i < l; ++i) {
      min_kappa = std::min(min_kappa, problem.capacity_fraction(i));
    }
    double lo = 1.0 / m;
    double hi = min_kappa > 0 ? 1.0 / min_kappa + 1 : m;
    int steps = 0;
    // One bisection step both ways; returns the oracle's verdict.
    const auto step = [&](double lbf, std::vector<int>* assignment) {
      int64_t oracle_flow = 0;
      const bool ok =
          OracleTryAssign(problem, candidates, lbf, assignment, &oracle_flow);
      kernel.Reset();
      for (int i = 0; i < l; ++i) {
        const auto cap = static_cast<int64_t>(
            std::floor(lbf * problem.capacity_fraction(i) * m + 1e-9));
        kernel.SetCap(i, cap);
      }
      EXPECT_EQ(oracle_flow, kernel.Solve());
      for (int j = 0; j < m; ++j) {
        const int t = kernel.target_of(j);
        EXPECT_EQ((*assignment)[j], t < 0 ? -1 : problem.leaf_node(t))
            << "subscriber " << j << " at lbf " << lbf;
      }
      ++steps;
      return ok;
    };
    std::vector<int> best;
    ASSERT_TRUE(step(hi, &best));
    for (int iter = 0; iter < 40 && hi - lo > 1e-4 * hi; ++iter) {
      const double mid = (lo + hi) / 2;
      std::vector<int> attempt;
      if (step(mid, &attempt)) {
        hi = mid;
        best = std::move(attempt);
      } else {
        lo = mid;
      }
    }
    EXPECT_GT(steps, 5);
    Rng rng(1);
    EXPECT_EQ(core::RunBalance(problem, rng).assignment, best);
  }
}

}  // namespace
}  // namespace slp
