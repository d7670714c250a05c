#include <algorithm>
#include <cmath>
#include <set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/parallel.h"
#include "src/core/filter_assign.h"
#include "src/core/filter_gen.h"
#include "src/core/greedy.h"
#include "src/core/lp_relax.h"
#include "src/core/metrics.h"
#include "src/core/slp.h"
#include "src/core/subscription_assign.h"
#include "tests/test_util.h"

namespace slp::core {
namespace {

using geo::Filter;
using geo::Rectangle;

// ---------------------------------------------------------------------------
// FilterGen
// ---------------------------------------------------------------------------

TEST(FilterGenTest, EverySubscriptionCovered) {
  SaProblem p = test::SmallGridProblem(400, 8);
  Rng rng(1);
  auto rects = FilterGen(p, AllSubscribers(p), 8, rng);
  ASSERT_FALSE(rects.empty());
  for (int j = 0; j < p.num_subscribers(); ++j) {
    bool covered = false;
    for (const auto& r : rects) {
      if (r.Contains(p.subscriber(j).subscription)) {
        covered = true;
        break;
      }
    }
    EXPECT_TRUE(covered) << "subscription " << j;
  }
}

TEST(FilterGenTest, SortedByVolumeAndDeduped) {
  SaProblem p = test::SmallGgProblem(500, 8);
  Rng rng(2);
  auto rects = FilterGen(p, AllSubscribers(p), 8, rng);
  for (size_t i = 1; i < rects.size(); ++i) {
    EXPECT_LE(rects[i - 1].Volume(), rects[i].Volume() + 1e-15);
  }
  std::set<std::pair<std::vector<double>, std::vector<double>>> seen;
  for (const auto& r : rects) {
    EXPECT_TRUE(seen.insert({r.lo(), r.hi()}).second) << "duplicate rect";
  }
}

TEST(FilterGenTest, SmallInputSkipsSuperSubscriptions) {
  // With fewer subscriptions than k = 5 * targets, candidates come from the
  // raw subscriptions; each subscription itself should appear (as the
  // shrunken MEB of a singleton product cell at the finest level).
  SaProblem p = test::SmallGridProblem(30, 4);
  Rng rng(4);
  auto rects = FilterGen(p, AllSubscribers(p), 4, rng);
  for (int j = 0; j < p.num_subscribers(); ++j) {
    bool covered = false;
    for (const auto& r : rects) {
      covered = covered || r.Contains(p.subscriber(j).subscription);
    }
    EXPECT_TRUE(covered);
  }
}

TEST(FilterGenTest, IdenticalSubscriptionsYieldOneTightCandidate) {
  net::BrokerTree tree({0, 0});
  tree.AddBroker({1, 0}, net::BrokerTree::kPublisher);
  tree.Finalize();
  std::vector<wl::Subscriber> subs(20);
  for (auto& s : subs) {
    s.location = {1, 1};
    s.subscription = Rectangle({0.2, 0.2}, {0.4, 0.4});
  }
  SaProblem p(std::move(tree), std::move(subs), SaConfig{});
  Rng rng(5);
  auto rects = FilterGen(p, AllSubscribers(p), 1, rng);
  ASSERT_EQ(rects.size(), 1u);
  EXPECT_TRUE(rects[0] == Rectangle({0.2, 0.2}, {0.4, 0.4}));
}

// ---------------------------------------------------------------------------
// LPRelax
// ---------------------------------------------------------------------------

// Two far-apart brokers, two far-apart topic clusters, α = 1: the LP should
// give each broker one small rectangle rather than anyone the global MEB.
TEST(LpRelaxTest, SeparatesTopicClustersAcrossBrokers) {
  net::BrokerTree tree({0, 0});
  tree.AddBroker({1, 0}, net::BrokerTree::kPublisher);
  tree.AddBroker({-1, 0}, net::BrokerTree::kPublisher);
  tree.Finalize();
  std::vector<wl::Subscriber> subs(40);
  for (int i = 0; i < 40; ++i) {
    subs[i].location = {0, 1};  // equidistant; latency unconstraining
    const double base = (i % 2 == 0) ? 0.0 : 0.8;
    subs[i].subscription =
        Rectangle({base, base}, {base + 0.1, base + 0.1});
  }
  SaConfig config;
  config.alpha = 1;
  config.max_delay = 2.0;
  config.beta = 1.2;
  config.beta_max = 1.5;
  SaProblem p(std::move(tree), std::move(subs), config);
  Targets targets = BuildLeafTargets(p, AllSubscribers(p));

  std::vector<int> all_rows(targets.subscribers.size());
  for (size_t i = 0; i < all_rows.size(); ++i) all_rows[i] = static_cast<int>(i);
  Rng rng(6);
  auto rects = FilterGen(p, AllSubscribers(p), 2, rng);
  auto model =
      LpRelaxModel::Build(p, targets, all_rows, all_rows, rects, rng);
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  auto result = model.value().Solve(rng);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // Fractional optimum: two 0.1x0.1 rectangles = 0.02 total volume. Allow
  // headroom for the candidate grid but demand far less than the global
  // MEB volume (~0.81).
  EXPECT_LE(result.value().fractional_objective, 0.1);
  EXPECT_GT(result.value().fractional_objective, 0.0);
  // Rounded filters must cover all of Sa.
  int covered = 0;
  for (int j = 0; j < p.num_subscribers(); ++j) {
    for (int t = 0; t < targets.count; ++t) {
      if (result.value().filters[t].CoversRect(p.subscriber(j).subscription)) {
        ++covered;
        break;
      }
    }
  }
  EXPECT_EQ(covered, p.num_subscribers());
}

TEST(LpRelaxTest, InfeasibleWhenLoadCapForcesSplitButOnlyOneBrokerFeasible) {
  // Both brokers exist, but latency admits only broker 1 for everyone and
  // β κ |Sb| < |Sb| makes C3 unsatisfiable.
  net::BrokerTree tree({0, 0});
  tree.AddBroker({0, 0.1}, net::BrokerTree::kPublisher);
  tree.AddBroker({50, 0}, net::BrokerTree::kPublisher);
  tree.Finalize();
  std::vector<wl::Subscriber> subs(20);
  for (auto& s : subs) {
    s.location = {0, 0.2};
    s.subscription = Rectangle({0, 0}, {0.1, 0.1});
  }
  SaConfig config;
  config.max_delay = 0.05;
  config.beta = 1.2;  // cap = 1.2 * 0.5 * 20 = 12 < 20
  SaProblem p(std::move(tree), std::move(subs), config);
  Targets targets = BuildLeafTargets(p, AllSubscribers(p));
  std::vector<int> all_rows(20);
  for (int i = 0; i < 20; ++i) all_rows[i] = i;
  Rng rng(7);
  auto rects = FilterGen(p, AllSubscribers(p), 2, rng);
  auto model =
      LpRelaxModel::Build(p, targets, all_rows, all_rows, rects, rng);
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  auto result = model.value().Solve(rng);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInfeasible);
}

TEST(LpRelaxTest, FractionalObjectiveIsLowerBoundForItsOwnRounding) {
  // Loose load balance so the skewed Sb sample cannot make (C3) infeasible
  // (this test exercises the objective/rounding relation, not feasibility).
  SaConfig config;
  config.beta = 4.0;
  config.beta_max = 4.5;
  SaProblem p = test::SmallGgProblem(300, 6, config);
  Targets targets = BuildLeafTargets(p, AllSubscribers(p));
  std::vector<int> sa_rows;
  for (int i = 0; i < 300; i += 2) sa_rows.push_back(i);
  std::vector<int> sb_rows;
  for (int i = 0; i < 300; i += 5) sb_rows.push_back(i);
  // Sb must be a subset of Sa for the LP; merge.
  std::set<int> sa_set(sa_rows.begin(), sa_rows.end());
  sa_set.insert(sb_rows.begin(), sb_rows.end());
  sa_rows.assign(sa_set.begin(), sa_set.end());

  std::vector<int> sa_subs;
  for (int r : sa_rows) sa_subs.push_back(targets.subscribers[r]);
  Rng rng(8);
  auto rects = FilterGen(p, sa_subs, targets.count, rng);
  auto model = LpRelaxModel::Build(p, targets, sa_rows, sb_rows, rects, rng);
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  auto result = model.value().Solve(rng);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  double rounded_sum = 0;
  for (const auto& f : result.value().filters) rounded_sum += f.SumVolume();
  EXPECT_LE(result.value().fractional_objective, rounded_sum + 1e-9);
}

// ---------------------------------------------------------------------------
// The cover rule: one containment scan answers every cover question
// ---------------------------------------------------------------------------

// Random filters of one to four rectangles per target, sized so that some
// rows are covered several times and some not at all.
std::vector<Filter> RandomFilters(int count, Rng& rng) {
  std::vector<Filter> filters(count);
  for (Filter& f : filters) {
    const int rects = static_cast<int>(rng.UniformInt(1, 4));
    for (int k = 0; k < rects; ++k) {
      f.Add(Rectangle::FromCenter({rng.Uniform(0, 1), rng.Uniform(0, 1)},
                                  {rng.Uniform(0, 0.6), rng.Uniform(0, 0.6)}));
    }
  }
  return filters;
}

// The rows FilterAssign's coverage test reports uncovered (a first-only
// row is empty) are exactly the rows where no target of B_j has a filter
// rectangle containing the subscription, and a first-only row's one cover
// is among the row's full covers. Returns the number of covered rows.
int ExpectFirstOnlyMatchesCandidateRule(const SaProblem& p,
                                        const Targets& targets, Rng& rng) {
  const std::vector<Filter> filters = RandomFilters(targets.count, rng);
  const CoverTable first =
      ComputeCovers(p, targets, filters, /*first_only=*/true);
  const CoverTable full = ComputeCovers(p, targets, filters);
  int covered_rows = 0;
  for (int r = 0; r < targets.num_rows(); ++r) {
    const Rectangle& sub = p.subscriber(targets.subscribers[r]).subscription;
    bool covered = false;
    for (int t : Candidates(p, targets, r)) {
      covered = covered || filters[t].CoversRect(sub);
    }
    EXPECT_EQ(first.offsets[r + 1] - first.offsets[r], covered ? 1 : 0)
        << "row " << r;
    EXPECT_EQ(full.offsets[r + 1] > full.offsets[r], covered) << "row " << r;
    if (covered && first.offsets[r + 1] > first.offsets[r]) {
      const auto begin = full.target.begin() + full.offsets[r];
      const auto end = full.target.begin() + full.offsets[r + 1];
      EXPECT_NE(std::find(begin, end, first.target[first.offsets[r]]), end)
          << "row " << r;
    }
    covered_rows += covered ? 1 : 0;
  }
  return covered_rows;
}

TEST(CoverRuleTest, FirstOnlyEmptyRowsMatchCandidateCoversRect) {
  SaConfig config;
  config.max_delay = 0.4;
  const SaProblem leaf_problem = test::SmallGridProblem(300, 8, config);
  const SaProblem deep = test::SmallMultiLevelProblem(300, 20, 4, config, 5);
  std::vector<std::pair<const SaProblem*, Targets>> stages = {
      {&leaf_problem,
       BuildLeafTargets(leaf_problem, AllSubscribers(leaf_problem))}};
  for (int node = 0; node < deep.tree().num_nodes(); ++node) {
    if (deep.tree().children(node).size() < 2) continue;
    stages.push_back(
        {&deep, BuildChildTargets(deep, AllSubscribers(deep), node)});
  }
  Rng rng(2027);
  int rows = 0, covered = 0;
  for (int trial = 0; trial < 8; ++trial) {
    for (const auto& [problem, targets] : stages) {
      covered += ExpectFirstOnlyMatchesCandidateRule(*problem, targets, rng);
      rows += targets.num_rows();
    }
  }
  // Both outcomes occur, so neither side of the rule goes untested.
  EXPECT_GT(covered, 0);
  EXPECT_LT(covered, rows);
}

// A rectangle with finite coordinates but infinite volume contains the
// subscription (CoversRect holds), yet it is no cover: no cost can be
// charged for it. The coverage test and the flow follow the same rule, so
// FilterAssign can never hand the flow a filter it then rejects.
TEST(CoverRuleTest, InfiniteVolumeRectangleCoversNothing) {
  net::BrokerTree tree({0, 0});
  tree.AddBroker({1, 0}, net::BrokerTree::kPublisher);
  tree.AddBroker({0, 1}, net::BrokerTree::kPublisher);
  tree.Finalize();
  std::vector<wl::Subscriber> subs(2);
  subs[0].location = {1, 0.5};
  subs[0].subscription = Rectangle({0.1, 0.1}, {0.2, 0.2});
  subs[1].location = {0.5, 1};
  subs[1].subscription = Rectangle({0.7, 0.7}, {0.8, 0.8});
  SaConfig config;
  config.max_delay = 10;  // both leaves are feasible for both subscribers
  const SaProblem p(std::move(tree), subs, config);
  const Targets targets = BuildLeafTargets(p, AllSubscribers(p));

  std::vector<Filter> filters = {
      Filter({Rectangle({-1e200, -1e200}, {1e200, 1e200})}),
      Filter({Rectangle({0.6, 0.6}, {0.9, 0.9})})};
  ASSERT_TRUE(std::isinf(filters[0].rects()[0].Volume()));
  ASSERT_TRUE(filters[0].CoversRect(subs[0].subscription));

  for (bool first_only : {true, false}) {
    const CoverTable covers = ComputeCovers(p, targets, filters, first_only);
    EXPECT_EQ(covers.offsets, (std::vector<int64_t>{0, 0, 1})) << first_only;
    EXPECT_EQ(covers.target, std::vector<int32_t>{1}) << first_only;
  }
  Rng rng(1);
  const auto assigned = AssignByMaxFlow(p, targets, &filters, rng);
  ASSERT_FALSE(assigned.ok());
  EXPECT_EQ(assigned.status().code(), StatusCode::kInfeasible);
}

// ---------------------------------------------------------------------------
// Max-flow subscription assignment
// ---------------------------------------------------------------------------

TEST(SubscriptionAssignTest, AssignsOnlyToCoveringTargets) {
  SaProblem p = test::SmallGridProblem(300, 6);
  Targets targets = BuildLeafTargets(p, AllSubscribers(p));
  // Everyone covered everywhere: one global filter per target.
  std::vector<Filter> filters(targets.count,
                              Filter({Rectangle({0, 0}, {1, 1})}));
  Rng flow_rng(99);
  auto result = AssignByMaxFlow(p, targets, &filters, flow_rng);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.value().load_feasible);
  // Load within achieved β.
  std::vector<int> load(targets.count, 0);
  for (int t : result.value().target_of) {
    ASSERT_GE(t, 0);
    ++load[t];
  }
  for (int t = 0; t < targets.count; ++t) {
    EXPECT_LE(load[t],
              targets.AbsCap(t, result.value().achieved_beta) + 1e-9);
  }
}

TEST(SubscriptionAssignTest, RespectsFilterCoverage) {
  // Target 0 filters topic A, target 1 topic B; subscribers must land on
  // the matching target even if the other is closer.
  net::BrokerTree tree({0, 0});
  tree.AddBroker({1, 0}, net::BrokerTree::kPublisher);
  tree.AddBroker({-1, 0}, net::BrokerTree::kPublisher);
  tree.Finalize();
  std::vector<wl::Subscriber> subs(20);
  for (int i = 0; i < 20; ++i) {
    subs[i].location = {0.5, 0.5};
    const double base = (i < 10) ? 0.0 : 0.8;
    subs[i].subscription = Rectangle({base, base}, {base + 0.1, base + 0.1});
  }
  SaConfig config;
  config.max_delay = 3.0;
  SaProblem p(std::move(tree), std::move(subs), config);
  Targets targets = BuildLeafTargets(p, AllSubscribers(p));
  std::vector<Filter> filters(2);
  filters[0] = Filter({Rectangle({0, 0}, {0.2, 0.2})});
  filters[1] = Filter({Rectangle({0.7, 0.7}, {1, 1})});
  Rng flow_rng(99);
  auto result = AssignByMaxFlow(p, targets, &filters, flow_rng);
  ASSERT_TRUE(result.ok());
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(result.value().target_of[i], i < 10 ? 0 : 1);
  }
}

TEST(SubscriptionAssignTest, EscalatesBetaWhenDesiredTooTight) {
  // 3 subscribers, 2 targets, everyone covered everywhere, but β = 1 gives
  // caps of floor(0.5*3) = 1 per target: total 2 < 3 → escalate.
  net::BrokerTree tree({0, 0});
  tree.AddBroker({1, 0}, net::BrokerTree::kPublisher);
  tree.AddBroker({-1, 0}, net::BrokerTree::kPublisher);
  tree.Finalize();
  std::vector<wl::Subscriber> subs(3);
  for (auto& s : subs) {
    s.location = {0, 1};
    s.subscription = Rectangle({0, 0}, {0.1, 0.1});
  }
  SaConfig config;
  config.max_delay = 2.0;
  config.beta = 1.0;
  config.beta_max = 2.0;
  SaProblem p(std::move(tree), std::move(subs), config);
  Targets targets = BuildLeafTargets(p, AllSubscribers(p));
  std::vector<Filter> filters(2, Filter({Rectangle({0, 0}, {1, 1})}));
  Rng flow_rng(99);
  auto result = AssignByMaxFlow(p, targets, &filters, flow_rng);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result.value().achieved_beta, 1.0);
  EXPECT_TRUE(result.value().load_feasible);
}

TEST(SubscriptionAssignTest, BestEffortOverflowFlagged) {
  // Single target with cap below the subscriber count even at β_max.
  net::BrokerTree tree({0, 0});
  tree.AddBroker({1, 0}, net::BrokerTree::kPublisher);
  tree.AddBroker({50, 0}, net::BrokerTree::kPublisher);
  tree.Finalize();
  std::vector<wl::Subscriber> subs(10);
  for (auto& s : subs) {
    s.location = {1, 0.1};
    s.subscription = Rectangle({0, 0}, {0.1, 0.1});
  }
  SaConfig config;
  config.max_delay = 0.05;  // only the near broker is feasible
  config.beta = 1.1;
  config.beta_max = 1.4;  // cap = floor(0.7*10) = 7 < 10
  SaProblem p(std::move(tree), std::move(subs), config);
  Targets targets = BuildLeafTargets(p, AllSubscribers(p));
  std::vector<Filter> filters(2, Filter({Rectangle({0, 0}, {1, 1})}));
  Rng flow_rng(99);
  auto result = AssignByMaxFlow(p, targets, &filters, flow_rng);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result.value().load_feasible);
  for (int t : result.value().target_of) EXPECT_EQ(t, 0);
}

TEST(SubscriptionAssignTest, CohesionSeedPrefersSpecificFilters) {
  // Both targets cover everything, but target 0 additionally has a tight
  // rectangle around topic A and target 1 around topic B. With ample
  // capacity, the cost-ordered seeding should route topics to their
  // specific targets rather than scattering.
  net::BrokerTree tree({0, 0});
  tree.AddBroker({1, 0}, net::BrokerTree::kPublisher);
  tree.AddBroker({-1, 0}, net::BrokerTree::kPublisher);
  tree.Finalize();
  std::vector<wl::Subscriber> subs(40);
  for (int i = 0; i < 40; ++i) {
    subs[i].location = {0, 1};
    const double base = (i % 2 == 0) ? 0.0 : 0.8;
    subs[i].subscription = Rectangle({base, base}, {base + 0.1, base + 0.1});
  }
  SaConfig config;
  config.max_delay = 3.0;
  config.beta = 1.5;
  config.beta_max = 1.8;
  SaProblem p(std::move(tree), std::move(subs), config);
  Targets targets = BuildLeafTargets(p, AllSubscribers(p));
  std::vector<Filter> filters(2);
  filters[0] = Filter({Rectangle({0, 0}, {1, 1}), Rectangle({0, 0}, {0.1, 0.1})});
  filters[1] = Filter({Rectangle({0, 0}, {1, 1}), Rectangle({0.8, 0.8}, {0.9, 0.9})});
  Rng flow_rng(123);
  auto result = AssignByMaxFlow(p, targets, &filters, flow_rng);
  ASSERT_TRUE(result.ok());
  int cohesive = 0;
  for (int i = 0; i < 40; ++i) {
    cohesive += (result.value().target_of[i] == (i % 2 == 0 ? 0 : 1));
  }
  // Perfect split is 20/20 and satisfies the caps, so seeding should get
  // (nearly) everyone to the matching target.
  EXPECT_GE(cohesive, 36);
}

TEST(SubscriptionAssignTest, EnrichmentRescuesStrandedSubscribers) {
  // Target 0 covers everyone but its cap is too small; target 1 is
  // latency-feasible but covers nobody initially. Enrichment must extend
  // target 1's filter so the overflow can route there within beta_max.
  net::BrokerTree tree({0, 0});
  tree.AddBroker({1, 0}, net::BrokerTree::kPublisher);
  tree.AddBroker({-1, 0}, net::BrokerTree::kPublisher);
  tree.Finalize();
  std::vector<wl::Subscriber> subs(10);
  for (auto& s : subs) {
    s.location = {0, 1};
    s.subscription = Rectangle({0.4, 0.4}, {0.5, 0.5});
  }
  SaConfig config;
  config.max_delay = 3.0;
  config.beta = 1.0;   // cap 5 per target
  config.beta_max = 1.2;  // cap 6 per target: target 0 alone cannot take 10
  SaProblem p(std::move(tree), std::move(subs), config);
  Targets targets = BuildLeafTargets(p, AllSubscribers(p));
  std::vector<Filter> filters(2);
  filters[0] = Filter({Rectangle({0, 0}, {1, 1})});
  filters[1] = Filter();  // covers nothing
  Rng flow_rng(321);
  auto result = AssignByMaxFlow(p, targets, &filters, flow_rng);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result.value().load_feasible);
  std::vector<int> load(2, 0);
  for (int t : result.value().target_of) ++load[t];
  EXPECT_LE(load[0], 6);
  EXPECT_LE(load[1], 6);
  EXPECT_GE(load[1], 4);
  // The enrichment extended target 1's filter in place.
  EXPECT_FALSE(filters[1].empty());
}

TEST(SubscriptionAssignTest, EnrichmentDisabledFallsBackToOverflow) {
  net::BrokerTree tree({0, 0});
  tree.AddBroker({1, 0}, net::BrokerTree::kPublisher);
  tree.AddBroker({-1, 0}, net::BrokerTree::kPublisher);
  tree.Finalize();
  std::vector<wl::Subscriber> subs(10);
  for (auto& s : subs) {
    s.location = {0, 1};
    s.subscription = Rectangle({0.4, 0.4}, {0.5, 0.5});
  }
  SaConfig config;
  config.max_delay = 3.0;
  config.beta = 1.0;
  config.beta_max = 1.2;
  SaProblem p(std::move(tree), std::move(subs), config);
  Targets targets = BuildLeafTargets(p, AllSubscribers(p));
  std::vector<Filter> filters(2);
  filters[0] = Filter({Rectangle({0, 0}, {1, 1})});
  filters[1] = Filter();
  SubscriptionAssignOptions opts;
  opts.enrichment_rounds = 0;
  Rng flow_rng(11);
  auto result = AssignByMaxFlow(p, targets, &filters, flow_rng, opts);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result.value().load_feasible);  // overflow path taken
  EXPECT_TRUE(filters[1].empty());             // untouched
}

// ---------------------------------------------------------------------------
// FilterAssign (Algorithm 1)
// ---------------------------------------------------------------------------

TEST(FilterAssignTest, CoversAllSubscribers) {
  SaProblem p = test::SmallGgProblem(500, 6);
  Targets targets = BuildLeafTargets(p, AllSubscribers(p));
  Rng rng(9);
  auto result = FilterAssign(p, targets, FilterAssignOptions{}, rng);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result.value().lp_calls, 0);
  EXPECT_GE(result.value().fractional_objective, 0.0);
  for (int j = 0; j < p.num_subscribers(); ++j) {
    bool covered = false;
    for (int t = 0; t < targets.count && !covered; ++t) {
      covered = p.LatencyOk(j, p.leaf_node(t)) &&
                result.value().filters[t].CoversRect(
                    p.subscriber(j).subscription);
    }
    EXPECT_TRUE(covered) << "subscriber " << j;
  }
}

TEST(FilterAssignTest, TinyBudgetStillCovers) {
  SaProblem p = test::SmallGridProblem(400, 6);
  Targets targets = BuildLeafTargets(p, AllSubscribers(p));
  Rng rng(10);
  FilterAssignOptions opts;
  opts.max_lp_calls = 1;  // force the completion path
  auto result = FilterAssign(p, targets, opts, rng);
  ASSERT_TRUE(result.ok());
  for (int j = 0; j < p.num_subscribers(); ++j) {
    bool covered = false;
    for (int t = 0; t < targets.count && !covered; ++t) {
      covered = p.LatencyOk(j, p.leaf_node(t)) &&
                result.value().filters[t].CoversRect(
                    p.subscriber(j).subscription);
    }
    EXPECT_TRUE(covered);
  }
}

TEST(FilterAssignTest, TopicWorkloadConvergesFast) {
  // 50 distinct subscriptions: a coreset run should finish in few LP calls.
  wl::RssParams params;
  params.num_subscribers = 1000;
  params.num_brokers = 6;
  params.seed = 3;
  wl::Workload w = wl::GenerateRss(params);
  net::BrokerTree tree = net::BuildOneLevelTree(w.publisher, w.broker_locations);
  SaConfig config;
  config.beta = 2.3;
  config.beta_max = 2.5;
  SaProblem p(std::move(tree), std::move(w.subscribers), config);
  Targets targets = BuildLeafTargets(p, AllSubscribers(p));
  Rng rng(11);
  auto result = FilterAssign(p, targets, FilterAssignOptions{}, rng);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(result.value().budget_exhausted);
  EXPECT_LE(result.value().lp_calls, 12);
}

TEST(FilterAssignTest, BelowRootSolvesOneLpPerIteration) {
  // At an interior node below the root the children's capacity shares sum
  // to κ_v, and β_max κ_v < 1 leaves every load-enforcing rung infeasible
  // by construction: LoadRungRuledOut rules each of them out before any
  // sampling, so the no-(C3) rung is the one LP solve of every iteration.
  SaConfig config;
  config.max_delay = 1.0;
  SaProblem p = test::SmallMultiLevelProblem(800, 30, 4, config, 17);
  const net::BrokerTree& tree = p.tree();
  int tested = 0;
  for (int node : tree.children(net::BrokerTree::kPublisher)) {
    if (tree.children(node).size() < 2) continue;
    ASSERT_LT(config.beta_max * p.subtree_capacity_fraction(node), 1.0);
    const Targets all = BuildChildTargets(p, AllSubscribers(p), node);
    std::vector<int> subs;
    for (int r = 0; r < all.num_rows(); ++r) {
      if (all.nearest[r] >= 0) subs.push_back(all.subscribers[r]);
    }
    const Targets targets = BuildChildTargets(p, subs, node);
    Rng rng(30 + node);
    auto result = FilterAssign(p, targets, FilterAssignOptions{}, rng);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    const FilterAssignResult& fa = result.value();
    EXPECT_EQ(fa.lp_calls, fa.iterations) << "node " << node;
    for (int r = 0; r < targets.num_rows(); ++r) {
      const auto& sub = p.subscriber(targets.subscribers[r]).subscription;
      bool covered = false;
      for (int t : Candidates(p, targets, r)) {
        covered = covered || fa.filters[t].CoversRect(sub);
      }
      EXPECT_TRUE(covered) << "node " << node << " row " << r;
    }
    ++tested;
  }
  EXPECT_GT(tested, 0);
}

// ---------------------------------------------------------------------------
// SLP1 (RunSlp on a one-level tree) / SLP end-to-end
// ---------------------------------------------------------------------------

TEST(Slp1Test, EndToEndValidSolution) {
  SaProblem p = test::SmallGgProblem(600, 8);
  Rng rng(12);
  SlpStats stats;
  auto result = RunSlp(p, SlpOptions{}, rng, &stats);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const SaSolution& s = result.value();
  EXPECT_EQ(s.algorithm, "SLP");
  ValidationOptions opts;
  opts.check_load = s.load_feasible;
  EXPECT_TRUE(ValidateSolution(p, s, opts).ok())
      << ValidateSolution(p, s, opts).ToString();
  EXPECT_GT(s.fractional_lower_bound, 0.0);
  EXPECT_GT(stats.lp_calls, 0);
}

TEST(Slp1Test, BandwidthCompetitiveWithGreedy) {
  SaProblem p = test::SmallGgProblem(800, 8);
  Rng rng1(13), rng2(13);
  auto slp1 = RunSlp(p, SlpOptions{}, rng1);
  ASSERT_TRUE(slp1.ok());
  const double bw_slp = ComputeMetrics(p, slp1.value()).total_bandwidth;
  const double bw_closest_like =
      ComputeMetrics(p, RunGrNoLatency(p, rng2)).total_bandwidth;
  // SLP1 should stay well below the trivial solution (every broker filters
  // the whole event space: 8 brokers => sum volume ~8).
  EXPECT_LT(bw_slp, 6.0);
  (void)bw_closest_like;
}

TEST(Slp1Test, DeterministicGivenSeed) {
  SaProblem p = test::SmallGridProblem(300, 6);
  Rng rng1(14), rng2(14);
  auto a = RunSlp(p, SlpOptions{}, rng1);
  auto b = RunSlp(p, SlpOptions{}, rng2);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a.value().assignment, b.value().assignment);
  EXPECT_DOUBLE_EQ(a.value().fractional_lower_bound,
                   b.value().fractional_lower_bound);
}

// On a one-level tree RunSlp is SLP1: the root's children are the leaves,
// so its root stage builds the leaf targets and runs SLP1's FilterAssign
// on them with the root's forked stream; GlobalRepair's second flow and
// the filter adjustment follow. A problem of at most γ subscribers skips
// the LP and gets no fractional bound (src/core/slp.h).
TEST(SlpTest, OneLevelRootStageIsSlp1Stage) {
  SaProblem grid = test::SmallGridProblem(400, 6);
  SaProblem gg = test::SmallGgProblem(500, 8);
  const uint64_t seed = 20;
  for (const SaProblem* p : {&grid, &gg}) {
    const Targets leaf = BuildLeafTargets(*p, AllSubscribers(*p));
    const Targets child = BuildChildTargets(*p, AllSubscribers(*p),
                                            net::BrokerTree::kPublisher);
    EXPECT_EQ(child.count, leaf.count);
    EXPECT_EQ(child.kappa, leaf.kappa);
    EXPECT_EQ(child.total_subscribers, leaf.total_subscribers);
    EXPECT_EQ(child.subscribers, leaf.subscribers);
    EXPECT_EQ(child.nearest, leaf.nearest);
    EXPECT_EQ(child.slot_offsets, leaf.slot_offsets);
    EXPECT_EQ(child.base, leaf.base);
    EXPECT_EQ(child.loc, leaf.loc);

    SlpOptions opts;
    opts.num_threads = 1;
    Rng fork = Rng(seed).Fork(net::BrokerTree::kPublisher);
    auto fa = FilterAssign(*p, leaf, opts.slp1.filter_assign, fork);
    ASSERT_TRUE(fa.ok()) << fa.status().ToString();
    Rng rng(seed);
    SlpStats stats;
    auto slp = RunSlp(*p, opts, rng, &stats);
    ASSERT_TRUE(slp.ok()) << slp.status().ToString();
    EXPECT_EQ(slp.value().fractional_lower_bound,
              fa.value().fractional_objective);
    EXPECT_EQ(stats.lp_calls, fa.value().lp_calls);
    EXPECT_EQ(stats.slp1_invocations, 1);
  }

  SaProblem small = test::SmallGridProblem(40, 4);
  ASSERT_LE(small.num_subscribers(), SlpOptions{}.gamma);
  Rng rng(seed);
  SlpStats stats;
  auto slp = RunSlp(small, SlpOptions{}, rng, &stats);
  ASSERT_TRUE(slp.ok()) << slp.status().ToString();
  EXPECT_EQ(stats.lp_calls, 0);
  EXPECT_LT(slp.value().fractional_lower_bound, 0.0);
  EXPECT_TRUE(slp.value().load_feasible);
  EXPECT_TRUE(ValidateSolution(small, slp.value()).ok())
      << ValidateSolution(small, slp.value()).ToString();
}

TEST(SlpTest, MultiLevelEndToEnd) {
  SaProblem p = test::SmallMultiLevelProblem(700, 25, 5);
  Rng rng(15);
  SlpStats stats;
  auto result = RunSlp(p, SlpOptions{}, rng, &stats);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const SaSolution& s = result.value();
  EXPECT_EQ(s.algorithm, "SLP");
  ValidationOptions opts;
  opts.check_load = false;  // multi-level load is best-effort per level
  EXPECT_TRUE(ValidateSolution(p, s, opts).ok())
      << ValidateSolution(p, s, opts).ToString();
  EXPECT_GE(stats.slp1_invocations, 1);
  // The stage counters add up across the recursion: the pivot classes are
  // parts of the pivot total.
  EXPECT_GT(stats.pivots, 0);
  EXPECT_LE(stats.degenerate_pivots, stats.pivots);
  EXPECT_LE(stats.bland_pivots, stats.pivots);
}

TEST(SlpTest, OneLevelTreeReducesToLeafAssignment) {
  SaProblem p = test::SmallGridProblem(400, 6);
  Rng rng(16);
  auto result = RunSlp(p, SlpOptions{}, rng);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ValidationOptions opts;
  opts.check_load = result.value().load_feasible;
  EXPECT_TRUE(ValidateSolution(p, result.value(), opts).ok());
}

TEST(SlpTest, GammaBypassSmallNodes) {
  SaProblem p = test::SmallMultiLevelProblem(100, 25, 5);
  Rng rng(17);
  SlpOptions opts;
  opts.gamma = 1000;  // everything below γ: no LP at all
  SlpStats stats;
  auto result = RunSlp(p, opts, rng, &stats);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(stats.lp_calls, 0);
  ValidationOptions vopts;
  vopts.check_load = false;
  EXPECT_TRUE(ValidateSolution(p, result.value(), vopts).ok());
}

// The parallel-determinism contract: the pool-backed run must produce a
// bit-identical SaSolution (assignment and every filter rectangle) to the
// single-threaded run for the same seed, because all randomness flows
// through per-subtree streams forked before dispatch.
TEST(SlpTest, ParallelMatchesSerialBitIdentical) {
  SaProblem p = test::SmallMultiLevelProblem(700, 25, 5);
  SlpOptions serial;
  serial.num_threads = 1;
  SlpOptions parallel;
  parallel.num_threads = 0;  // shared pool

  Rng rng_serial(42), rng_parallel(42);
  auto a = RunSlp(p, serial, rng_serial);
  auto b = RunSlp(p, parallel, rng_parallel);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();

  EXPECT_EQ(a.value().assignment, b.value().assignment);
  EXPECT_EQ(a.value().load_feasible, b.value().load_feasible);
  ASSERT_EQ(a.value().filters.size(), b.value().filters.size());
  for (size_t v = 0; v < a.value().filters.size(); ++v) {
    EXPECT_TRUE(a.value().filters[v].rects() == b.value().filters[v].rects())
        << "filter of node " << v << " differs";
  }
  EXPECT_DOUBLE_EQ(a.value().fractional_lower_bound,
                   b.value().fractional_lower_bound);
}

// The sharding contract: any shard count — including one shard per pool
// worker, the <= 0 default — produces a bit-identical solution, because
// shard boundaries only change scheduling granularity, never the work or
// the RNG streams (forked per index before dispatch).
TEST(SlpTest, ShardCountsBitIdentical) {
  SaProblem p = test::SmallMultiLevelProblem(700, 25, 5);
  SlpOptions serial;
  serial.num_threads = 1;
  Rng rng_serial(43);
  auto base = RunSlp(p, serial, rng_serial);
  ASSERT_TRUE(base.ok()) << base.status().ToString();

  const int pool = ThreadPool::Global().num_workers() + 1;
  for (int shards : {1, 2, 7, pool}) {
    SlpOptions opts;
    opts.num_threads = 0;  // shared pool
    opts.num_shards = shards;
    Rng rng(43);
    auto got = RunSlp(p, opts, rng);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(base.value().assignment, got.value().assignment)
        << "shards=" << shards;
    EXPECT_EQ(base.value().load_feasible, got.value().load_feasible)
        << "shards=" << shards;
    ASSERT_EQ(base.value().filters.size(), got.value().filters.size());
    for (size_t v = 0; v < base.value().filters.size(); ++v) {
      EXPECT_TRUE(base.value().filters[v].rects() ==
                  got.value().filters[v].rects())
          << "shards=" << shards << " filter of node " << v << " differs";
    }
    EXPECT_DOUBLE_EQ(base.value().fractional_lower_bound,
                     got.value().fractional_lower_bound)
        << "shards=" << shards;
  }
}

// Regression: an assignment still holding the -1 initialization sentinel
// (an infeasible/unassigned subscriber) must surface as a Status, not as an
// out-of-bounds index into the per-leaf grouping.
TEST(GroupSubscriptionsByLeafTest, SentinelAssignmentIsError) {
  SaProblem p = test::SmallGridProblem(20, 4);
  std::vector<int> assignment(p.num_subscribers(), p.leaf_node(0));
  assignment[7] = -1;
  auto grouped = GroupSubscriptionsByLeaf(p, assignment);
  ASSERT_FALSE(grouped.ok());
  EXPECT_EQ(grouped.status().code(), StatusCode::kInternal);
}

TEST(GroupSubscriptionsByLeafTest, NonLeafAndOutOfRangeAreErrors) {
  SaProblem p = test::SmallGridProblem(20, 4);
  std::vector<int> assignment(p.num_subscribers(), p.leaf_node(0));
  assignment[0] = net::BrokerTree::kPublisher;  // not a leaf
  EXPECT_FALSE(GroupSubscriptionsByLeaf(p, assignment).ok());
  assignment[0] = p.tree().num_nodes();  // out of range
  EXPECT_FALSE(GroupSubscriptionsByLeaf(p, assignment).ok());
}

TEST(GroupSubscriptionsByLeafTest, GroupsValidAssignment) {
  SaProblem p = test::SmallGridProblem(20, 4);
  std::vector<int> assignment(p.num_subscribers(), p.leaf_node(1));
  auto grouped = GroupSubscriptionsByLeaf(p, assignment);
  ASSERT_TRUE(grouped.ok());
  EXPECT_EQ(grouped.value()[p.leaf_node(1)].size(),
            static_cast<size_t>(p.num_subscribers()));
  EXPECT_TRUE(grouped.value()[p.leaf_node(0)].empty());
}

// The yardstick property on a workload where the LP bound is meaningful:
// the fractional objective never exceeds the sum-volume bandwidth of the
// algorithms' leaf filters by more than rounding noise... it is a lower
// bound with respect to the sampled Sa and candidate set, so we check the
// weaker, always-true direction: it is positive and below the global-MEB
// trivial solution.
TEST(SlpTest, FractionalBoundBelowTrivialSolution) {
  SaProblem p = test::SmallGgProblem(500, 8);
  Rng rng(18);
  auto result = RunSlp(p, SlpOptions{}, rng);
  ASSERT_TRUE(result.ok());
  // Trivial solution: every broker filters the whole event space => sum
  // volume ~ 8. The fractional optimum must be far below that.
  EXPECT_LT(result.value().fractional_lower_bound, 8.0);
  EXPECT_GT(result.value().fractional_lower_bound, 0.0);
}

}  // namespace
}  // namespace slp::core
