#include <algorithm>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/balance.h"
#include "src/core/closest.h"
#include "src/core/greedy.h"
#include "src/core/metrics.h"
#include "tests/test_util.h"

namespace slp::core {
namespace {

ValidationOptions NoLatencyNoLoad() {
  ValidationOptions o;
  o.check_latency = false;
  o.check_load = false;
  return o;
}

// ---------------------------------------------------------------------------
// Greedy family
// ---------------------------------------------------------------------------

TEST(GreedyTest, GrProducesStructurallyValidSolution) {
  SaProblem p = test::SmallGridProblem(600, 10);
  Rng rng(1);
  SaSolution s = RunGr(p, rng);
  EXPECT_EQ(s.algorithm, "Gr");
  // Structure + latency always hold for Gr; load is best-effort.
  ValidationOptions opts;
  opts.check_load = false;
  EXPECT_TRUE(ValidateSolution(p, s, opts).ok());
  if (s.load_feasible) {
    EXPECT_LE(LoadBalanceFactor(p, s), p.config().beta_max + 1e-6);
  }
}

TEST(GreedyTest, GrStarSatisfiesAllConstraintsOnEasyWorkload) {
  SaConfig config;
  config.beta = 1.5;
  config.beta_max = 1.8;
  config.max_delay = 0.5;  // loose
  SaProblem p = test::SmallGridProblem(600, 10, config);
  Rng rng(2);
  SaSolution s = RunGrStar(p, rng);
  EXPECT_EQ(s.algorithm, "Gr*");
  EXPECT_TRUE(s.load_feasible);
  EXPECT_TRUE(ValidateSolution(p, s).ok()) << ValidateSolution(p, s).ToString();
}

TEST(GreedyTest, GrStarLoadsNoWorseThanGr) {
  SaProblem p = test::SmallGgProblem(800, 12);
  Rng rng1(3), rng2(3);
  SaSolution gr = RunGr(p, rng1);
  SaSolution gr_star = RunGrStar(p, rng2);
  // Gr* is designed to avoid being forced into overloads; its lbf should
  // not exceed Gr's by any meaningful margin.
  EXPECT_LE(LoadBalanceFactor(p, gr_star),
            LoadBalanceFactor(p, gr) + 0.25);
}

TEST(GreedyTest, GrNoLatencyIgnoresLatencyButBalancesLoad) {
  SaProblem p = test::SmallGgProblem(800, 12);
  Rng rng(4);
  SaSolution s = RunGrNoLatency(p, rng);
  EXPECT_EQ(s.algorithm, "Gr-l");
  EXPECT_TRUE(ValidateSolution(p, s, NoLatencyNoLoad()).ok());
  if (s.load_feasible) {
    EXPECT_LE(LoadBalanceFactor(p, s), p.config().beta_max + 1e-6);
  }
}

TEST(GreedyTest, GrNoLatencyBandwidthNotWorseThanGr) {
  // Dropping a constraint can only help the (greedy) objective on average;
  // this is the "too good to be true" property the paper leans on.
  SaProblem p = test::SmallGgProblem(1000, 12);
  Rng rng1(5), rng2(5);
  const double bw_gr = ComputeMetrics(p, RunGr(p, rng1)).total_bandwidth;
  const double bw_nl =
      ComputeMetrics(p, RunGrNoLatency(p, rng2)).total_bandwidth;
  EXPECT_LE(bw_nl, bw_gr * 1.1);
}

TEST(GreedyTest, FilterComplexityRespectsAlpha) {
  for (int alpha : {1, 2, 4}) {
    SaConfig config;
    config.alpha = alpha;
    SaProblem p = test::SmallGridProblem(400, 8, config);
    Rng rng(6);
    SaSolution s = RunGrStar(p, rng);
    for (int v = 1; v < p.tree().num_nodes(); ++v) {
      EXPECT_LE(s.filters[v].size(), alpha);
    }
    ValidationOptions opts;
    opts.check_load = false;
    EXPECT_TRUE(ValidateSolution(p, s, opts).ok());
  }
}

TEST(GreedyTest, LargerAlphaDoesNotIncreaseBandwidth) {
  SaConfig c1, c4;
  c1.alpha = 1;
  c4.alpha = 4;
  SaProblem p1 = test::SmallGgProblem(800, 10, c1);
  SaProblem p4 = test::SmallGgProblem(800, 10, c4);
  Rng rng1(7), rng2(7);
  const double bw1 = ComputeMetrics(p1, RunGrStar(p1, rng1)).total_bandwidth;
  const double bw4 = ComputeMetrics(p4, RunGrStar(p4, rng2)).total_bandwidth;
  EXPECT_LE(bw4, bw1 * 1.05);  // Figure 10's monotone trend
}

TEST(GreedyTest, MultiLevelGreedyValidates) {
  SaProblem p = test::SmallMultiLevelProblem(600, 25, 5);
  Rng rng(8);
  SaSolution s = RunGrStar(p, rng);
  ValidationOptions opts;
  opts.check_load = false;
  EXPECT_TRUE(ValidateSolution(p, s, opts).ok())
      << ValidateSolution(p, s, opts).ToString();
}

TEST(GreedyTest, TightLoadForcesBestEffortFlag) {
  // One broker sits right next to every subscriber; with a brutal latency
  // bound every subscriber has only that broker as candidate, so the load
  // cap must break.
  net::BrokerTree tree({0, 0});
  tree.AddBroker({0, 0.01}, net::BrokerTree::kPublisher);
  tree.AddBroker({100, 0}, net::BrokerTree::kPublisher);
  tree.Finalize();
  std::vector<wl::Subscriber> subs(10);
  for (int i = 0; i < 10; ++i) {
    subs[i].location = {0, 0.02};
    subs[i].subscription = geo::Rectangle({0, 0}, {0.1, 0.1});
  }
  SaConfig config;
  config.max_delay = 0.01;
  config.beta = 1.2;
  config.beta_max = 1.5;
  SaProblem p(std::move(tree), std::move(subs), config);
  Rng rng(9);
  SaSolution s = RunGr(p, rng);
  EXPECT_FALSE(s.load_feasible);
  // Still a complete, covered assignment.
  ValidationOptions opts;
  opts.check_load = false;
  EXPECT_TRUE(ValidateSolution(p, s, opts).ok());
}

TEST(GreedyTest, DeterministicGivenSeed) {
  SaProblem p = test::SmallGridProblem(300, 6);
  Rng rng1(10), rng2(10);
  SaSolution a = RunGrStar(p, rng1);
  SaSolution b = RunGrStar(p, rng2);
  EXPECT_EQ(a.assignment, b.assignment);
}

// ---------------------------------------------------------------------------
// Closest / Closest¬b
// ---------------------------------------------------------------------------

TEST(ClosestTest, NoBalanceAssignsNearestLeaf) {
  SaProblem p = test::SmallGridProblem(300, 8);
  Rng rng(11);
  SaSolution s = RunClosestNoBalance(p, rng);
  EXPECT_EQ(s.algorithm, "Closest-b");
  const auto& tree = p.tree();
  for (int j = 0; j < p.num_subscribers(); ++j) {
    const double got =
        geo::Distance(tree.location(s.assignment[j]), p.subscriber(j).location);
    for (int leaf : tree.leaf_brokers()) {
      EXPECT_LE(got, geo::Distance(tree.location(leaf),
                                   p.subscriber(j).location) + 1e-12);
    }
  }
  EXPECT_TRUE(ValidateSolution(p, s, NoLatencyNoLoad()).ok());
}

TEST(ClosestTest, CapVariantRespectsBetaMax) {
  SaProblem p = test::SmallGgProblem(900, 9);
  Rng rng(12);
  SaSolution s = RunClosest(p, rng);
  EXPECT_EQ(s.algorithm, "Closest");
  EXPECT_TRUE(s.load_feasible);
  EXPECT_LE(LoadBalanceFactor(p, s), p.config().beta_max + 1e-6);
  EXPECT_TRUE(ValidateSolution(p, s, NoLatencyNoLoad()).ok());
}

TEST(ClosestTest, CapVariantSpillsToSecondNearest) {
  // Two co-located cheap brokers vs one far: with everyone nearest to
  // broker A, the cap forces spill to B.
  net::BrokerTree tree({0, 0});
  tree.AddBroker({1, 0}, net::BrokerTree::kPublisher);
  tree.AddBroker({1.2, 0}, net::BrokerTree::kPublisher);
  tree.Finalize();
  std::vector<wl::Subscriber> subs(10);
  for (int i = 0; i < 10; ++i) {
    subs[i].location = {1, 0.1};
    subs[i].subscription = geo::Rectangle({0, 0}, {0.1, 0.1});
  }
  SaConfig config;
  config.beta = 1.0;
  config.beta_max = 1.2;  // cap = 6 per broker
  SaProblem p(std::move(tree), std::move(subs), config);
  Rng rng(13);
  SaSolution s = RunClosest(p, rng);
  auto loads = LeafLoads(p, s);
  EXPECT_LE(loads[0], 6);
  EXPECT_GE(loads[1], 4);
  Rng rng2(13);
  SaSolution nb = RunClosestNoBalance(p, rng2);
  auto nb_loads = LeafLoads(p, nb);
  EXPECT_EQ(nb_loads[0], 10);  // no cap: everyone on the nearest broker
}

TEST(ClosestTest, LoadFlagMatchesLoadBalanceFactor) {
  // Both variants derive load_feasible from their final leaf loads, so the
  // flag says whether lbf stays within β_max; Closest¬b, which ignores the
  // cap, must report the overloads it makes.
  int overloaded = 0;
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    SaProblem p = test::SmallGgProblem(600, 10, SaConfig{}, seed);
    for (bool capped : {false, true}) {
      Rng rng(seed);
      const SaSolution s =
          capped ? RunClosest(p, rng) : RunClosestNoBalance(p, rng);
      const double lbf = LoadBalanceFactor(p, s);
      EXPECT_EQ(s.load_feasible, lbf <= p.config().beta_max)
          << s.algorithm << " seed " << seed << " lbf " << lbf;
      if (lbf > p.config().beta_max) ++overloaded;
    }
  }
  EXPECT_GT(overloaded, 0);
}

// ---------------------------------------------------------------------------
// Balance
// ---------------------------------------------------------------------------

TEST(BalanceTest, AchievesBestLbfAmongAll) {
  SaProblem p = test::SmallGgProblem(600, 8);
  Rng rng(14);
  SaSolution s = RunBalance(p, rng);
  EXPECT_EQ(s.algorithm, "Balance");
  EXPECT_TRUE(ValidateSolution(p, s, NoLatencyNoLoad()).ok());
  const double lbf_balance = LoadBalanceFactor(p, s);
  // Balance's lbf is a lower bound for every latency-respecting algorithm.
  Rng rng2(14);
  const double lbf_gr_star = LoadBalanceFactor(p, RunGrStar(p, rng2));
  EXPECT_LE(lbf_balance, lbf_gr_star + 1e-6);
  Rng rng3(14);
  const double lbf_closest = LoadBalanceFactor(p, RunClosestNoBalance(p, rng3));
  EXPECT_LE(lbf_balance, lbf_closest + 1e-6);
}

TEST(BalanceTest, RespectsLatency) {
  SaProblem p = test::SmallGridProblem(400, 8);
  Rng rng(15);
  SaSolution s = RunBalance(p, rng);
  for (int j = 0; j < p.num_subscribers(); ++j) {
    EXPECT_TRUE(p.LatencyOk(j, s.assignment[j]));
  }
}

TEST(BalanceTest, PerfectBalanceWhenUnconstrained) {
  // Symmetric setup: 2 brokers, 10 co-located subscribers, loose latency:
  // best lbf is 1.0 (5 and 5).
  net::BrokerTree tree({0, 0});
  tree.AddBroker({1, 0}, net::BrokerTree::kPublisher);
  tree.AddBroker({-1, 0}, net::BrokerTree::kPublisher);
  tree.Finalize();
  std::vector<wl::Subscriber> subs(10);
  for (int i = 0; i < 10; ++i) {
    subs[i].location = {0, 1};
    subs[i].subscription = geo::Rectangle({0, 0}, {0.1, 0.1});
  }
  SaConfig config;
  config.max_delay = 2.0;
  SaProblem p(std::move(tree), std::move(subs), config);
  Rng rng(16);
  SaSolution s = RunBalance(p, rng);
  auto loads = LeafLoads(p, s);
  EXPECT_EQ(loads[0], 5);
  EXPECT_EQ(loads[1], 5);
  EXPECT_NEAR(LoadBalanceFactor(p, s), 1.0, 1e-9);
}

// Baselines that ignore the event space should pay for it in bandwidth on a
// topically clustered workload — the qualitative heart of Figure 6.
TEST(BaselineComparisonTest, EventSpaceBlindBaselinesCostMoreBandwidth) {
  SaProblem p = test::SmallGgProblem(1200, 10);
  Rng rng1(17), rng2(17);
  const double bw_gr_star =
      ComputeMetrics(p, RunGrStar(p, rng1)).total_bandwidth;
  const double bw_balance =
      ComputeMetrics(p, RunBalance(p, rng2)).total_bandwidth;
  EXPECT_LT(bw_gr_star, bw_balance);
}

}  // namespace
}  // namespace slp::core
