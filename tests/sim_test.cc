#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/greedy.h"
#include "src/core/metrics.h"
#include "src/core/slp.h"
#include "src/sim/dissemination.h"
#include "tests/test_util.h"

namespace slp::sim {
namespace {

using core::SaProblem;
using core::SaSolution;
using geo::Rectangle;

TEST(DisseminationTest, HandBuiltDeploymentExactCounts) {
  // One leaf filtering the left half of [0,1]^2, one the right half; four
  // deterministic events.
  net::BrokerTree tree({0, 0});
  int a = tree.AddBroker({1, 0}, net::BrokerTree::kPublisher);
  int b = tree.AddBroker({-1, 0}, net::BrokerTree::kPublisher);
  tree.Finalize();
  std::vector<wl::Subscriber> subs(2);
  subs[0].location = {1, 1};
  subs[0].subscription = Rectangle({0, 0}, {0.4, 1});
  subs[1].location = {-1, 1};
  subs[1].subscription = Rectangle({0.6, 0}, {1, 1});
  core::SaConfig config;
  config.max_delay = 2.0;
  SaProblem problem(std::move(tree), std::move(subs), config);

  SaSolution solution;
  solution.algorithm = "hand";
  solution.assignment = {a, b};
  solution.filters.assign(problem.tree().num_nodes(), geo::Filter());
  solution.filters[a] = geo::Filter({Rectangle({0, 0}, {0.5, 1})});
  solution.filters[b] = geo::Filter({Rectangle({0.5, 0}, {1, 1})});

  const std::vector<geo::Point> events = {
      {0.2, 0.5},   // matches sub0, inside filter a only
      {0.45, 0.5},  // inside filter a, matches nobody (waste)
      {0.5, 0.5},   // boundary: inside both filters, matches nobody
      {0.9, 0.5},   // matches sub1, inside filter b only
  };
  DisseminationStats stats = Simulate(problem, solution, events);
  EXPECT_EQ(stats.events, 4);
  EXPECT_EQ(stats.broker_hits[a], 3);  // events 1, 2, 3
  EXPECT_EQ(stats.broker_hits[b], 2);  // events 3, 4
  EXPECT_EQ(stats.total_messages, 5);
  EXPECT_EQ(stats.deliveries, 2);
  EXPECT_EQ(stats.missed_deliveries, 0);
  EXPECT_EQ(stats.wasted_leaf_hits, 3);  // a saw 2 wasted, b saw 1 (boundary)
}

TEST(DisseminationTest, RealizedTrafficMatchesFilterVolumes) {
  // Under uniform events over the unit box, the expected hit rate of each
  // broker equals its filter's union volume — the paper's bandwidth model.
  SaProblem p = test::SmallGridProblem(800, 8);
  Rng rng(3);
  SaSolution s = core::RunGrStar(p, rng);
  const int kEvents = 40000;
  Rng ev_rng(4);
  DisseminationStats stats =
      SimulateUniform(p, s, Rectangle({0, 0}, {1, 1}), kEvents, ev_rng);
  EXPECT_EQ(stats.missed_deliveries, 0);
  for (int leaf : p.tree().leaf_brokers()) {
    const double expected = s.filters[leaf].UnionVolume();
    const double measured =
        stats.broker_hits[leaf] / static_cast<double>(kEvents);
    EXPECT_NEAR(measured, expected, 0.02) << "leaf " << leaf;
  }
  // Aggregate: realized messages/event tracks the analytic Q(T).
  const double analytic = core::ComputeMetrics(p, s).total_bandwidth;
  EXPECT_NEAR(stats.MeanMessagesPerEvent(), analytic, 0.05 * analytic + 0.05);
}

TEST(DisseminationTest, NoFalseNegativesAcrossAlgorithms) {
  SaProblem p = test::SmallGgProblem(500, 8);
  for (int algo = 0; algo < 2; ++algo) {
    Rng rng(5);
    SaSolution s;
    if (algo == 0) {
      s = core::RunGrStar(p, rng);
    } else {
      auto r = core::RunSlp(p, core::SlpOptions{}, rng);
      ASSERT_TRUE(r.ok());
      s = std::move(r).value();
    }
    Rng ev_rng(6);
    DisseminationStats stats =
        SimulateUniform(p, s, Rectangle({0, 0}, {1, 1}), 5000, ev_rng);
    EXPECT_EQ(stats.missed_deliveries, 0) << s.algorithm;
    EXPECT_GT(stats.deliveries, 0) << s.algorithm;
  }
}

TEST(DisseminationTest, MultiLevelRoutingCountsInternalBrokers) {
  SaProblem p = test::SmallMultiLevelProblem(400, 20, 4);
  Rng rng(7);
  SaSolution s = core::RunGrStar(p, rng);
  Rng ev_rng(8);
  DisseminationStats stats =
      SimulateUniform(p, s, Rectangle({0, 0}, {1, 1}), 5000, ev_rng);
  EXPECT_EQ(stats.missed_deliveries, 0);
  // Internal brokers must see at least as many events as any child (their
  // filters nest the children's).
  const auto& tree = p.tree();
  for (int v = 1; v < tree.num_nodes(); ++v) {
    for (int c : tree.children(v)) {
      EXPECT_GE(stats.broker_hits[v], stats.broker_hits[c])
          << "parent " << v << " child " << c;
    }
  }
}

TEST(DisseminationTest, EventsOutsideAllFiltersCostNothing) {
  SaProblem p = test::SmallGridProblem(200, 5);
  Rng rng(9);
  SaSolution s = core::RunGrStar(p, rng);
  // Events far outside the unit box cannot enter any filter.
  std::vector<geo::Point> events(100, geo::Point{50.0, 50.0});
  DisseminationStats stats = Simulate(p, s, events);
  EXPECT_EQ(stats.total_messages, 0);
  EXPECT_EQ(stats.deliveries, 0);
  EXPECT_EQ(stats.missed_deliveries, 0);
}

}  // namespace
}  // namespace slp::sim
