#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/assignment.h"
#include "src/core/candidates.h"
#include "src/core/filter_adjust.h"
#include "src/core/greedy.h"
#include "src/core/metrics.h"
#include "src/core/problem.h"
#include "src/network/tree_builder.h"
#include "src/workload/rss.h"
#include "tests/test_util.h"

namespace slp::core {
namespace {

using geo::Filter;
using geo::Rectangle;

// A hand-built two-leaf problem for exact checks.
//
//   publisher (0,0) — leafA (1,0), leafB (10,0)
//   sub0 at (1,1) subscription [0,.1]x[0,.1]
//   sub1 at (10,1) subscription [.5,.6]x[.5,.6]
SaProblem TinyProblem(SaConfig config = {}) {
  net::BrokerTree tree({0, 0});
  tree.AddBroker({1, 0}, net::BrokerTree::kPublisher);
  tree.AddBroker({10, 0}, net::BrokerTree::kPublisher);
  tree.Finalize();
  std::vector<wl::Subscriber> subs(2);
  subs[0].location = {1, 1};
  subs[0].subscription = Rectangle({0, 0}, {0.1, 0.1});
  subs[1].location = {10, 1};
  subs[1].subscription = Rectangle({0.5, 0.5}, {0.6, 0.6});
  return SaProblem(std::move(tree), std::move(subs), config);
}

TEST(SaProblemTest, ShortestLatencyAndBounds) {
  SaConfig config;
  config.max_delay = 0.5;
  SaProblem p = TinyProblem(config);
  // Sub0: via leafA 1 + 1 = 2; via leafB 10 + sqrt(81+1)=19.05... -> Δ=2.
  EXPECT_DOUBLE_EQ(p.shortest_latency(0), 2.0);
  EXPECT_DOUBLE_EQ(p.latency_bound(0), 3.0);
  EXPECT_TRUE(p.LatencyOk(0, 1));
  EXPECT_FALSE(p.LatencyOk(0, 2));
  // Relative delay of sub0 at leafA is 0 (it is the Δ-achieving leaf).
  EXPECT_DOUBLE_EQ(p.RelativeDelay(0, 1), 0.0);
}

TEST(SaProblemTest, EqualCapacityFractionsByDefault) {
  SaProblem p = TinyProblem();
  EXPECT_EQ(p.num_leaves(), 2);
  EXPECT_DOUBLE_EQ(p.capacity_fraction(0), 0.5);
  EXPECT_DOUBLE_EQ(p.capacity_fraction(1), 0.5);
  EXPECT_EQ(p.leaf_index(p.leaf_node(0)), 0);
  EXPECT_EQ(p.leaf_index(p.leaf_node(1)), 1);
  EXPECT_EQ(p.leaf_index(net::BrokerTree::kPublisher), -1);
}

TEST(SaProblemTest, CustomCapacityFractions) {
  net::BrokerTree tree({0, 0});
  tree.AddBroker({1, 0}, net::BrokerTree::kPublisher);
  tree.AddBroker({2, 0}, net::BrokerTree::kPublisher);
  tree.Finalize();
  std::vector<wl::Subscriber> subs(1);
  subs[0].location = {1, 1};
  subs[0].subscription = Rectangle({0, 0}, {1, 1});
  SaProblem p(std::move(tree), std::move(subs), SaConfig{}, {0.3, 0.7});
  EXPECT_DOUBLE_EQ(p.capacity_fraction(0), 0.3);
  EXPECT_DOUBLE_EQ(p.capacity_fraction(1), 0.7);
}

// SaProblem checks its inputs in every build type: each bad input dies
// with the audit report naming the field and its value, before the
// constructor indexes anything by it.
class SaProblemDeathTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  }

  // Three leaves under the publisher, and one subscriber.
  static net::BrokerTree ThreeLeafTree() {
    net::BrokerTree tree({0, 0});
    for (double x : {1.0, 2.0, 3.0}) {
      tree.AddBroker({x, 0}, net::BrokerTree::kPublisher);
    }
    tree.Finalize();
    return tree;
  }
  static std::vector<wl::Subscriber> OneSubscriber() {
    std::vector<wl::Subscriber> subs(1);
    subs[0].location = {1, 1};
    subs[0].subscription = Rectangle({0, 0}, {1, 1});
    return subs;
  }
  static void Build(SaConfig config) {
    (void)SaProblem(ThreeLeafTree(), OneSubscriber(), config);
  }
  static void Build(std::vector<double> kappa) {
    (void)SaProblem(ThreeLeafTree(), OneSubscriber(), SaConfig{},
                    std::move(kappa));
  }
};

TEST_F(SaProblemDeathTest, RejectsKappaCountOtherThanLeafCount) {
  EXPECT_DEATH(Build(std::vector<double>{0.5, 0.5}),
               "capacity_fractions.size\\(\\) = 2, leaves = 3");
}

TEST_F(SaProblemDeathTest, RejectsNegativeKappa) {
  EXPECT_DEATH(Build(std::vector<double>{0.6, -0.1, 0.5}),
               "capacity_fractions\\[1\\] = -0.1");
}

TEST_F(SaProblemDeathTest, RejectsKappaNotSummingToOne) {
  EXPECT_DEATH(Build(std::vector<double>{0.3, 0.3, 0.3}),
               "sum of capacity_fractions = 0.9");
  Build(std::vector<double>{0.2, 0.3, 0.5});
}

TEST_F(SaProblemDeathTest, RejectsEmptyPopulation) {
  EXPECT_DEATH((void)SaProblem(ThreeLeafTree(), {}, SaConfig{}),
               "subscribers.size\\(\\) = 0");
}

TEST_F(SaProblemDeathTest, RejectsAlphaBelowOne) {
  SaConfig config;
  config.alpha = 0;
  EXPECT_DEATH(Build(config), "config.alpha = 0");
}

TEST_F(SaProblemDeathTest, RejectsNegativeOrNanMaxDelay) {
  SaConfig config;
  config.max_delay = -0.5;
  EXPECT_DEATH(Build(config), "config.max_delay = -0.5");
  config.max_delay = std::numeric_limits<double>::quiet_NaN();
  EXPECT_DEATH(Build(config), "config.max_delay = -?nan");
}

TEST_F(SaProblemDeathTest, RejectsBetaBelowOne) {
  SaConfig config;
  config.beta = 0.9;
  EXPECT_DEATH(Build(config), "config.beta = 0.9, config.beta_max = 1.8");
}

TEST_F(SaProblemDeathTest, RejectsBetaAboveBetaMax) {
  SaConfig config;
  config.beta = 2.0;
  EXPECT_DEATH(Build(config), "config.beta = 2, config.beta_max = 1.8");
  config.beta_max = 2.0;
  Build(config);
}

TEST(SaProblemTest, LastHopLatencyModeBoundsOnlyTheLastHop) {
  // Leaf A: short path, far from the sub. Leaf B: long path, right next to
  // the sub. Path mode admits A but not B; last-hop mode admits B but not A.
  net::BrokerTree build_a({0, 0});
  build_a.AddBroker({1, 0}, net::BrokerTree::kPublisher);    // A
  build_a.AddBroker({100, 0}, net::BrokerTree::kPublisher);  // B
  build_a.Finalize();
  std::vector<wl::Subscriber> subs(1);
  subs[0].location = {100, 1};  // next to B
  subs[0].subscription = Rectangle({0, 0}, {0.1, 0.1});

  SaConfig path_cfg;
  path_cfg.max_delay = 0.3;
  SaProblem path_problem(build_a, subs, path_cfg);
  // Δ via B = 100 + 1 = 101; via A = 1 + sqrt(99^2+1) ≈ 100.0 -> both
  // close; the bound admits both here. Use last-hop to differentiate:
  SaConfig lh_cfg;
  lh_cfg.max_delay = 0.3;
  lh_cfg.latency_mode = LatencyMode::kLastHop;
  SaProblem lh_problem(std::move(build_a), std::move(subs), lh_cfg);
  // Best last hop: dist to B = 1; bound 1.3. A's last hop ≈ 99 -> excluded.
  EXPECT_TRUE(lh_problem.LatencyOk(0, 2));
  EXPECT_FALSE(lh_problem.LatencyOk(0, 1));
  EXPECT_NEAR(lh_problem.AssignmentLatency(0, 2), 1.0, 1e-12);
  // The reported delay metric stays path-based in both modes.
  EXPECT_NEAR(lh_problem.RelativeDelay(0, 2),
              path_problem.RelativeDelay(0, 2), 1e-12);
}

TEST(SaProblemTest, LastHopModeSolutionsValidate) {
  SaConfig config;
  config.latency_mode = LatencyMode::kLastHop;
  config.max_delay = 0.5;
  SaProblem p = test::SmallGridProblem(300, 8, config);
  Rng rng(33);
  SaSolution s = RunGrStar(p, rng);
  ValidationOptions opts;
  opts.check_load = s.load_feasible;
  EXPECT_TRUE(ValidateSolution(p, s, opts).ok())
      << ValidateSolution(p, s, opts).ToString();
  for (int j = 0; j < p.num_subscribers(); ++j) {
    EXPECT_LE(p.AssignmentLatency(j, s.assignment[j]),
              p.latency_bound(j) + 1e-9);
  }
}

TEST(CandidatesTest, LeafTargetsSortedAndFeasible) {
  SaProblem p = test::SmallGridProblem(300, 8);
  Targets t = BuildLeafTargets(p, AllSubscribers(p));
  EXPECT_EQ(t.count, 8);
  EXPECT_EQ(t.total_subscribers, 300);
  double kappa_sum = 0;
  for (double k : t.kappa) kappa_sum += k;
  EXPECT_NEAR(kappa_sum, 1.0, 1e-9);
  for (int r = 0; r < t.num_rows(); ++r) {
    const int j = t.subscribers[r];
    const std::vector<int32_t> cand = Candidates(p, t, r);
    ASSERT_FALSE(cand.empty());
    EXPECT_EQ(t.nearest[r], cand[0]);
    // Rows are ordered by (latency, id). Targets::Latency reproduces
    // AssignmentLatency bit for bit, so the keys compare exactly.
    for (int leaf = 0; leaf < t.count; ++leaf) {
      EXPECT_EQ(t.Latency(leaf, p.subscriber(j).location),
                p.AssignmentLatency(j, p.leaf_node(leaf)));
    }
    auto key = [&](int32_t leaf) {
      return std::make_pair(p.AssignmentLatency(j, p.leaf_node(leaf)), leaf);
    };
    for (size_t c = 0; c < cand.size(); ++c) {
      EXPECT_TRUE(p.LatencyOk(j, p.leaf_node(cand[c])));
      if (c > 0) {
        EXPECT_LT(key(cand[c - 1]), key(cand[c]));
      }
    }
  }
}

TEST(CandidatesTest, LeafTargetsRespectSubsetSelection) {
  SaProblem p = test::SmallGridProblem(100, 5);
  std::vector<int> subset = {3, 10, 42};
  Targets t = BuildLeafTargets(p, subset);
  EXPECT_EQ(t.subscribers, subset);
  EXPECT_EQ(t.num_rows(), 3);
  EXPECT_EQ(t.nearest.size(), 3u);
}

TEST(CandidatesTest, ChildTargetsAggregateKappaAndOptimism) {
  SaProblem p = test::SmallMultiLevelProblem(200, 20, 4);
  const auto& tree = p.tree();
  const int root = net::BrokerTree::kPublisher;
  Targets t = BuildChildTargets(p, AllSubscribers(p), root);
  EXPECT_EQ(t.count, static_cast<int>(tree.children(root).size()));
  double kappa_sum = 0;
  for (double k : t.kappa) kappa_sum += k;
  EXPECT_NEAR(kappa_sum, 1.0, 1e-9);  // root covers the whole tree

  // A child's optimistic latency is the min over its subtree leaves: each
  // candidate's meets the bound, and rows are ordered by it, ties by id.
  for (size_t r = 0; r < t.subscribers.size(); r += 37) {
    const int j = t.subscribers[r];
    std::pair<double, int32_t> prev(-1.0, -1);
    for (int32_t c : Candidates(p, t, static_cast<int>(r))) {
      const int child = tree.children(root)[c];
      double want = 1e300;
      for (int leaf : tree.subtree_leaves(child)) {
        want = std::min(want, tree.LatencyVia(leaf, p.subscriber(j).location));
      }
      EXPECT_LE(want, p.latency_bound(j) + 1e-9);
      EXPECT_LT(prev, std::make_pair(want, c));
      prev = {want, c};
    }
  }
}

// An exact latency tie is broken by target id, lower first. Without stored
// latencies the order is all a row holds beyond its ids, and the random
// workloads' continuous coordinates never tie.
TEST(CandidatesTest, ExactLatencyTiesOrderByTargetId) {
  std::vector<wl::Subscriber> subs(1);
  subs[0].location = {2, 1};
  subs[0].subscription = Rectangle({0, 0}, {0.1, 0.1});
  SaConfig config;
  config.max_delay = 10;  // every target is latency-feasible

  // Leaf targets: leaves 1 and 2 share (2, 0); leaf 0 is farther.
  net::BrokerTree flat({0, 0});
  for (const geo::Point& at : {geo::Point{4, 0}, {2, 0}, {2, 0}}) {
    flat.AddBroker(at, net::BrokerTree::kPublisher);
  }
  flat.Finalize();
  const SaProblem one_level(std::move(flat), subs, config);
  ASSERT_EQ(one_level.AssignmentLatency(0, one_level.leaf_node(1)),
            one_level.AssignmentLatency(0, one_level.leaf_node(2)));
  const Targets lt = BuildLeafTargets(one_level, AllSubscribers(one_level));
  EXPECT_EQ(Candidates(one_level, lt, 0), (std::vector<int32_t>{1, 2, 0}));
  EXPECT_EQ(lt.nearest[0], 1);

  // Child targets: children 1 and 2 sit at (1, 0), and each has a leaf at
  // (2, 0), so their optimistic latencies tie; child 0 is farther.
  net::BrokerTree deep({0, 0});
  const int far = deep.AddBroker({5, 0}, net::BrokerTree::kPublisher);
  const int a = deep.AddBroker({1, 0}, net::BrokerTree::kPublisher);
  const int b = deep.AddBroker({1, 0}, net::BrokerTree::kPublisher);
  deep.AddBroker({6, 0}, far);
  const int a_near = deep.AddBroker({2, 0}, a);
  deep.AddBroker({3, 0}, a);
  deep.AddBroker({0, 3}, b);
  const int b_near = deep.AddBroker({2, 0}, b);
  deep.Finalize();
  const SaProblem two_level(std::move(deep), subs, config);
  ASSERT_EQ(two_level.AssignmentLatency(0, a_near),
            two_level.AssignmentLatency(0, b_near));
  const Targets ct = BuildChildTargets(two_level, AllSubscribers(two_level),
                                       net::BrokerTree::kPublisher);
  EXPECT_EQ(Candidates(two_level, ct, 0), (std::vector<int32_t>{1, 2, 0}));
  EXPECT_EQ(ct.nearest[0], 1);
}

// Each row's stored nearest target is its B_j's first entry, or -1 for an
// empty row, at any shard count. A tight delay bound leaves most rows of a
// below-root node without a feasible child, so the -1 rows are covered too.
TEST(CandidatesTest, NearestIsFirstCandidateAtAnyShardCount) {
  SaConfig config;
  config.max_delay = 0.3;
  const SaProblem p = test::SmallMultiLevelProblem(400, 24, 4, config, 3);
  const auto& tree = p.tree();
  const std::vector<int> subs = AllSubscribers(p);
  int empty_rows = 0;
  for (int shards : {1, 2, 3, 7, 64}) {
    std::vector<Targets> all = {BuildLeafTargets(p, subs, shards)};
    for (int node = 0; node < tree.num_nodes(); ++node) {
      if (tree.children(node).size() < 2) continue;
      all.push_back(BuildChildTargets(p, subs, node, shards));
    }
    for (const Targets& t : all) {
      ASSERT_EQ(t.nearest.size(), subs.size());
      for (int r = 0; r < t.num_rows(); ++r) {
        const std::vector<int32_t> cand = Candidates(p, t, r);
        ASSERT_EQ(t.nearest[r], cand.empty() ? -1 : cand[0])
            << "row " << r << ", " << shards << " shards";
        empty_rows += cand.empty() ? 1 : 0;
      }
    }
  }
  EXPECT_GT(empty_rows, 0);
}

TEST(CandidatesTest, SubtreeLeavesOfLeafIsItself) {
  SaProblem p = test::SmallMultiLevelProblem(50, 15, 4);
  for (int leaf : p.tree().leaf_brokers()) {
    const std::span<const int> leaves = p.tree().subtree_leaves(leaf);
    EXPECT_EQ(std::vector<int>(leaves.begin(), leaves.end()),
              std::vector<int>{leaf});
  }
}

// ---------------------------------------------------------------------------
// Validation and metrics
// ---------------------------------------------------------------------------

SaSolution HandSolution(const SaProblem& p) {
  SaSolution s;
  s.algorithm = "hand";
  s.assignment = {1, 2};  // sub0 -> leafA, sub1 -> leafB
  s.filters.assign(p.tree().num_nodes(), Filter());
  s.filters[1] = Filter({Rectangle({0, 0}, {0.2, 0.2})});
  s.filters[2] = Filter({Rectangle({0.4, 0.4}, {0.7, 0.7})});
  return s;
}

TEST(ValidationTest, AcceptsValidSolution) {
  SaProblem p = TinyProblem();
  SaSolution s = HandSolution(p);
  EXPECT_TRUE(ValidateSolution(p, s).ok());
}

TEST(ValidationTest, RejectsNonLeafAssignment) {
  SaProblem p = TinyProblem();
  SaSolution s = HandSolution(p);
  s.assignment[0] = net::BrokerTree::kPublisher;
  EXPECT_FALSE(ValidateSolution(p, s).ok());
}

TEST(ValidationTest, RejectsUncoveredSubscription) {
  SaProblem p = TinyProblem();
  SaSolution s = HandSolution(p);
  s.filters[1] = Filter({Rectangle({0.5, 0.5}, {0.9, 0.9})});  // misses sub0
  Status st = ValidateSolution(p, s);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInternal);
}

TEST(ValidationTest, RejectsLatencyViolation) {
  SaConfig config;
  config.max_delay = 0.1;
  SaProblem p = TinyProblem(config);
  SaSolution s = HandSolution(p);
  std::swap(s.assignment[0], s.assignment[1]);  // cross assignment: far leaves
  s.filters[1] = Filter({Rectangle({0, 0}, {1, 1})});
  s.filters[2] = Filter({Rectangle({0, 0}, {1, 1})});
  Status st = ValidateSolution(p, s);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInfeasible);
  // The same solution passes when latency checking is disabled.
  ValidationOptions opts;
  opts.check_latency = false;
  opts.check_load = false;
  EXPECT_TRUE(ValidateSolution(p, s, opts).ok());
}

TEST(ValidationTest, RejectsFilterComplexityOverALPHA) {
  SaConfig config;
  config.alpha = 1;
  SaProblem p = TinyProblem(config);
  SaSolution s = HandSolution(p);
  s.filters[1] = Filter({Rectangle({0, 0}, {0.2, 0.2}),
                         Rectangle({0, 0}, {0.3, 0.3})});
  EXPECT_FALSE(ValidateSolution(p, s).ok());
}

TEST(ValidationTest, RejectsNestingViolation) {
  // Multi-level: child filter not covered by parent filter.
  net::BrokerTree tree({0, 0});
  int mid = tree.AddBroker({1, 0}, net::BrokerTree::kPublisher);
  int leaf = tree.AddBroker({2, 0}, mid);
  tree.Finalize();
  std::vector<wl::Subscriber> subs(1);
  subs[0].location = {2, 0.1};
  subs[0].subscription = Rectangle({0, 0}, {0.1, 0.1});
  SaProblem p(std::move(tree), std::move(subs), SaConfig{});
  SaSolution s;
  s.assignment = {leaf};
  s.filters.assign(p.tree().num_nodes(), Filter());
  s.filters[leaf] = Filter({Rectangle({0, 0}, {0.1, 0.1})});
  s.filters[mid] = Filter({Rectangle({0.05, 0.05}, {0.2, 0.2})});  // too small
  Status st = ValidateSolution(p, s);
  EXPECT_FALSE(st.ok());
  s.filters[mid] = Filter({Rectangle({0, 0}, {0.2, 0.2})});
  EXPECT_TRUE(ValidateSolution(p, s).ok());
}

TEST(ValidationTest, RejectsLbfOverCap) {
  SaProblem p = TinyProblem();  // beta_max = 1.8, two leaves, two subs
  SaSolution s = HandSolution(p);
  // Put both subscribers on leafA: lbf = 2 / (0.5 * 2) = 2 > 1.8.
  s.assignment = {1, 1};
  s.filters[1] = Filter({Rectangle({0, 0}, {0.7, 0.7})});
  ValidationOptions opts;
  opts.check_latency = false;
  Status st = ValidateSolution(p, s, opts);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInfeasible);
}

TEST(MetricsTest, LoadsAndLbf) {
  SaProblem p = TinyProblem();
  SaSolution s = HandSolution(p);
  auto loads = LeafLoads(p, s);
  EXPECT_EQ(loads, (std::vector<int>{1, 1}));
  EXPECT_DOUBLE_EQ(LoadBalanceFactor(p, s), 1.0);
  s.assignment = {1, 1};
  EXPECT_DOUBLE_EQ(LoadBalanceFactor(p, s), 2.0);
}

TEST(MetricsTest, BandwidthIsSumOfUnionVolumes) {
  SaProblem p = TinyProblem();
  SaSolution s = HandSolution(p);
  SolutionMetrics m = ComputeMetrics(p, s);
  EXPECT_NEAR(m.total_bandwidth, 0.04 + 0.09, 1e-12);
  EXPECT_NEAR(m.total_bandwidth_sum, 0.04 + 0.09, 1e-12);
  // Overlapping rectangles: union < sum.
  s.filters[1] = Filter({Rectangle({0, 0}, {0.2, 0.2}),
                         Rectangle({0.1, 0.1}, {0.3, 0.3})});
  m = ComputeMetrics(p, s);
  EXPECT_LT(m.total_bandwidth, m.total_bandwidth_sum);
}

TEST(MetricsTest, DelayStatsMatchPerSubscriberDelays) {
  SaProblem p = TinyProblem();
  SaSolution s = HandSolution(p);
  // sub0 sits at its Δ-achieving leaf (delay 0); sub1's Δ is actually via
  // the far leaf A (path 1 + last hop ~9.06 < 10 + 1), so leaf B costs a
  // small positive relative delay.
  const double d0 = p.RelativeDelay(0, 1);
  const double d1 = p.RelativeDelay(1, 2);
  EXPECT_DOUBLE_EQ(d0, 0.0);
  EXPECT_GT(d1, 0.0);
  SolutionMetrics m = ComputeMetrics(p, s);
  EXPECT_NEAR(m.rms_delay, std::sqrt((d0 * d0 + d1 * d1) / 2), 1e-12);
  EXPECT_NEAR(m.max_delay, d1, 1e-12);
  EXPECT_NEAR(m.mean_delay, (d0 + d1) / 2, 1e-12);
}

TEST(MetricsTest, LoadSummaryAndCdf) {
  std::vector<int> loads = {1, 2, 3, 4, 100};
  LoadSummary s = SummarizeLoads(loads);
  EXPECT_EQ(s.min, 1);
  EXPECT_EQ(s.median, 3);
  EXPECT_EQ(s.max, 100);
  auto cdf = LoadCdf(loads, {0, 3, 100});
  EXPECT_DOUBLE_EQ(cdf[0], 0.0);
  EXPECT_DOUBLE_EQ(cdf[1], 0.6);
  EXPECT_DOUBLE_EQ(cdf[2], 1.0);
}

// ---------------------------------------------------------------------------
// Filter adjustment
// ---------------------------------------------------------------------------

TEST(FilterAdjustTest, CoverWithAlphaMebsCoversEverything) {
  Rng rng(5);
  std::vector<Rectangle> rects;
  for (int i = 0; i < 40; ++i) {
    const double x = rng.Uniform(0, 1), y = rng.Uniform(0, 1);
    rects.push_back(Rectangle({x, y}, {x + 0.05, y + 0.05}));
  }
  for (int alpha : {1, 2, 3, 5}) {
    Filter f = CoverWithAlphaMebs(rects, alpha, rng);
    EXPECT_LE(f.size(), alpha);
    EXPECT_GE(f.size(), 1);
    for (const auto& r : rects) {
      EXPECT_TRUE(f.CoversRect(r)) << "alpha=" << alpha;
    }
  }
}

TEST(FilterAdjustTest, CoverEmptyInputIsEmptyFilter) {
  Rng rng(6);
  EXPECT_TRUE(CoverWithAlphaMebs({}, 3, rng).empty());
}

TEST(FilterAdjustTest, FewRectsPassThroughDeduped) {
  Rng rng(7);
  Rectangle r({0, 0}, {1, 1});
  Filter f = CoverWithAlphaMebs({r, r, r}, 3, rng);
  EXPECT_EQ(f.size(), 1);
  EXPECT_TRUE(f.rect(0) == r);
}

TEST(FilterAdjustTest, SeparatedClustersGetSeparateMebs) {
  Rng rng(8);
  std::vector<Rectangle> rects;
  for (int i = 0; i < 10; ++i) {
    rects.push_back(Rectangle({0.0 + i * 0.001, 0}, {0.01 + i * 0.001, 0.01}));
    rects.push_back(Rectangle({5.0 + i * 0.001, 5}, {5.01 + i * 0.001, 5.01}));
  }
  Filter f = CoverWithAlphaMebs(rects, 2, rng);
  ASSERT_EQ(f.size(), 2);
  // Two tight far-apart groups: union volume far below one big MEB.
  EXPECT_LT(f.UnionVolume(), 0.1);
}

TEST(FilterAdjustTest, AdjustLeafFiltersProducesValidTightSolution) {
  SaConfig config;
  config.alpha = 3;
  SaProblem p = test::SmallGridProblem(400, 6, config);
  // Assign everyone to their nearest leaf, then adjust.
  SaSolution s;
  s.assignment.resize(p.num_subscribers());
  Targets t = BuildLeafTargets(p, AllSubscribers(p));
  for (size_t r = 0; r < t.subscribers.size(); ++r) {
    s.assignment[t.subscribers[r]] = p.leaf_node(t.nearest[r]);
  }
  s.filters.assign(p.tree().num_nodes(), Filter());
  Rng rng(9);
  AdjustLeafFilters(p, &s, rng);
  BuildInternalFilters(p, &s, rng);
  ValidationOptions opts;
  opts.check_load = false;
  EXPECT_TRUE(ValidateSolution(p, s, opts).ok());
}

TEST(FilterAdjustTest, TighteningPreliminaryNeverWorsensCoverage) {
  SaConfig config;
  config.alpha = 2;
  SaProblem p = test::SmallGridProblem(300, 5, config);
  SaSolution s;
  s.assignment.resize(p.num_subscribers());
  Targets t = BuildLeafTargets(p, AllSubscribers(p));
  for (size_t r = 0; r < t.subscribers.size(); ++r) {
    s.assignment[t.subscribers[r]] = p.leaf_node(t.nearest[r]);
  }
  // Loose preliminary filters: the global event box everywhere.
  s.filters.assign(p.tree().num_nodes(), Filter());
  for (int leaf : p.tree().leaf_brokers()) {
    s.filters[leaf] = Filter({Rectangle({0, 0}, {1, 1})});
  }
  Rng rng(10);
  AdjustLeafFilters(p, &s, rng);
  // Adjusted filters must still cover and be tighter than the full box.
  double total = 0;
  for (int leaf : p.tree().leaf_brokers()) {
    total += s.filters[leaf].UnionVolume();
    EXPECT_LE(s.filters[leaf].size(), config.alpha);
  }
  EXPECT_LT(total, 5.0);  // strictly tighter than 5 full boxes
  ValidationOptions opts;
  opts.check_load = false;
  EXPECT_TRUE(ValidateSolution(p, s, opts).ok());
}

TEST(FilterAdjustTest, InternalFiltersNestChildren) {
  SaProblem p = test::SmallMultiLevelProblem(300, 25, 4);
  SaSolution s;
  s.assignment.resize(p.num_subscribers());
  Targets t = BuildLeafTargets(p, AllSubscribers(p));
  for (size_t r = 0; r < t.subscribers.size(); ++r) {
    s.assignment[t.subscribers[r]] = p.leaf_node(t.nearest[r]);
  }
  s.filters.assign(p.tree().num_nodes(), Filter());
  Rng rng(11);
  AdjustLeafFilters(p, &s, rng);
  BuildInternalFilters(p, &s, rng);
  ValidationOptions opts;
  opts.check_load = false;
  EXPECT_TRUE(ValidateSolution(p, s, opts).ok());
}

// ---- Candidate rows vs. the legacy nested-vector build ----
//
// Reference reimplementation of the candidate build as it existed before
// the flat refactor: one vector per row, sorted by (latency, id), a
// per-call subtree-leaf tree walk, and per-call kappa accumulation.
// Candidates() must reproduce it exactly (the same target ids in the same
// order) on every workload family, and each row's stored nearest target
// must be its first entry.

// The historical stack-DFS (push children in order, pop from the back) the
// memoized BrokerTree table replaced; order matters because kappa sums and
// optimistic-latency mins folded in this order.
std::vector<int> LegacySubtreeLeaves(const net::BrokerTree& tree, int node) {
  std::vector<int> leaves;
  std::vector<int> stack = {node};
  while (!stack.empty()) {
    const int v = stack.back();
    stack.pop_back();
    if (v != net::BrokerTree::kPublisher && tree.is_leaf(v)) {
      leaves.push_back(v);
      continue;
    }
    for (int c : tree.children(v)) stack.push_back(c);
  }
  return leaves;
}

// The target ids of a row of (latency, id) pairs, sorted.
std::vector<int32_t> SortedIds(std::vector<std::pair<double, int32_t>> cand) {
  std::sort(cand.begin(), cand.end());
  std::vector<int32_t> ids;
  for (const auto& entry : cand) ids.push_back(entry.second);
  return ids;
}

std::vector<int32_t> LegacyLeafRow(const SaProblem& p, int j) {
  std::vector<std::pair<double, int32_t>> cand;
  for (int i = 0; i < p.num_leaves(); ++i) {
    const double lat = p.AssignmentLatency(j, p.leaf_node(i));
    if (lat <= p.latency_bound(j) + 1e-12) cand.emplace_back(lat, i);
  }
  return SortedIds(std::move(cand));
}

std::vector<int32_t> LegacyChildRow(const SaProblem& p, int j, int node) {
  const auto& children = p.tree().children(node);
  std::vector<std::pair<double, int32_t>> cand;
  for (size_t c = 0; c < children.size(); ++c) {
    double best = std::numeric_limits<double>::infinity();
    for (int leaf : LegacySubtreeLeaves(p.tree(), children[c])) {
      best = std::min(best, p.AssignmentLatency(j, leaf));
    }
    if (best <= p.latency_bound(j) + 1e-12) {
      cand.emplace_back(best, static_cast<int32_t>(c));
    }
  }
  return SortedIds(std::move(cand));
}

// Ids and order: the legacy rows are sorted by (latency, id), so equal ids
// in equal order mean Candidates() ranked every target the same way.
void ExpectRowsEqual(const SaProblem& p, const Targets& t, int r,
                     const std::vector<int32_t>& legacy) {
  EXPECT_EQ(Candidates(p, t, r), legacy) << "row " << r;
  EXPECT_EQ(t.nearest[r], legacy.empty() ? -1 : legacy[0]) << "row " << r;
}

core::SaProblem SmallRssProblem(int subs, int brokers, uint64_t seed) {
  wl::RssParams params;
  params.num_subscribers = subs;
  params.num_brokers = brokers;
  params.seed = seed;
  wl::Workload w = wl::GenerateRss(params);
  net::BrokerTree tree =
      net::BuildOneLevelTree(w.publisher, w.broker_locations);
  return SaProblem(std::move(tree), std::move(w.subscribers), SaConfig{});
}

TEST(CsrDifferentialTest, LeafTargetsMatchLegacyNestedBuild) {
  const SaProblem problems[] = {test::SmallGridProblem(500, 9),
                                test::SmallGgProblem(500, 11),
                                SmallRssProblem(500, 10, 13)};
  for (const SaProblem& p : problems) {
    const Targets t = BuildLeafTargets(p, AllSubscribers(p));
    ASSERT_EQ(t.num_rows(), p.num_subscribers());
    ASSERT_EQ(t.nearest.size(), static_cast<size_t>(t.num_rows()));
    for (int r = 0; r < t.num_rows(); ++r) {
      ExpectRowsEqual(p, t, r, LegacyLeafRow(p, t.subscribers[r]));
    }
  }
}

TEST(CsrDifferentialTest, ChildTargetsMatchLegacyNestedBuild) {
  const SaProblem p = test::SmallMultiLevelProblem(600, 28, 4);
  const auto& tree = p.tree();
  const std::vector<int> subs = AllSubscribers(p);
  for (int node = 0; node < tree.num_nodes(); ++node) {
    if (node != net::BrokerTree::kPublisher && tree.is_leaf(node)) continue;
    if (tree.children(node).empty()) continue;
    const Targets t = BuildChildTargets(p, subs, node);
    // kappa must match the legacy per-call leaf-walk accumulation.
    const auto& children = tree.children(node);
    for (size_t c = 0; c < children.size(); ++c) {
      double k = 0.0;
      for (int leaf : LegacySubtreeLeaves(tree, children[c])) {
        k += p.capacity_fraction(p.leaf_index(leaf));
      }
      EXPECT_EQ(t.kappa[c], k) << "node " << node << " child " << c;
    }
    for (int r = 0; r < t.num_rows(); ++r) {
      ExpectRowsEqual(p, t, r, LegacyChildRow(p, t.subscribers[r], node));
    }
  }
}

TEST(CsrDifferentialTest, ShardedBuildBitIdenticalToSerial) {
  const SaProblem p = test::SmallGgProblem(700, 12);
  const std::vector<int> subs = AllSubscribers(p);
  const Targets serial = BuildLeafTargets(p, subs, /*num_shards=*/1);
  for (int shards : {2, 3, 7, 64}) {
    const Targets sharded = BuildLeafTargets(p, subs, shards);
    EXPECT_EQ(serial.nearest, sharded.nearest) << shards;
    EXPECT_EQ(serial.slot_offsets, sharded.slot_offsets) << shards;
    EXPECT_EQ(serial.base, sharded.base) << shards;
    EXPECT_EQ(serial.loc, sharded.loc) << shards;
  }
}

TEST(SubtreeLeavesTest, MemoizedTableMatchesLegacyWalkEverywhere) {
  const SaProblem p = test::SmallMultiLevelProblem(100, 30, 3);
  const auto& tree = p.tree();
  for (int node = 0; node < tree.num_nodes(); ++node) {
    const std::span<const int> leaves = tree.subtree_leaves(node);
    EXPECT_EQ(std::vector<int>(leaves.begin(), leaves.end()),
              LegacySubtreeLeaves(tree, node))
        << "node " << node;
  }
}

}  // namespace
}  // namespace slp::core
