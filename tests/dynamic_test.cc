#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/audit.h"
#include "src/core/dynamic.h"
#include "src/core/filter_adjust.h"
#include "src/core/greedy.h"
#include "src/core/metrics.h"
#include "src/geometry/filter.h"
#include "src/network/tree_builder.h"
#include "src/workload/googlegroups.h"
#include "src/workload/grid.h"
#include "tests/gr_oracle.h"

namespace slp::core {
namespace {

using geo::Rectangle;

wl::Subscriber MakeSub(double x, double y, double cx, double w) {
  wl::Subscriber s;
  s.location = {x, y};
  s.subscription = Rectangle({cx, cx}, {cx + w, cx + w});
  return s;
}

net::BrokerTree TwoBrokerTree() {
  net::BrokerTree tree({0, 0});
  tree.AddBroker({1, 0}, net::BrokerTree::kPublisher);
  tree.AddBroker({-1, 0}, net::BrokerTree::kPublisher);
  tree.Finalize();
  return tree;
}

SaConfig LooseConfig() {
  SaConfig config;
  config.max_delay = 3.0;
  config.alpha = 2;
  return config;
}

// The assigner-wide counts agree with its slots: population() counts the
// occupied slots, live_count() the kLive ones, orphans() the kOrphaned
// ones, and each leaf's load the handles placed there, so Σ loads() equals
// the placed handles.
::testing::AssertionResult BookkeepingConsistent(const DynamicAssigner& dyn) {
  std::vector<int> placed_at(dyn.tree().num_nodes(), 0);
  int occupied = 0, live = 0, orphaned = 0, placed = 0;
  for (int h = 0; h < dyn.slot_count(); ++h) {
    if (!dyn.is_occupied(h)) continue;
    ++occupied;
    live += dyn.state(h) == SubscriberState::kLive ? 1 : 0;
    orphaned += dyn.state(h) == SubscriberState::kOrphaned ? 1 : 0;
    if (dyn.leaf_of(h) < 0) continue;
    ++placed;
    ++placed_at[dyn.leaf_of(h)];
  }
  int load_sum = 0;
  for (int l : dyn.loads()) load_sum += l;
  if (dyn.population() != occupied || dyn.live_count() != live ||
      static_cast<int>(dyn.orphans().size()) != orphaned ||
      load_sum != placed) {
    return ::testing::AssertionFailure()
           << "population " << dyn.population() << " vs " << occupied
           << " occupied, live_count " << dyn.live_count() << " vs " << live
           << ", orphans " << dyn.orphans().size() << " vs " << orphaned
           << ", sum of loads " << load_sum << " vs " << placed << " placed";
  }
  for (int leaf : dyn.tree().leaf_brokers()) {
    if (dyn.load_of(leaf) != placed_at[leaf]) {
      return ::testing::AssertionFailure()
             << "leaf " << leaf << " load " << dyn.load_of(leaf) << " vs "
             << placed_at[leaf] << " placed there";
    }
  }
  return ::testing::AssertionSuccess();
}

TEST(DynamicTest, AddAssignsAndCovers) {
  DynamicAssigner dyn(TwoBrokerTree(), LooseConfig(), 10);
  const int h = dyn.Add(MakeSub(0, 1, 0.1, 0.1)).value();
  EXPECT_GE(h, 0);
  EXPECT_EQ(dyn.live_count(), 1);
  auto [problem, solution] = dyn.Snapshot();
  // The online filters must cover the live subscription at its leaf.
  const int leaf = solution.assignment[0];
  EXPECT_TRUE(solution.filters[leaf].CoversRect(
      problem.subscriber(0).subscription));
}

TEST(DynamicTest, RemoveReleasesCapacityButKeepsFilters) {
  DynamicAssigner dyn(TwoBrokerTree(), LooseConfig(), 10);
  const int h = dyn.Add(MakeSub(0, 1, 0.1, 0.1)).value();
  const double bw_before = dyn.CurrentBandwidth();
  ASSERT_TRUE(dyn.Remove(h).ok());
  EXPECT_EQ(dyn.live_count(), 0);
  EXPECT_EQ(dyn.loads()[0] + dyn.loads()[1], 0);
  // Stale filters remain until reoptimization.
  EXPECT_DOUBLE_EQ(dyn.CurrentBandwidth(), bw_before);
}

TEST(DynamicTest, HandleReuseAfterRemoval) {
  DynamicAssigner dyn(TwoBrokerTree(), LooseConfig(), 10);
  const int h1 = dyn.Add(MakeSub(0, 1, 0.1, 0.1)).value();
  ASSERT_TRUE(dyn.Remove(h1).ok());
  const int h2 = dyn.Add(MakeSub(0, 1, 0.5, 0.1)).value();
  EXPECT_EQ(h1, h2);  // slot reused
  EXPECT_EQ(dyn.live_count(), 1);
}

// A vacant or out-of-range handle is rejected with the assigner unchanged,
// in every build type: a second Remove that counted the departure again
// would also queue the slot twice for reuse, and two later Adds would
// share one handle.
TEST(DynamicTest, RemoveOfVacantHandleIsRejected) {
  DynamicAssigner dyn(TwoBrokerTree(), LooseConfig(), 10);
  const int a = dyn.Add(MakeSub(0, 1, 0.1, 0.1)).value();
  const int b = dyn.Add(MakeSub(0, -1, 0.5, 0.1)).value();
  ASSERT_TRUE(dyn.Remove(a).ok());
  EXPECT_EQ(dyn.Remove(a).code(), StatusCode::kInvalidArgument);
  for (int bad : {-1, dyn.slot_count(), 1 << 20}) {
    EXPECT_EQ(dyn.Remove(bad).code(), StatusCode::kInvalidArgument) << bad;
  }
  EXPECT_EQ(dyn.population(), 1);
  EXPECT_EQ(dyn.live_count(), 1);
  EXPECT_TRUE(dyn.is_occupied(b));
  EXPECT_TRUE(BookkeepingConsistent(dyn));
  const int c = dyn.Add(MakeSub(0, 1, 0.2, 0.1)).value();
  const int d = dyn.Add(MakeSub(0, 1, 0.3, 0.1)).value();
  EXPECT_NE(c, d);
  EXPECT_NE(c, b);
  EXPECT_NE(d, b);
  EXPECT_EQ(dyn.population(), 3);
  EXPECT_TRUE(BookkeepingConsistent(dyn));
}

// The accessors check their argument in every build type: a handle
// outside [0, slot_count()) or a vacant slot, or load_of on a node that is
// not a leaf, dies with the audit report naming the accessor and the bad
// argument instead of reading past the assigner's tables.
class DynamicAccessorDeathTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    kept_ = dyn_.Add(MakeSub(0, 1, 0.1, 0.1)).value();
    vacant_ = dyn_.Add(MakeSub(0, -1, 0.5, 0.1)).value();
    ASSERT_TRUE(dyn_.Remove(vacant_).ok());
  }

  std::vector<int> BadHandles() const {
    return {-1, dyn_.slot_count(), vacant_};
  }

  // The audit report: the failed condition, then the accessor and handle.
  static std::string Report(const char* accessor, int handle) {
    return "is_occupied\\(handle\\) .* " + std::string(accessor) +
           ": handle " + std::to_string(handle);
  }

  DynamicAssigner dyn_{TwoBrokerTree(), LooseConfig(), 10};
  int kept_ = -1;
  int vacant_ = -1;
};

TEST_F(DynamicAccessorDeathTest, StateRejectsBadHandles) {
  for (int h : BadHandles()) {
    EXPECT_DEATH(dyn_.state(h), Report("state", h)) << h;
  }
  EXPECT_EQ(dyn_.state(kept_), SubscriberState::kLive);
}

TEST_F(DynamicAccessorDeathTest, SubscriberRejectsBadHandles) {
  for (int h : BadHandles()) {
    EXPECT_DEATH(dyn_.subscriber(h), Report("subscriber", h)) << h;
  }
  EXPECT_EQ(dyn_.subscriber(kept_).location, (geo::Point{0, 1}));
}

TEST_F(DynamicAccessorDeathTest, LeafOfRejectsBadHandles) {
  for (int h : BadHandles()) {
    EXPECT_DEATH(dyn_.leaf_of(h), Report("leaf_of", h)) << h;
  }
  EXPECT_TRUE(dyn_.tree().is_leaf(dyn_.leaf_of(kept_)));
}

TEST_F(DynamicAccessorDeathTest, ViolationRejectsBadHandles) {
  for (int h : BadHandles()) {
    EXPECT_DEATH(dyn_.violation(h), Report("violation", h)) << h;
  }
  EXPECT_FALSE(dyn_.violation(kept_).unplaced);
}

TEST_F(DynamicAccessorDeathTest, LoadOfRejectsNonLeafNodes) {
  for (int node : {net::BrokerTree::kPublisher, -1, dyn_.tree().num_nodes()}) {
    EXPECT_DEATH(dyn_.load_of(node), "load_of: node " + std::to_string(node))
        << node;
  }
  EXPECT_EQ(dyn_.load_of(dyn_.leaf_of(kept_)), 1);
}

TEST(DynamicTest, LoadCapsRespectedOnline) {
  DynamicAssigner dyn(TwoBrokerTree(), LooseConfig(), 10);
  // 10 identical subscribers: caps β=1.5 → 7.5 per broker; nobody may
  // exceed 8 even though all prefer the same filter growth.
  for (int i = 0; i < 10; ++i) {
    (void)dyn.Add(MakeSub(0, 1, 0.1, 0.1));
  }
  EXPECT_LE(dyn.loads()[0], 8);
  EXPECT_LE(dyn.loads()[1], 8);
  EXPECT_EQ(dyn.loads()[0] + dyn.loads()[1], 10);
}

TEST(DynamicTest, ChurnCreatesStalenessReoptimizeReclaims) {
  Rng rng(1);
  DynamicAssigner dyn(TwoBrokerTree(), LooseConfig(), 60);
  // Phase 1: subscribers interested in topic A (around 0.1).
  std::vector<int> phase1;
  for (int i = 0; i < 30; ++i) {
    phase1.push_back(dyn.Add(MakeSub(rng.Uniform(-1, 1), 1,
                                     rng.Uniform(0.05, 0.15), 0.05))
                         .value());
  }
  // Phase 2: topic A leaves; topic B (around 0.8) arrives.
  for (int h : phase1) ASSERT_TRUE(dyn.Remove(h).ok());
  for (int i = 0; i < 30; ++i) {
    (void)dyn.Add(
        MakeSub(rng.Uniform(-1, 1), 1, rng.Uniform(0.75, 0.85), 0.05));
  }
  const double stale = dyn.CurrentBandwidth();
  const double tight = dyn.TightBandwidth(rng);
  EXPECT_GT(stale, tight * 1.5) << "churn should leave substantial slack";

  dyn.Reoptimize(
      [](const SaProblem& p, Rng& r) { return RunGrStar(p, r); }, rng);
  const double after = dyn.CurrentBandwidth();
  EXPECT_LT(after, stale);
  EXPECT_LE(after, tight * 1.5 + 1e-9);
  // Post-reoptimization state is a fully valid solution.
  auto [problem, solution] = dyn.Snapshot();
  ValidationOptions opts;
  opts.check_load = false;
  EXPECT_TRUE(ValidateSolution(problem, solution, opts).ok());
}

TEST(DynamicTest, SnapshotMetricsMatchLiveState) {
  Rng rng(2);
  wl::Workload w = wl::GenerateGoogleGroupsVariant(wl::Level::kHigh,
                                                   wl::Level::kLow, 200, 6, 3);
  net::BrokerTree tree =
      net::BuildOneLevelTree(w.publisher, w.broker_locations);
  SaConfig config;
  config.max_delay = 1.0;
  DynamicAssigner dyn(std::move(tree), config, 200);
  for (const auto& s : w.subscribers) (void)dyn.Add(s);
  auto [problem, solution] = dyn.Snapshot();
  EXPECT_EQ(problem.num_subscribers(), 200);
  const auto loads = LeafLoads(problem, solution);
  int total = 0;
  for (size_t i = 0; i < loads.size(); ++i) {
    EXPECT_EQ(loads[i], dyn.loads()[i]);
    total += loads[i];
  }
  EXPECT_EQ(total, 200);
  EXPECT_NEAR(ComputeMetrics(problem, solution).total_bandwidth,
              dyn.CurrentBandwidth(), 1e-9);
}

// Σ Vol(f_i) over the assigner's non-failed brokers, from the filters as
// they stand.
double LiveFilterVolume(const DynamicAssigner& dyn) {
  double total = 0;
  for (int v = 1; v < dyn.tree().num_nodes(); ++v) {
    if (dyn.tree().is_failed(v)) continue;
    total += geo::Filter(dyn.filter(v)).UnionVolume();
  }
  return total;
}

// CurrentBandwidth and TightBandwidth count the same brokers: after an
// interior broker with live subscribers below it fails, neither counts its
// filter, and TightBandwidth equals the tight rebuild over Snapshot()
// summed over the non-failed nodes.
TEST(DynamicTest, BandwidthsSkipFailedInteriorBroker) {
  // Publisher 0; interior brokers 1 and 2; leaves 3, 4 under 1 and 5, 6
  // under 2.
  net::BrokerTree tree({0, 0});
  tree.AddBroker({1, 0}, net::BrokerTree::kPublisher);
  tree.AddBroker({-1, 0}, net::BrokerTree::kPublisher);
  tree.AddBroker({1.5, 0.5}, 1);
  tree.AddBroker({1.5, -0.5}, 1);
  tree.AddBroker({-1.5, 0.5}, 2);
  tree.AddBroker({-1.5, -0.5}, 2);
  tree.Finalize();
  DynamicAssigner dyn(std::move(tree), LooseConfig(), 24);
  Rng rng(11);
  for (int i = 0; i < 24; ++i) {
    const double x = i % 2 == 0 ? 1.5 : -1.5;
    ASSERT_TRUE(dyn.Add(MakeSub(x, rng.Uniform(-0.5, 0.5),
                                rng.Uniform(0.0, 0.8), 0.1))
                    .ok());
  }
  int below_1 = 0;
  for (int h = 0; h < dyn.slot_count(); ++h) {
    below_1 += dyn.leaf_of(h) == 3 || dyn.leaf_of(h) == 4 ? 1 : 0;
  }
  ASSERT_GT(below_1, 0);
  EXPECT_EQ(dyn.CurrentBandwidth(), LiveFilterVolume(dyn));

  constexpr uint64_t kSeed = 5;
  Rng before_rng(kSeed);
  const double tight_before = dyn.TightBandwidth(before_rng);

  ASSERT_TRUE(dyn.FailBroker(1).ok());
  EXPECT_EQ(dyn.live_count(), 24);
  EXPECT_EQ(dyn.CurrentBandwidth(), LiveFilterVolume(dyn));

  Rng after_rng(kSeed);
  const double tight_after = dyn.TightBandwidth(after_rng);
  auto [problem, solution] = dyn.Snapshot();
  for (auto& f : solution.filters) f.Clear();
  Rng rebuild_rng(kSeed);
  AdjustLeafFilters(problem, &solution, rebuild_rng);
  BuildInternalFilters(problem, &solution, rebuild_rng);
  double want = 0;
  for (int v = 1; v < problem.tree().num_nodes(); ++v) {
    if (dyn.tree().is_failed(v)) continue;
    want += solution.filters[v].UnionVolume();
  }
  EXPECT_EQ(tight_after, want);
  EXPECT_LT(tight_after, tight_before);

  ASSERT_TRUE(dyn.RecoverBroker(1).ok());
  EXPECT_EQ(dyn.CurrentBandwidth(), LiveFilterVolume(dyn));
}

TEST(DynamicTest, OnlineQualityWithinReachOfOffline) {
  // Online Gr-style placement should stay within a modest factor of a full
  // offline Gr* over the same final population.
  Rng rng(3);
  wl::Workload w = wl::GenerateGoogleGroupsVariant(wl::Level::kHigh,
                                                   wl::Level::kLow, 400, 8, 5);
  net::BrokerTree tree =
      net::BuildOneLevelTree(w.publisher, w.broker_locations);
  SaConfig config;
  DynamicAssigner dyn(tree, config, 400);
  for (const auto& s : w.subscribers) (void)dyn.Add(s);
  const double online_bw = dyn.CurrentBandwidth();

  SaProblem problem(std::move(tree), std::move(w.subscribers), config);
  Rng rng2(3);
  const double offline_bw =
      ComputeMetrics(problem, RunGrStar(problem, rng2)).total_bandwidth;
  EXPECT_LT(online_bw, 3 * offline_bw);
}

TEST(DynamicTest, AddBatchEmptyAndInfeasibleLeaveStateUnchanged) {
  DynamicAssigner dyn(TwoBrokerTree(), LooseConfig(), 10);
  auto empty = dyn.AddBatch({});
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty.value().empty());

  // Fail every leaf: AddBatch must refuse like Add does, with no state
  // left behind.
  ASSERT_TRUE(dyn.FailBroker(1).ok());
  ASSERT_TRUE(dyn.FailBroker(2).ok());
  auto batch = dyn.AddBatch({MakeSub(0, 1, 0.1, 0.1)});
  EXPECT_FALSE(batch.ok());
  EXPECT_EQ(dyn.population(), 0);
  EXPECT_EQ(dyn.slot_count(), 0);
}

// The AddBatch equivalence contract fuzzed at scale: 1000 arrivals in
// batches with removals in between (exercising slot recycling), against a
// twin assigner fed the same stream through sequential Add, each Add
// checked against the brute-force ladder (tests/gr_oracle.h). Final state
// — handles, assignments, states, loads, every filter rectangle — must be
// identical, while the batch path does measurably fewer escalation-rung
// scans than the always-scan ladder (the amortization being purchased).
TEST(DynamicTest, AddBatchMatchesSequentialAddFuzz) {
  wl::Workload w = wl::GenerateGoogleGroupsVariant(
      wl::Level::kHigh, wl::Level::kLow, 1000, 8, /*seed=*/9);
  net::BrokerTree tree =
      net::BuildOneLevelTree(w.publisher, w.broker_locations);
  SaConfig config;
  config.max_delay = 3.0;
  // Caps sized well below the arrival count so the β and β_max rungs
  // saturate mid-run and the batch path gets skips to prove futility of.
  DynamicAssigner seq(tree, config, 400);
  DynamicAssigner bat(tree, config, 400);

  Rng rng(77);
  size_t next = 0;
  int64_t oracle_scans = 0;
  for (int round = 0; round < 4; ++round) {
    const std::vector<wl::Subscriber> batch(
        w.subscribers.begin() + next, w.subscribers.begin() + next + 250);
    next += 250;
    std::vector<int> seq_handles;
    seq_handles.reserve(batch.size());
    for (const auto& s : batch) {
      const GrOracleChoice want = GrOracleLadder(seq, s);
      oracle_scans += want.scans;
      seq_handles.push_back(seq.Add(s).value());
      EXPECT_EQ(seq.leaf_of(seq_handles.back()), want.leaf);
    }
    auto got = bat.AddBatch(batch);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(got.value(), seq_handles) << "round " << round;
    // Deterministic churn between batches: same removals on both twins.
    for (int h : seq_handles) {
      if (rng.Bernoulli(0.2)) {
        ASSERT_TRUE(seq.Remove(h).ok());
        ASSERT_TRUE(bat.Remove(h).ok());
      }
    }
  }

  EXPECT_EQ(seq.population(), bat.population());
  EXPECT_EQ(seq.live_count(), bat.live_count());
  EXPECT_EQ(seq.loads(), bat.loads());
  ASSERT_EQ(seq.slot_count(), bat.slot_count());
  for (int h = 0; h < seq.slot_count(); ++h) {
    ASSERT_EQ(seq.is_occupied(h), bat.is_occupied(h)) << "handle " << h;
    if (!seq.is_occupied(h)) continue;
    EXPECT_EQ(seq.leaf_of(h), bat.leaf_of(h)) << "handle " << h;
    EXPECT_EQ(seq.state(h), bat.state(h)) << "handle " << h;
  }
  for (int v = 0; v < tree.num_nodes(); ++v) {
    EXPECT_TRUE(seq.filter(v) == bat.filter(v))
        << "filter of node " << v << " differs";
  }

  // Same work admitted, less work done.
  EXPECT_EQ(seq.add_stats().arrivals, bat.add_stats().arrivals);
  EXPECT_GT(bat.add_stats().escalation_skips, 0);
  EXPECT_LT(bat.add_stats().escalation_scans, oracle_scans);
  EXPECT_LE(bat.add_stats().cost_evals, seq.add_stats().cost_evals);
  // Add is a batch of one: the two paths do the same work.
  EXPECT_EQ(bat.add_stats().escalation_scans, seq.add_stats().escalation_scans);
}

// SaConfig::latency_mode binds online placement too: an assigner
// configured for last-hop latency admits, repairs and quantifies against
// the last hop, so its own Snapshot() validates. Publisher at 0, leaves at
// 0.1 and -1.0, a subscriber at -0.85: the last hops are 0.95 and 0.15
// against a bound of 1.3 × 0.15 = 0.195, so only leaf 2 is feasible
// (both are under path latency).
TEST(DynamicTest, LastHopLatencyModeBindsOnlinePlacement) {
  net::BrokerTree tree({0.0});
  tree.AddBroker({0.1}, net::BrokerTree::kPublisher);
  tree.AddBroker({-1.0}, net::BrokerTree::kPublisher);
  tree.Finalize();
  SaConfig config;
  config.max_delay = 0.3;
  config.latency_mode = LatencyMode::kLastHop;
  DynamicAssigner dyn(std::move(tree), config, 1);
  wl::Subscriber s;
  s.location = {-0.85};
  s.subscription = Rectangle({0.1, 0.1}, {0.2, 0.2});
  const int h = dyn.Add(s).value();
  EXPECT_EQ(dyn.leaf_of(h), 2);
  EXPECT_EQ(dyn.state(h), SubscriberState::kLive);
  {
    auto [problem, solution] = dyn.Snapshot();
    ValidationOptions opts;
    opts.check_load = false;
    const Status valid = ValidateSolution(problem, solution, opts);
    EXPECT_TRUE(valid.ok()) << valid.ToString();
  }
  // Losing leaf 2 leaves only a last hop of 0.95: repair must quantify the
  // excess over 0.195, not admit it as live.
  ASSERT_TRUE(dyn.FailBroker(2).ok());
  dyn.Repair();
  EXPECT_EQ(dyn.leaf_of(h), 1);
  EXPECT_EQ(dyn.state(h), SubscriberState::kDegraded);
  EXPECT_NEAR(dyn.violation(h).latency, 0.95 - 0.195, 1e-12);
}

// Mirrors one repair pass onto `twin` (taken just before it), checking
// every placement the pass made within constraints — rung 1/2 of the
// orphan ladder and the degraded retries — against the brute-force rung.
// Returns the number of placements checked.
int CheckRepairPass(const DynamicAssigner& dyn, DynamicAssigner& twin,
                    const std::vector<int>& orphans) {
  int checked = 0;
  auto oracle_rungs = [&twin](int h) {
    const int leaf = GrOracleRung(twin, twin.subscriber(h), twin.config().beta);
    return leaf >= 0
               ? leaf
               : GrOracleRung(twin, twin.subscriber(h), twin.config().beta_max);
  };
  for (int h : orphans) {
    const int want = oracle_rungs(h);
    if (dyn.state(h) == SubscriberState::kLive) {
      EXPECT_EQ(dyn.leaf_of(h), want) << "orphan " << h;
      EXPECT_TRUE(twin.PlaceAt(h, dyn.leaf_of(h), SubscriberState::kLive).ok());
      ++checked;
    } else if (dyn.leaf_of(h) >= 0) {
      EXPECT_EQ(want, -1) << "orphan " << h << " degraded past a free rung";
      EXPECT_TRUE(twin.PlaceAt(h, dyn.leaf_of(h), SubscriberState::kDegraded,
                               dyn.violation(h))
                      .ok());
    } else {
      EXPECT_TRUE(twin.Park(h, dyn.violation(h)).ok());
    }
  }
  // Retries run over the degraded handles in ascending order; one that
  // came back live took the oracle's rung-1/2 leaf.
  for (int h : twin.degraded_handles()) {
    if (dyn.state(h) != SubscriberState::kLive) continue;
    EXPECT_EQ(dyn.leaf_of(h), oracle_rungs(h)) << "retry " << h;
    EXPECT_TRUE(twin.PlaceAt(h, dyn.leaf_of(h), SubscriberState::kLive).ok());
    ++checked;
  }
  // The mirror replayed the pass exactly: same loads, same filters.
  EXPECT_EQ(twin.loads(), dyn.loads());
  for (int v = 0; v < dyn.tree().num_nodes(); ++v) {
    EXPECT_TRUE(twin.filter(v) == dyn.filter(v)) << "node " << v;
  }
  return checked;
}

// Every Add, every AddBatch element and every repair rung-1/2 placement
// lands on the leaf the brute-force Gr ladder picks, on multi-level trees
// (out-degree 3) under interior and leaf failures and recoveries, a
// placement veto, saturated β/β_max caps and the degraded fallback. The
// assigner's counts and loads agree with its slots after every Remove,
// failure, recovery and repair pass.
TEST(DynamicTest, PlacementsMatchBruteForceGrLadderFuzz) {
  int64_t checked_adds = 0, checked_batch = 0, checked_repairs = 0;
  int64_t fallbacks = 0, interior_failures = 0, vetoed_adds = 0;
  int64_t skips = 0, scans = 0, all_oracle_scans = 0;
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    wl::GridParams params;
    params.num_subscribers = 700;
    params.num_brokers = 30;
    params.seed = seed;
    const wl::Workload w = wl::GenerateGrid(params);
    Rng tree_rng(seed + 50);
    const net::BrokerTree tree = net::BuildMultiLevelTree(
        w.publisher, w.broker_locations, 3, tree_rng);
    // A tight delay cap makes failures force the degraded fallback; a
    // loose one lets every leaf fill, so β and β_max saturate (caps are
    // well below the arrival count).
    SaConfig config;
    config.max_delay = seed % 2 == 1 ? 0.2 : 3.0;
    config.alpha = 2;
    DynamicAssigner dyn(tree, config, 250);
    int64_t oracle_scans = 0;
    std::vector<int> failed;
    Rng rng(seed * 1000 + 7);
    int64_t now = 0;
    for (size_t next = 0; next < w.subscribers.size();) {
      const double dice = rng.Uniform(0, 1);
      if (dice < 0.45) {
        const wl::Subscriber& s = w.subscribers[next++];
        const GrOracleChoice want = GrOracleLadder(dyn, s);
        oracle_scans += want.scans;
        fallbacks += want.scans == 4 ? 1 : 0;
        vetoed_adds += dyn.has_placement_veto() ? 1 : 0;
        const int h = dyn.Add(s).value();
        ASSERT_EQ(dyn.leaf_of(h), want.leaf) << "seed " << seed;
        ++checked_adds;
      } else if (dice < 0.6) {
        const size_t end =
            std::min(w.subscribers.size(),
                     next + static_cast<size_t>(rng.UniformInt(1, 12)));
        const std::vector<wl::Subscriber> batch(w.subscribers.begin() + next,
                                                w.subscribers.begin() + end);
        next = end;
        DynamicAssigner twin = dyn;
        std::vector<int> want;
        for (const wl::Subscriber& s : batch) {
          const GrOracleChoice choice = GrOracleLadder(twin, s);
          oracle_scans += choice.scans;
          want.push_back(choice.leaf);
          (void)twin.Add(s);
        }
        const std::vector<int> got = dyn.AddBatch(batch).value();
        for (size_t i = 0; i < got.size(); ++i) {
          ASSERT_EQ(dyn.leaf_of(got[i]), want[i]) << "seed " << seed;
          ++checked_batch;
        }
      } else if (dice < 0.75) {
        std::vector<int> occupied;
        for (int h = 0; h < dyn.slot_count(); ++h) {
          if (dyn.is_occupied(h)) occupied.push_back(h);
        }
        if (occupied.empty()) continue;
        const int h = occupied[rng.UniformInt(
            0, static_cast<int64_t>(occupied.size()) - 1)];
        ASSERT_TRUE(dyn.Remove(h).ok());
        ASSERT_TRUE(BookkeepingConsistent(dyn)) << "seed " << seed;
      } else if (dice < 0.86) {
        // Fail a broker (interior ones splice, leaves orphan), keeping at
        // least two live leaves, then repair.
        const int node =
            1 + static_cast<int>(rng.UniformInt(0, tree.num_brokers() - 1));
        if (dyn.tree().is_failed(node) ||
            (tree.is_leaf(node) &&
             dyn.tree().live_leaf_brokers().size() <= 2)) {
          continue;
        }
        ASSERT_TRUE(dyn.FailBroker(node).ok());
        failed.push_back(node);
        interior_failures += tree.is_leaf(node) ? 0 : 1;
        ASSERT_TRUE(BookkeepingConsistent(dyn)) << "seed " << seed;
        DynamicAssigner twin = dyn;
        const std::vector<int> orphans = dyn.orphans();
        dyn.Repair(now);
        checked_repairs += CheckRepairPass(dyn, twin, orphans);
        ASSERT_TRUE(BookkeepingConsistent(dyn)) << "seed " << seed;
      } else if (dice < 0.94) {
        if (failed.empty()) continue;
        const size_t pick = static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(failed.size()) - 1));
        ASSERT_TRUE(dyn.RecoverBroker(failed[pick]).ok());
        failed.erase(failed.begin() + static_cast<std::ptrdiff_t>(pick));
        // Time moves on: degraded subscribers' backoffs elapse.
        now += 100;
        ASSERT_TRUE(BookkeepingConsistent(dyn)) << "seed " << seed;
        DynamicAssigner twin = dyn;
        dyn.Repair(now);
        checked_repairs += CheckRepairPass(dyn, twin, {});
        ASSERT_TRUE(BookkeepingConsistent(dyn)) << "seed " << seed;
      } else if (dyn.has_placement_veto()) {
        dyn.set_placement_veto({});
      } else {
        // Veto every third live leaf (by position, so it moves with
        // failures).
        const std::vector<int> live = dyn.tree().live_leaf_brokers();
        std::vector<char> vetoed(tree.num_nodes(), 0);
        for (size_t i = seed % 3; i < live.size(); i += 3) vetoed[live[i]] = 1;
        dyn.set_placement_veto(
            [vetoed](int leaf) { return vetoed[leaf] != 0; });
      }
    }
    EXPECT_TRUE(BookkeepingConsistent(dyn)) << "seed " << seed;
    EXPECT_LE(dyn.add_stats().escalation_scans, oracle_scans);
    skips += dyn.add_stats().escalation_skips;
    scans += dyn.add_stats().escalation_scans;
    all_oracle_scans += oracle_scans;
    AuditLiveFilters(dyn);
  }
  EXPECT_GT(skips, 0);
  EXPECT_LT(scans, all_oracle_scans);
  EXPECT_GT(checked_adds, 500);
  EXPECT_GT(checked_batch, 100);
  EXPECT_GT(checked_repairs, 20);
  EXPECT_GT(fallbacks, 0);
  EXPECT_GT(interior_failures, 0);
  EXPECT_GT(vetoed_adds, 0);
}

}  // namespace
}  // namespace slp::core
