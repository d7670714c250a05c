// Broker-failure injection and online repair (DESIGN.md §9): the live
// overlay, the nesting-safety argument for splice-up, the repair ladder,
// reoptimization through SLP, the fault replay, and a property fuzz over
// random Add/Remove/fail/recover sequences.

#include <algorithm>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/dynamic.h"
#include "src/core/greedy.h"
#include "src/core/repair.h"
#include "src/core/slp.h"
#include "src/network/tree_builder.h"
#include "src/sim/fault_plan.h"
#include "src/workload/grid.h"
#include "tests/route_oracle.h"

namespace slp::core {
namespace {

using geo::Point;
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

// Publisher -> two interior brokers -> two leaves each.
//   node 1 = interior A (children 3, 4), node 2 = interior B (children 5, 6)
net::BrokerTree TwoLevelTree() {
  net::BrokerTree tree({0, 0});
  const int a = tree.AddBroker({0, 1}, net::BrokerTree::kPublisher);
  const int b = tree.AddBroker({0, -1}, net::BrokerTree::kPublisher);
  tree.AddBroker({-1, 2}, a);
  tree.AddBroker({1, 2}, a);
  tree.AddBroker({-1, -2}, b);
  tree.AddBroker({1, -2}, b);
  tree.Finalize();
  return tree;
}

SaConfig LooseConfig() {
  SaConfig config;
  config.max_delay = 3.0;
  config.alpha = 2;
  return config;
}

// True iff some rectangle of the node's filter fully contains `sub` at
// every broker on the live path from `leaf` to the publisher — the
// condition under which no event matching `sub` can be dropped en route.
bool CoveredOnLivePath(const DynamicAssigner& dyn, int leaf,
                       const Rectangle& sub) {
  for (int v = leaf; v != net::BrokerTree::kPublisher;
       v = dyn.tree().live_parent(v)) {
    bool covered = false;
    for (const Rectangle& r : dyn.filter(v)) {
      if (r.Contains(sub)) {
        covered = true;
        break;
      }
    }
    if (!covered) return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// BrokerTree live overlay

TEST(BrokerTreeFailureTest, LiveAccessorsMatchStaticWithoutFailures) {
  const net::BrokerTree tree = TwoLevelTree();
  EXPECT_FALSE(tree.any_failed());
  for (int v = 1; v < tree.num_nodes(); ++v) {
    EXPECT_EQ(tree.live_parent(v), tree.parent(v));
    EXPECT_EQ(tree.live_children(v), tree.children(v));
    EXPECT_DOUBLE_EQ(tree.LivePathLatencyFromRoot(v),
                     tree.PathLatencyFromRoot(v));
  }
  EXPECT_EQ(tree.live_leaf_brokers(), tree.leaf_brokers());
}

TEST(BrokerTreeFailureTest, InteriorFailureSplicesChildrenToGrandparent) {
  net::BrokerTree tree = TwoLevelTree();
  ASSERT_TRUE(tree.FailBroker(1).ok());
  EXPECT_TRUE(tree.is_failed(1));
  EXPECT_EQ(tree.num_failed(), 1);
  // A's children (3, 4) splice up to the publisher.
  EXPECT_EQ(tree.live_parent(3), net::BrokerTree::kPublisher);
  EXPECT_EQ(tree.live_parent(4), net::BrokerTree::kPublisher);
  const auto& root_children =
      tree.live_children(net::BrokerTree::kPublisher);
  EXPECT_EQ(root_children, (std::vector<int>{2, 3, 4}));
  // The static topology is untouched.
  EXPECT_EQ(tree.parent(3), 1);
  // All four leaves are still live (interior failure orphans nobody).
  EXPECT_EQ(tree.live_leaf_brokers(), tree.leaf_brokers());

  ASSERT_TRUE(tree.RecoverBroker(1).ok());
  EXPECT_FALSE(tree.any_failed());
  EXPECT_EQ(tree.live_parent(3), 1);
  EXPECT_EQ(tree.live_children(net::BrokerTree::kPublisher),
            (std::vector<int>{1, 2}));
}

TEST(BrokerTreeFailureTest, LeafFailureShrinksLiveLeaves) {
  net::BrokerTree tree = TwoBrokerTree();
  ASSERT_TRUE(tree.FailBroker(1).ok());
  EXPECT_EQ(tree.live_leaf_brokers(), std::vector<int>{2});
  ASSERT_TRUE(tree.FailBroker(2).ok());
  EXPECT_TRUE(tree.live_leaf_brokers().empty());
}

TEST(BrokerTreeFailureTest, RejectsInvalidFailures) {
  net::BrokerTree tree = TwoBrokerTree();
  EXPECT_EQ(tree.FailBroker(net::BrokerTree::kPublisher).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(tree.FailBroker(99).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(tree.RecoverBroker(1).code(), StatusCode::kInvalidArgument);
  ASSERT_TRUE(tree.FailBroker(1).ok());
  EXPECT_EQ(tree.FailBroker(1).code(), StatusCode::kInvalidArgument);
}

// The satellite proof: because every broker's filter covers each
// subscription served below it (f_child ⊆ f_parent in coverage terms),
// splicing a failed interior broker out of the path keeps every remaining
// filter on the path covering — no recomputation needed.
TEST(BrokerTreeFailureTest, NestingMakesInteriorSpliceFilterSafe) {
  Rng rng(7);
  DynamicAssigner dyn(TwoLevelTree(), LooseConfig(), 40);
  std::vector<int> handles;
  for (int i = 0; i < 40; ++i) {
    handles.push_back(dyn.Add(MakeSub(rng.Uniform(-1, 1), rng.Uniform(-2, 2),
                                      rng.Uniform(-0.9, 0.8), 0.1))
                          .value());
  }
  // Static-path coverage first (the nesting precondition).
  for (int h : handles) {
    ASSERT_TRUE(CoveredOnLivePath(dyn, dyn.leaf_of(h),
                                  dyn.subscriber(h).subscription));
  }
  // Remember filters, then fail an interior broker.
  std::vector<std::vector<Rectangle>> before;
  for (int v = 0; v < dyn.tree().num_nodes(); ++v) {
    before.push_back(dyn.filter(v));
  }
  ASSERT_TRUE(dyn.FailBroker(1).ok());
  // Nobody is orphaned, no filter changed, and every subscriber is still
  // covered along its (spliced) live path.
  EXPECT_TRUE(dyn.orphans().empty());
  for (int v = 0; v < dyn.tree().num_nodes(); ++v) {
    if (v == 1) continue;
    EXPECT_EQ(dyn.filter(v).size(), before[v].size());
  }
  for (int h : handles) {
    EXPECT_EQ(dyn.state(h), SubscriberState::kLive);
    EXPECT_TRUE(CoveredOnLivePath(dyn, dyn.leaf_of(h),
                                  dyn.subscriber(h).subscription));
  }
}

// ---------------------------------------------------------------------------
// DynamicAssigner failure paths

TEST(DynamicFailureTest, AddReturnsInfeasibleWhenAllLeavesFailed) {
  DynamicAssigner dyn(TwoBrokerTree(), LooseConfig(), 10);
  ASSERT_TRUE(dyn.FailBroker(1).ok());
  ASSERT_TRUE(dyn.FailBroker(2).ok());
  const Result<int> r = dyn.Add(MakeSub(0, 1, 0.1, 0.1));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInfeasible);
  EXPECT_EQ(dyn.population(), 0);
  // Recovery restores service.
  ASSERT_TRUE(dyn.RecoverBroker(1).ok());
  EXPECT_TRUE(dyn.Add(MakeSub(0, 1, 0.1, 0.1)).ok());
}

TEST(DynamicFailureTest, AddReturnsInfeasibleForNonPositiveAlpha) {
  SaConfig config = LooseConfig();
  config.alpha = 0;  // previously an SLP_CHECK abort inside incorporation
  DynamicAssigner dyn(TwoBrokerTree(), config, 10);
  const Result<int> r = dyn.Add(MakeSub(0, 1, 0.1, 0.1));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInfeasible);
  EXPECT_EQ(dyn.population(), 0);
}

TEST(DynamicFailureTest, LeafFailureOrphansItsSubscribersOnly) {
  SaConfig tight;  // default max_delay keeps each subscriber at its broker
  tight.alpha = 2;
  DynamicAssigner dyn(TwoBrokerTree(), tight, 4);
  // Two subscribers near one broker, one near the other.
  const int h1 = dyn.Add(MakeSub(1, 0, 0.1, 0.1)).value();
  const int h2 = dyn.Add(MakeSub(1, 0.1, 0.1, 0.1)).value();
  const int h3 = dyn.Add(MakeSub(-1, 0, 0.6, 0.1)).value();
  const int leaf1 = dyn.leaf_of(h1);
  ASSERT_EQ(dyn.leaf_of(h2), leaf1);
  ASSERT_NE(dyn.leaf_of(h3), leaf1);

  ASSERT_TRUE(dyn.FailBroker(leaf1).ok());
  EXPECT_EQ(dyn.state(h1), SubscriberState::kOrphaned);
  EXPECT_EQ(dyn.state(h2), SubscriberState::kOrphaned);
  EXPECT_EQ(dyn.state(h3), SubscriberState::kLive);
  EXPECT_EQ(dyn.leaf_of(h1), -1);
  EXPECT_EQ(dyn.orphans(), (std::vector<int>{h1, h2}));
  EXPECT_EQ(dyn.live_count(), 1);
  EXPECT_EQ(dyn.population(), 3);
}

TEST(RepairEngineTest, RepairsOrphansToTheSurvivingLeaf) {
  DynamicAssigner dyn(TwoBrokerTree(), LooseConfig(), 4);
  const int h1 = dyn.Add(MakeSub(1, 0, 0.1, 0.1)).value();
  const int h2 = dyn.Add(MakeSub(1, 0.1, 0.2, 0.1)).value();
  const int leaf1 = dyn.leaf_of(h1);
  ASSERT_TRUE(dyn.FailBroker(leaf1).ok());

  RepairEngine engine(&dyn);
  const RepairReport report = engine.Repair();
  EXPECT_EQ(report.orphans_seen, 2);
  EXPECT_EQ(report.repaired, 2);
  EXPECT_EQ(report.degraded, 0);
  EXPECT_TRUE(dyn.orphans().empty());
  for (int h : {h1, h2}) {
    EXPECT_EQ(dyn.state(h), SubscriberState::kLive);
    EXPECT_NE(dyn.leaf_of(h), leaf1);
    EXPECT_TRUE(CoveredOnLivePath(dyn, dyn.leaf_of(h),
                                  dyn.subscriber(h).subscription));
  }
}

TEST(RepairEngineTest, LatencySlackRelaxationQuantifiesViolation) {
  // Tight latency: each subscriber is only feasible at its nearby broker.
  SaConfig config;
  config.max_delay = 0.05;
  config.alpha = 2;
  DynamicAssigner dyn(TwoBrokerTree(), config, 4);
  const int h = dyn.Add(MakeSub(1, 0, 0.1, 0.1)).value();
  const int leaf = dyn.leaf_of(h);
  ASSERT_TRUE(dyn.FailBroker(leaf).ok());

  RepairEngine engine(&dyn);
  const RepairReport report = engine.Repair();
  EXPECT_EQ(report.degraded, 1);
  EXPECT_EQ(dyn.state(h), SubscriberState::kDegraded);
  EXPECT_GE(dyn.leaf_of(h), 0);
  EXPECT_GT(dyn.violation(h).latency, 0);
  EXPECT_FALSE(dyn.violation(h).unplaced);
  EXPECT_DOUBLE_EQ(report.max_latency_violation, dyn.violation(h).latency);
  // Degraded-but-placed subscribers still receive events.
  EXPECT_TRUE(CoveredOnLivePath(dyn, dyn.leaf_of(h),
                                dyn.subscriber(h).subscription));
}

TEST(RepairEngineTest, ParksWhenNoLiveLeafThenUndegradesAfterRecovery) {
  DynamicAssigner dyn(TwoBrokerTree(), LooseConfig(), 4);
  const int h = dyn.Add(MakeSub(1, 0, 0.1, 0.1)).value();
  ASSERT_TRUE(dyn.FailBroker(1).ok());
  ASSERT_TRUE(dyn.FailBroker(2).ok());

  RepairOptions opts;
  opts.backoff_base = 2;
  RepairEngine engine(&dyn, opts);
  RepairReport report = engine.Repair(/*now=*/0);
  EXPECT_EQ(report.degraded, 1);
  EXPECT_EQ(dyn.state(h), SubscriberState::kDegraded);
  EXPECT_EQ(dyn.leaf_of(h), -1);
  EXPECT_TRUE(dyn.violation(h).unplaced);

  // Before the backoff elapses the degraded subscriber is not retried.
  report = engine.Repair(/*now=*/1);
  EXPECT_EQ(report.retried, 0);

  ASSERT_TRUE(dyn.RecoverBroker(1).ok());
  report = engine.Repair(/*now=*/10);
  EXPECT_EQ(report.retried, 1);
  EXPECT_EQ(report.undegraded, 1);
  EXPECT_EQ(dyn.state(h), SubscriberState::kLive);
  EXPECT_EQ(dyn.leaf_of(h), 1);
}

// Regression: backoff entries used to outlive their subscriber. The map
// must drain on Forget, on prune (removal without Forget), and on a
// successful un-degrade — and a recycled handle must never inherit a
// stale clock.
TEST(RepairEngineTest, BackoffEntriesAreErasedWithTheirSubscribers) {
  DynamicAssigner dyn(TwoBrokerTree(), LooseConfig(), 4);
  RepairOptions opts;
  opts.backoff_base = 2;
  RepairEngine engine(&dyn, opts);
  const int h0 = dyn.Add(MakeSub(1, 0, 0.1, 0.1)).value();
  const int h1 = dyn.Add(MakeSub(1, 0.1, 0.4, 0.1)).value();
  ASSERT_TRUE(dyn.FailBroker(1).ok());
  ASSERT_TRUE(dyn.FailBroker(2).ok());

  // No live leaf: both orphans park degraded and acquire backoff clocks.
  engine.Repair(/*now=*/0);
  ASSERT_EQ(dyn.state(h0), SubscriberState::kDegraded);
  ASSERT_EQ(dyn.state(h1), SubscriberState::kDegraded);
  EXPECT_EQ(engine.backoff_entries(), 2);

  // Voluntary departure with the caller-side hand-off: entry gone at once.
  ASSERT_TRUE(dyn.Remove(h0).ok());
  engine.Forget(h0);
  EXPECT_EQ(engine.backoff_entries(), 1);

  // Departure without Forget: the next pass prunes the stale entry.
  ASSERT_TRUE(dyn.Remove(h1).ok());
  engine.Repair(/*now=*/1);
  EXPECT_EQ(engine.backoff_entries(), 0);

  // Recycled handles start fresh: a new arrival re-uses h0's slot, parks
  // degraded, and must be retried on the next pass even though the old h0
  // entry would still have been backing off.
  ASSERT_TRUE(dyn.RecoverBroker(1).ok());
  const int h2 = dyn.Add(MakeSub(1, 0, 0.1, 0.1)).value();
  EXPECT_EQ(h2, std::min(h0, h1));
  EXPECT_EQ(dyn.state(h2), SubscriberState::kLive);
  EXPECT_EQ(engine.backoff_entries(), 0);
}

TEST(RepairEngineTest, UndegradeErasesTheBackoffEntry) {
  DynamicAssigner dyn(TwoBrokerTree(), LooseConfig(), 4);
  RepairOptions opts;
  opts.backoff_base = 2;
  RepairEngine engine(&dyn, opts);
  const int h = dyn.Add(MakeSub(1, 0, 0.1, 0.1)).value();
  ASSERT_TRUE(dyn.FailBroker(1).ok());
  ASSERT_TRUE(dyn.FailBroker(2).ok());
  engine.Repair(/*now=*/0);
  ASSERT_EQ(dyn.state(h), SubscriberState::kDegraded);
  ASSERT_EQ(engine.backoff_entries(), 1);

  ASSERT_TRUE(dyn.RecoverBroker(2).ok());
  const RepairReport report = engine.Repair(/*now=*/10);
  EXPECT_EQ(report.undegraded, 1);
  EXPECT_EQ(dyn.state(h), SubscriberState::kLive);
  EXPECT_EQ(engine.backoff_entries(), 0);
}

// ---------------------------------------------------------------------------
// Reoptimization through SLP

DynamicAssigner PopulatedAssigner(int n, uint64_t seed) {
  Rng rng(seed);
  DynamicAssigner dyn(TwoLevelTree(), LooseConfig(), n);
  for (int i = 0; i < n; ++i) {
    dyn.Add(MakeSub(rng.Uniform(-1, 1), rng.Uniform(-2, 2),
                    rng.Uniform(-0.9, 0.8), 0.1))
        .value();
  }
  return dyn;
}

// Reoptimize with an SLP adapter on a two-level assigner: γ = 8 makes the
// root and both interior brokers run LP stages. The installed deployment
// covers every subscriber on its live path, validates, and puts each
// subscriber on the leaf RunSlp gives it over the live snapshot with the
// same seed.
TEST(ReoptimizeTest, SlpOnTwoLevelAssignerInstallsRunSlpLeaves) {
  DynamicAssigner dyn = PopulatedAssigner(60, 11);
  SlpOptions options;
  options.gamma = 8;
  const Result<DynamicAssigner::LiveSnapshot> snap = dyn.SnapshotLive();
  ASSERT_TRUE(snap.ok());
  Rng rng_ref(5);
  SlpStats stats;
  const SaSolution reference =
      RunSlp(snap.value().problem, options, rng_ref, &stats).value();
  ASSERT_GT(stats.slp1_invocations, 0);  // LP stages ran

  Rng rng(5);
  dyn.Reoptimize(
      [&options](const SaProblem& p, Rng& r) {
        return RunSlp(p, options, r).value();
      },
      rng);

  ASSERT_EQ(dyn.live_count(), 60);
  for (int h = 0; h < dyn.slot_count(); ++h) {
    ASSERT_TRUE(dyn.is_occupied(h));
    EXPECT_TRUE(CoveredOnLivePath(dyn, dyn.leaf_of(h),
                                  dyn.subscriber(h).subscription));
  }
  const auto [problem, solution] = dyn.Snapshot();
  ValidationOptions validation;
  validation.check_load = false;
  EXPECT_TRUE(ValidateSolution(problem, solution, validation).ok());
  const std::vector<int>& row_handle = snap.value().row_handle;
  ASSERT_EQ(row_handle.size(), 60u);
  for (size_t row = 0; row < row_handle.size(); ++row) {
    EXPECT_EQ(dyn.leaf_of(row_handle[row]),
              snap.value().to_static[reference.assignment[row]])
        << "row " << row;
  }
}

// ---------------------------------------------------------------------------
// Fault replay

TEST(FaultPlanTest, SeededRandomIsDeterministic) {
  const net::BrokerTree tree = TwoLevelTree();
  Rng rng_a(9), rng_b(9);
  const sim::FaultPlan a =
      sim::FaultPlan::SeededRandom(tree, 500, 0.3, 100, rng_a);
  const sim::FaultPlan b =
      sim::FaultPlan::SeededRandom(tree, 500, 0.3, 100, rng_b);
  ASSERT_EQ(a.events().size(), b.events().size());
  ASSERT_FALSE(a.events().empty());
  for (size_t i = 0; i < a.events().size(); ++i) {
    EXPECT_EQ(a.events()[i].at_event, b.events()[i].at_event);
    EXPECT_EQ(a.events()[i].node, b.events()[i].node);
    EXPECT_EQ(a.events()[i].fail, b.events()[i].fail);
  }
  for (const sim::FaultEvent& e : a.events()) {
    EXPECT_NE(e.node, net::BrokerTree::kPublisher);
    EXPECT_GE(e.at_event, 0);
  }
}

std::vector<Point> UniformEvents(int n, Rng& rng) {
  std::vector<Point> events;
  for (int i = 0; i < n; ++i) {
    events.push_back({rng.Uniform(0, 1), rng.Uniform(0, 1)});
  }
  return events;
}

// The acceptance e2e: kill the most loaded leaf mid-replay; every orphan
// must end repaired or degraded-with-quantified-violations, nothing may
// abort, and repaired subscribers must miss nothing after repair.
TEST(FaultReplayTest, KillTheLoadedLeafMidReplay) {
  wl::GridParams params;
  params.num_subscribers = 250;
  params.num_brokers = 12;
  params.seed = 21;
  const wl::Workload w = wl::GenerateGrid(params);
  Rng tree_rng(3);
  net::BrokerTree tree =
      net::BuildMultiLevelTree(w.publisher, w.broker_locations, 4, tree_rng);

  SaConfig config;
  config.max_delay = 2.0;
  DynamicAssigner dyn(std::move(tree), config, params.num_subscribers);
  for (const auto& s : w.subscribers) ASSERT_TRUE(dyn.Add(s).ok());

  // The busiest leaf.
  int victim = -1, victim_load = -1;
  for (int leaf : dyn.tree().live_leaf_brokers()) {
    if (dyn.load_of(leaf) > victim_load) {
      victim_load = dyn.load_of(leaf);
      victim = leaf;
    }
  }
  ASSERT_GT(victim_load, 0);

  const sim::FaultPlan plan = sim::FaultPlan::Scripted(
      {sim::FaultEvent{150, victim, true}, sim::FaultEvent{350, victim, false}});
  Rng event_rng(4);
  const std::vector<Point> events = UniformEvents(500, event_rng);
  sim::FaultReplayOptions options;
  options.epoch_length = 100;
  Rng rng(6);
  const Result<sim::FaultReplayResult> replay =
      sim::ReplayWithFaults(dyn, plan, events, options, rng);
  ASSERT_TRUE(replay.ok()) << replay.status().message();
  const sim::FaultReplayResult& r = replay.value();

  EXPECT_EQ(r.total_orphaned, victim_load);
  // Every orphan ended repaired or degraded (never dropped, never aborted).
  EXPECT_EQ(r.total_repaired + r.total_degraded_placed, r.total_orphaned);
  EXPECT_TRUE(dyn.orphans().empty());
  // Repaired (kLive) subscribers missed nothing after repair.
  EXPECT_EQ(r.missed_live, 0);
  EXPECT_EQ(r.stats.missed_deliveries, 0);
  EXPECT_EQ(r.missed_degraded, 0);
  // One crash, declared dead on its tick and repaired before that tick's
  // event is routed: nobody misses an event for the outage.
  EXPECT_EQ(r.detection_latency, (std::vector<int>{0}));
  EXPECT_EQ(r.missed_outage, 0);
  ASSERT_EQ(r.epochs.size(), 5u);
  EXPECT_GT(r.stats.deliveries, 0);
  // Degraded survivors carry quantified violations.
  for (int h : dyn.degraded_handles()) {
    const DegradedViolation& v = dyn.violation(h);
    EXPECT_TRUE(v.latency > 0 || v.load > 0 || v.unplaced);
  }
  // The fresh-baseline inflation is well-formed (it may be below 1: the
  // incremental Gr placements can happen to beat a fresh Gr*).
  EXPECT_GT(r.qt_fresh, 0);
  EXPECT_GT(r.qt_inflation, 0);
  EXPECT_NEAR(r.qt_inflation, r.qt_final / r.qt_fresh, 1e-12);
}

// A slow detector: the oracle lease with a 26-window death threshold, so a
// crash at tick t (last heartbeat at t-1) is declared dead at t+25.
sim::FaultReplayOptions SlowDetectionOptions() {
  sim::FaultReplayOptions options;
  options.epoch_length = 40;
  options.lease.miss_dead = 26;
  return options;
}

// The per-epoch series tiles the replay totals exactly.
void ExpectEpochsTileTotals(const sim::FaultReplayResult& r) {
  int64_t outage = 0, live = 0, degraded = 0, undetected = 0, deliveries = 0;
  for (const sim::EpochRecoveryStats& e : r.epochs) {
    outage += e.missed_outage;
    live += e.missed_live;
    degraded += e.missed_degraded;
    undetected += e.missed_undetected;
    deliveries += e.deliveries;
  }
  EXPECT_EQ(outage, r.missed_outage);
  EXPECT_EQ(live, r.missed_live);
  EXPECT_EQ(degraded, r.missed_degraded);
  EXPECT_EQ(undetected, r.missed_undetected);
  EXPECT_EQ(deliveries, r.stats.deliveries);
}

TEST(FaultReplayTest, DetectionDelayCreatesMeasuredOutage) {
  DynamicAssigner dyn(TwoBrokerTree(), LooseConfig(), 8);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(dyn.Add(MakeSub(1, 0.1 * i, 0.3, 0.4)).ok());
  }
  const int victim = dyn.leaf_of(0);
  const sim::FaultPlan plan =
      sim::FaultPlan::Scripted({sim::FaultEvent{10, victim, true}});
  Rng event_rng(8);
  const std::vector<Point> events = UniformEvents(120, event_rng);
  Rng rng(2);
  const Result<sim::FaultReplayResult> replay = sim::ReplayWithFaults(
      dyn, plan, events, SlowDetectionOptions(), rng);
  ASSERT_TRUE(replay.ok()) << replay.status().message();
  const sim::FaultReplayResult& r = replay.value();
  // The crash is declared after the full detection window...
  ASSERT_EQ(r.detection_latency.size(), 1u);
  EXPECT_GE(r.detection_latency[0], 25);
  // ...misses inside it are attributed to the window, and live
  // subscribers still never miss.
  EXPECT_GT(r.missed_undetected, 0);
  EXPECT_EQ(r.missed_live, 0);
  // Once declared, the backlog is repaired.
  EXPECT_EQ(r.total_orphaned, 4);
  EXPECT_EQ(r.total_repaired + r.total_degraded_placed, r.total_orphaned);
  EXPECT_TRUE(dyn.orphans().empty());
  ExpectEpochsTileTotals(r);
}

// A second leaf crash inside the first one's detection window gets a full
// window of its own: each death is declared 25 ticks after its own crash,
// and each backlog is repaired when its leaf is declared dead.
TEST(FaultReplayTest, BackToBackFaultsEachPayAFullDetectionWindow) {
  SaConfig tight;  // default max_delay pins each subscriber to its broker
  tight.alpha = 2;
  DynamicAssigner dyn(TwoLevelTree(), tight, 8);
  const int ha = dyn.Add(MakeSub(-1, 2, 0.1, 0.1)).value();
  const int hb = dyn.Add(MakeSub(-1, -2, 0.6, 0.1)).value();
  const int leaf_a = dyn.leaf_of(ha);
  const int leaf_b = dyn.leaf_of(hb);
  ASSERT_NE(leaf_a, leaf_b);

  const sim::FaultPlan plan = sim::FaultPlan::Scripted(
      {sim::FaultEvent{10, leaf_a, true}, sim::FaultEvent{20, leaf_b, true}});
  Rng event_rng(8);
  const std::vector<Point> events = UniformEvents(120, event_rng);
  Rng rng(2);
  const Result<sim::FaultReplayResult> replay = sim::ReplayWithFaults(
      dyn, plan, events, SlowDetectionOptions(), rng);
  ASSERT_TRUE(replay.ok()) << replay.status().message();
  const sim::FaultReplayResult& r = replay.value();

  // Two windows, two outages: neither crash is detected early or late
  // because the other one is pending.
  EXPECT_EQ(r.detection_latency, (std::vector<int>{25, 25}));
  EXPECT_GT(r.missed_undetected, 0);
  EXPECT_EQ(r.missed_live, 0);
  EXPECT_EQ(r.total_orphaned, 2);
  EXPECT_EQ(r.total_repaired + r.total_degraded_placed, 2);
  EXPECT_TRUE(dyn.orphans().empty());
  ExpectEpochsTileTotals(r);
}

// A broker already failed in the overlay is down in ground truth too: it
// stays down until the plan recovers it, exactly as under crash-stop.
TEST(FaultReplayTest, PreFailedBrokerStaysDownUntilThePlanRecoversIt) {
  for (const bool recover : {false, true}) {
    DynamicAssigner dyn(TwoBrokerTree(), LooseConfig(), 8);
    for (int i = 0; i < 4; ++i) {
      ASSERT_TRUE(dyn.Add(MakeSub(1, 0.1 * i, 0.3, 0.4)).ok());
    }
    const int victim = dyn.leaf_of(0);
    ASSERT_TRUE(dyn.FailBroker(victim).ok());
    std::vector<sim::FaultEvent> faults;
    if (recover) faults.push_back(sim::FaultEvent{30, victim, false});
    Rng event_rng(8);
    const std::vector<Point> events = UniformEvents(60, event_rng);
    Rng rng(2);
    const Result<sim::FaultReplayResult> replay = sim::ReplayWithFaults(
        dyn, sim::FaultPlan::Scripted(faults), events, {}, rng);
    ASSERT_TRUE(replay.ok()) << replay.status().message();
    EXPECT_EQ(replay.value().broker_recoveries, recover ? 1 : 0);
    EXPECT_EQ(dyn.tree().is_failed(victim), !recover);
    EXPECT_TRUE(dyn.orphans().empty());
    EXPECT_EQ(replay.value().missed_live, 0);
  }
}

// A bad plan is rejected before the first tick, so the assigner is left as
// it was. Here leaf A fails at tick 2 and again at tick 5; a replay that
// checked each fault only when it reached it would already have declared
// A dead and moved its three subscribers onto B. A fault at or past the
// stream's end is never applied, so it is never checked either.
TEST(FaultReplayTest, BadPlanIsRejectedBeforeTheFirstTick) {
  DynamicAssigner dyn(TwoBrokerTree(), SaConfig{}, 8);
  const int leaf_a = 1, leaf_b = 2;
  for (int i = 0; i < 3; ++i) {
    const int h = dyn.Add(MakeSub(2, 0, 0.2 * i, 0.1)).value();
    ASSERT_EQ(dyn.leaf_of(h), leaf_a);
  }
  ASSERT_EQ(dyn.leaf_of(dyn.Add(MakeSub(-2, 0, 0.5, 0.1)).value()), leaf_b);
  const std::vector<int> loads = dyn.loads();
  const double qt = dyn.CurrentBandwidth();

  const sim::FaultPlan plan = sim::FaultPlan::Scripted(
      {sim::FaultEvent{2, leaf_a, true}, sim::FaultEvent{5, leaf_a, true}});
  Rng event_rng(8);
  const std::vector<Point> events = UniformEvents(10, event_rng);
  Rng rng(2);
  const Result<sim::FaultReplayResult> replay =
      sim::ReplayWithFaults(dyn, plan, events, {}, rng);
  EXPECT_EQ(replay.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(replay.status().message(), "broker already down");
  EXPECT_FALSE(dyn.tree().is_failed(leaf_a));
  EXPECT_FALSE(dyn.tree().is_failed(leaf_b));
  EXPECT_EQ(dyn.loads(), loads);
  EXPECT_EQ(dyn.CurrentBandwidth(), qt);
  EXPECT_TRUE(dyn.orphans().empty());

  // Five events end before the second fault: the same plan is accepted.
  const std::vector<Point> prefix(events.begin(), events.begin() + 5);
  const Result<sim::FaultReplayResult> short_replay =
      sim::ReplayWithFaults(dyn, plan, prefix, {}, rng);
  ASSERT_TRUE(short_replay.ok()) << short_replay.status().message();
  EXPECT_TRUE(dyn.tree().is_failed(leaf_a));
}

// Hand-counted delivery accounting on a scripted replay, with the
// production matcher and with a brute-force subscription probe
// (tests/route_oracle.h). Leaf A (node 1) holds clients 0 and 3, leaf B
// (node 2) clients 1 and 2; the default max_delay pins each subscriber to
// the leaf on its side. Event ec lies inside client c's rectangle and no
// other's, so only that client's leaf is reached. With one-tick
// heartbeats and a 10-tick client lease, client c refreshes at ticks
// ≡ c (mod 10):
//   tick  0     client 1 offline; e2 → B delivers to client 2
//   ticks 1–2   client 0 offline; e0 → A: stale delivery, A not wasted
//   ticks 3–4   e1 → B: client 1 offline but placed: stale delivery
//   tick  5     client 0 online again; e0 → A delivers
//   ticks 6–8   e3, e3, e2: deliveries
//   tick  9     client 1's lease (last heard at −1) expires; e1 → B over
//               its stale filter, no matching client there: wasted
//   tick 10     client 1 online but still expired (its phase is 1):
//               missed_expired, and B is wasted again
//   tick 11     client 1 reconnects onto B; e1 delivers
//   tick 12     A and B crash and are declared dead; with no live leaf
//               the repair ladder parks all four clients unplaced (their
//               leases freeze): e3 → client 3 missed_outage
//   tick 13     e0 → client 0 (online since tick 5) missed_outage
TEST(FaultReplayTest, ScriptedDeliveryAccountingIsExact) {
  // at[c] is event ec.
  const Point at[] = {{0.05, 0.05}, {0.45, 0.45}, {0.85, 0.85}, {0.25, 0.25}};
  std::vector<Point> events;
  for (const int c : {2, 0, 0, 1, 1, 0, 3, 3, 2, 1, 1, 1, 3, 0}) {
    events.push_back(at[c]);
  }
  const sim::FaultPlan plan = sim::FaultPlan::Scripted(
      {sim::FaultEvent{12, 1, true}, sim::FaultEvent{12, 2, true}},
      {sim::ClientEvent{0, 1, true}, sim::ClientEvent{1, 0, true},
       sim::ClientEvent{5, 0, false}, sim::ClientEvent{10, 1, false}});
  sim::FaultReplayOptions options;
  options.lease.subscriber_interval = 10;

  for (const bool oracle : {true, false}) {
    SCOPED_TRACE(oracle ? "brute-force probes" : "indexed");
    DynamicAssigner dyn(TwoBrokerTree(), SaConfig{}, 8);
    const int leaf_a = 1, leaf_b = 2;
    ASSERT_EQ(dyn.leaf_of(dyn.Add(MakeSub(2, 0, 0.0, 0.1)).value()), leaf_a);
    ASSERT_EQ(dyn.leaf_of(dyn.Add(MakeSub(-2, 0, 0.4, 0.1)).value()), leaf_b);
    ASSERT_EQ(dyn.leaf_of(dyn.Add(MakeSub(-2, 0, 0.8, 0.1)).value()), leaf_b);
    ASSERT_EQ(dyn.leaf_of(dyn.Add(MakeSub(2, 0, 0.2, 0.1)).value()), leaf_a);
    Rng rng(2);
    test::BruteForceMatcher matcher;
    const Result<sim::FaultReplayResult> replay =
        oracle ? sim::detail::ReplayWithFaults(dyn, plan, events, options,
                                               rng, &matcher)
               : sim::ReplayWithFaults(dyn, plan, events, options, rng);
    ASSERT_TRUE(replay.ok()) << replay.status().message();
    const sim::FaultReplayResult& r = replay.value();

    EXPECT_EQ(r.stats.deliveries, 6);
    EXPECT_EQ(r.stale_deliveries, 4);
    EXPECT_EQ(r.stats.wasted_leaf_hits, 2);
    EXPECT_EQ(r.missed_expired, 1);
    EXPECT_EQ(r.missed_outage, 2);
    EXPECT_EQ(r.missed_live, 0);
    EXPECT_EQ(r.missed_degraded, 0);
    EXPECT_EQ(r.missed_undetected, 0);
    EXPECT_EQ(r.stats.total_messages, 12);
    EXPECT_EQ(r.stats.broker_hits[leaf_a], 5);
    EXPECT_EQ(r.stats.broker_hits[leaf_b], 7);
    EXPECT_EQ(r.lease_expirations, 1);
    EXPECT_EQ(r.reconnects, 1);
    EXPECT_EQ(r.total_orphaned, 4);
    EXPECT_EQ(r.total_degraded_placed, 4);
    EXPECT_EQ(r.degraded_at_end, 4);
    EXPECT_EQ(r.detection_latency, (std::vector<int>{0, 0}));
  }
}

// Client refresh phases are bucketed by population, not by interval: an
// interval far longer than the stream neither allocates per tick nor
// expires anyone, and each client refreshes once, at the tick equal to its
// client id.
TEST(FaultReplayTest, HugeSubscriberIntervalRefreshesEachClientOnce) {
  DynamicAssigner dyn(TwoBrokerTree(), LooseConfig(), 8);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(dyn.Add(MakeSub(1, 0.1 * i, 0.3, 0.4)).ok());
  }
  sim::FaultReplayOptions options;
  options.lease = liveness::LeaseConfig{};
  options.lease.subscriber_interval = int64_t{1} << 40;
  Rng event_rng(8);
  const std::vector<Point> events = UniformEvents(50, event_rng);
  Rng rng(2);
  const Result<sim::FaultReplayResult> replay =
      sim::ReplayWithFaults(dyn, sim::FaultPlan(), events, options, rng);
  ASSERT_TRUE(replay.ok()) << replay.status().message();
  EXPECT_EQ(replay.value().refreshes_sent, 4);
  EXPECT_EQ(replay.value().refreshes_delivered, 4);
  EXPECT_EQ(replay.value().lease_expirations, 0);
}

// Ill-formed options are rejected up front instead of dividing by zero in
// the replay loop or the liveness tracker.
StatusCode ReplayStatus(const sim::FaultReplayOptions& options) {
  DynamicAssigner dyn(TwoBrokerTree(), LooseConfig(), 8);
  EXPECT_TRUE(dyn.Add(MakeSub(1, 0, 0.3, 0.4)).ok());
  const sim::FaultPlan plan =
      sim::FaultPlan::Scripted({sim::FaultEvent{2, dyn.leaf_of(0), true}});
  Rng event_rng(8);
  const std::vector<Point> events = UniformEvents(10, event_rng);
  Rng rng(2);
  return sim::ReplayWithFaults(dyn, plan, events, options, rng)
      .status()
      .code();
}

TEST(FaultReplayOptionsTest, RejectsNonPositiveEpochLength) {
  sim::FaultReplayOptions options;
  EXPECT_EQ(ReplayStatus(options), StatusCode::kOk);
  options.epoch_length = 0;
  EXPECT_EQ(ReplayStatus(options), StatusCode::kInvalidArgument);
}

TEST(FaultReplayOptionsTest, RejectsNonPositiveHeartbeatInterval) {
  sim::FaultReplayOptions options;
  options.lease.heartbeat_interval = 0;
  EXPECT_EQ(ReplayStatus(options), StatusCode::kInvalidArgument);
}

TEST(FaultReplayOptionsTest, RejectsNonPositiveSubscriberInterval) {
  sim::FaultReplayOptions options;
  options.lease.subscriber_interval = 0;
  EXPECT_EQ(ReplayStatus(options), StatusCode::kInvalidArgument);
}

TEST(FaultReplayOptionsTest, RejectsNonPositiveMissSuspect) {
  sim::FaultReplayOptions options;
  options.lease.miss_suspect = 0;
  EXPECT_EQ(ReplayStatus(options), StatusCode::kInvalidArgument);
}

TEST(FaultReplayOptionsTest, RejectsNonPositiveSubscriberMissDead) {
  sim::FaultReplayOptions options;
  options.lease.subscriber_miss_dead = 0;
  EXPECT_EQ(ReplayStatus(options), StatusCode::kInvalidArgument);
}

TEST(FaultReplayOptionsTest, RejectsMissDeadBelowMissSuspect) {
  sim::FaultReplayOptions options;
  options.lease.miss_suspect = 3;
  options.lease.miss_dead = 2;
  EXPECT_EQ(ReplayStatus(options), StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// Property fuzz: random Add/Remove/fail/recover sequences

TEST(RepairFuzzTest, RandomSequencesPreserveNestingAndDelivery) {
  constexpr int kSequences = 1000;
  constexpr int kOpsPerSequence = 14;
  for (int seq = 0; seq < kSequences; ++seq) {
    Rng rng(1000 + seq);
    DynamicAssigner dyn(TwoLevelTree(), LooseConfig(), 12);
    RepairEngine engine(&dyn, RepairOptions{/*backoff_base=*/1, 8});
    std::vector<int> handles;

    for (int op = 0; op < kOpsPerSequence; ++op) {
      const int kind = static_cast<int>(rng.UniformInt(0, 9));
      if (kind <= 4) {  // Add
        const Result<int> h = dyn.Add(
            MakeSub(rng.Uniform(-1, 1), rng.Uniform(-2, 2),
                    rng.Uniform(-0.9, 0.8), rng.Uniform(0.02, 0.2)));
        if (h.ok()) {
          handles.push_back(h.value());
        } else {
          // Only legitimate when every leaf is down.
          EXPECT_TRUE(dyn.tree().live_leaf_brokers().empty());
        }
      } else if (kind == 5 && !handles.empty()) {  // Remove
        const size_t pick = rng.UniformInt(0, handles.size() - 1);
        ASSERT_TRUE(dyn.Remove(handles[pick]).ok());
        handles.erase(handles.begin() + pick);
      } else if (kind <= 7) {  // Fail a random live broker
        std::vector<int> live;
        for (int v = 1; v < dyn.tree().num_nodes(); ++v) {
          if (!dyn.tree().is_failed(v)) live.push_back(v);
        }
        if (!live.empty()) {
          const int victim = live[rng.UniformInt(0, live.size() - 1)];
          ASSERT_TRUE(dyn.FailBroker(victim).ok());
        }
      } else if (kind == 8) {  // Recover a random failed broker
        std::vector<int> failed;
        for (int v = 1; v < dyn.tree().num_nodes(); ++v) {
          if (dyn.tree().is_failed(v)) failed.push_back(v);
        }
        if (!failed.empty()) {
          const int node = failed[rng.UniformInt(0, failed.size() - 1)];
          ASSERT_TRUE(dyn.RecoverBroker(node).ok());
        }
      } else {  // Repair tick
        engine.Repair(op);
      }
    }
    // Drain the backlog, then check the invariants.
    engine.Repair(kOpsPerSequence + 100);
    if (!dyn.tree().live_leaf_brokers().empty()) {
      ASSERT_TRUE(dyn.orphans().empty()) << "seq " << seq;
    }

    std::vector<int> loads(dyn.tree().num_nodes(), 0);
    int population = 0;
    for (int h : handles) {
      ASSERT_TRUE(dyn.is_occupied(h));
      ++population;
      const int leaf = dyn.leaf_of(h);
      if (leaf < 0) {
        // Only orphans and parked-degraded subscribers lack a leaf.
        ASSERT_NE(dyn.state(h), SubscriberState::kLive) << "seq " << seq;
        continue;
      }
      ASSERT_FALSE(dyn.tree().is_failed(leaf)) << "seq " << seq;
      ++loads[leaf];
      // Nesting/coverage: the placed subscriber's subscription is covered
      // at every broker on its live path.
      ASSERT_TRUE(CoveredOnLivePath(dyn, leaf, dyn.subscriber(h).subscription))
          << "seq " << seq << " handle " << h;
    }
    ASSERT_EQ(population, dyn.population()) << "seq " << seq;
    for (int leaf : dyn.tree().leaf_brokers()) {
      ASSERT_EQ(loads[leaf], dyn.load_of(leaf)) << "seq " << seq;
    }
    // Delivery: non-degraded live subscribers miss nothing (the coverage
    // walk above is the routing condition, checked pointwise here).
    for (int e = 0; e < 5; ++e) {
      const Point event = {rng.Uniform(-0.9, 1), rng.Uniform(-0.9, 1)};
      for (int h : handles) {
        if (dyn.state(h) != SubscriberState::kLive) continue;
        if (!dyn.subscriber(h).subscription.ContainsPoint(event)) continue;
        bool reached = true;
        for (int v = dyn.leaf_of(h); v != net::BrokerTree::kPublisher;
             v = dyn.tree().live_parent(v)) {
          bool inside = false;
          for (const Rectangle& r : dyn.filter(v)) {
            if (r.ContainsPoint(event)) {
              inside = true;
              break;
            }
          }
          if (!inside) {
            reached = false;
            break;
          }
        }
        ASSERT_TRUE(reached) << "seq " << seq << " missed delivery";
      }
    }
  }
}

}  // namespace
}  // namespace slp::core
