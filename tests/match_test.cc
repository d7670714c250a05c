// Differential tests for the indexed matching engine (DESIGN.md §11):
// MatchIndex must agree with a linear rectangle scan on random and
// adversarial workloads (abutting tiles, duplicates, degenerate/point
// rectangles, probes exactly on boundaries), the indexed and linear
// dissemination engines must produce bit-identical DisseminationStats on
// grid/GG/multi-level workloads and under fault replay (oracle and
// realistic leases), and the parked-subscriber guard must hold on both
// engines.

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/invariant.h"
#include "src/core/dynamic.h"
#include "src/core/greedy.h"
#include "src/match/audit.h"
#include "src/match/bitset.h"
#include "src/match/match_index.h"
#include "src/network/tree_builder.h"
#include "src/sim/churn_scenarios.h"
#include "src/sim/dissemination.h"
#include "src/sim/fault_plan.h"
#include "tests/test_util.h"

namespace slp {
namespace {

using audit::Category;
using geo::Point;
using geo::Rectangle;
using match::BitSet;
using match::BuildIndex;
using match::MatchBatch;
using match::MatchIndex;
using match::OwnedRect;
using sim::DisseminationStats;
using sim::MatchEngine;
using sim::Simulate;
using sim::SimulateOptions;

// Installs a non-aborting recording handler for the test's lifetime and
// zeroes the trip counters on both entry and exit (invariant_test pattern).
class RecordingHandler {
 public:
  RecordingHandler() {
    audit::ResetTripCounts();
    previous_ = audit::SetFailureHandler(&Record);
  }
  ~RecordingHandler() {
    audit::SetFailureHandler(previous_);
    audit::ResetTripCounts();
  }

  static long Count(Category category) { return audit::trip_count(category); }

  static long Total() {
    long total = 0;
    for (int c = 0; c < static_cast<int>(Category::kCount); ++c) {
      total += audit::trip_count(static_cast<Category>(c));
    }
    return total;
  }

 private:
  static void Record(const audit::Violation&) {}

  audit::Handler previous_ = nullptr;
};

// Owners containing p, by linear scan — the ground truth every index
// answer is compared against.
std::vector<int32_t> LinearOwners(const std::vector<OwnedRect>& rects,
                                  const Point& p) {
  std::vector<int32_t> owners;
  for (const OwnedRect& r : rects) {
    if (r.rect.ContainsPoint(p)) owners.push_back(r.owner);
  }
  std::sort(owners.begin(), owners.end());
  owners.erase(std::unique(owners.begin(), owners.end()), owners.end());
  return owners;
}

void ExpectProbeMatchesScan(const MatchIndex& index,
                            const std::vector<OwnedRect>& rects,
                            const Point& p) {
  MatchBatch batch(&index);
  std::vector<int32_t> got = batch.Probe(p);
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, LinearOwners(rects, p))
      << "probe (" << p[0] << ", " << p[1] << ")";
  int rect_hits = 0;
  for (const OwnedRect& r : rects) rect_hits += r.rect.ContainsPoint(p);
  EXPECT_EQ(index.CountContaining(p[0], p[1]), rect_hits);
  EXPECT_EQ(index.AnyContains(p[0], p[1]), rect_hits > 0);
}

TEST(BitSetTest, SetTestResetCountIterate) {
  BitSet bits(200);
  EXPECT_EQ(bits.size(), 200);
  EXPECT_EQ(bits.Count(), 0);
  for (int i : {0, 1, 63, 64, 65, 128, 199}) bits.Set(i);
  EXPECT_EQ(bits.Count(), 7);
  EXPECT_TRUE(bits.Test(63));
  EXPECT_TRUE(bits.Test(64));
  EXPECT_FALSE(bits.Test(62));
  bits.Reset(64);
  EXPECT_FALSE(bits.Test(64));
  std::vector<int> seen;
  bits.ForEachSet([&](int i) { seen.push_back(i); });
  EXPECT_EQ(seen, (std::vector<int>{0, 1, 63, 65, 128, 199}));
  bits.ClearAll();
  EXPECT_EQ(bits.Count(), 0);
}

TEST(MatchIndexTest, AgreesWithLinearScanOnRandomWorkloads) {
  Rng rng(101);
  for (const int n : {1, 7, 64, 400}) {
    const int num_owners = std::max(1, n / 2);  // multi-rect owners
    std::vector<OwnedRect> rects;
    for (int k = 0; k < n; ++k) {
      const double cx = rng.Uniform(0, 1), cy = rng.Uniform(0, 1);
      // A mix of normal, thin, and degenerate extents.
      const double wx = rng.Bernoulli(0.1) ? 0 : rng.Uniform(0, 0.4);
      const double wy = rng.Bernoulli(0.1) ? 0 : rng.Uniform(0, 0.4);
      rects.push_back({static_cast<int32_t>(k % num_owners),
                       Rectangle::FromCenter({cx, cy}, {wx, wy})});
    }
    // Exact duplicates under distinct owners.
    if (n >= 7) {
      rects.push_back({0, rects[3].rect});
      rects.push_back({static_cast<int32_t>(num_owners - 1), rects[3].rect});
    }
    const MatchIndex index = BuildIndex(rects, num_owners);
    EXPECT_EQ(index.num_rects(), static_cast<int>(rects.size()));

    for (int t = 0; t < 200; ++t) {
      ExpectProbeMatchesScan(
          index, rects, {rng.Uniform(-0.2, 1.2), rng.Uniform(-0.2, 1.2)});
    }
    // Boundary probes: corners and edge midpoints of every rectangle are
    // exactly the points where closed-vs-half-open containment (or a grid
    // cell off-by-one) would diverge.
    for (const OwnedRect& r : rects) {
      for (unsigned mask = 0; mask < 4; ++mask) {
        ExpectProbeMatchesScan(index, rects, r.rect.Corner(mask));
      }
      const Point c = r.rect.Center();
      ExpectProbeMatchesScan(index, rects, {r.rect.lo(0), c[1]});
      ExpectProbeMatchesScan(index, rects, {c[0], r.rect.hi(1)});
    }
  }
}

TEST(MatchIndexTest, AbuttingTilesClosedBoundarySemantics) {
  // A 4x4 tiling of [0,1]^2: every interior edge is shared by two tiles,
  // every interior corner by four. Closed containment must report all of
  // them — in the index and in the linear scan alike.
  constexpr int kTiles = 4;
  std::vector<OwnedRect> rects;
  for (int ty = 0; ty < kTiles; ++ty) {
    for (int tx = 0; tx < kTiles; ++tx) {
      rects.push_back({static_cast<int32_t>(ty * kTiles + tx),
                       Rectangle({tx * 0.25, ty * 0.25},
                                 {(tx + 1) * 0.25, (ty + 1) * 0.25})});
    }
  }
  const MatchIndex index = BuildIndex(rects, kTiles * kTiles);

  MatchBatch batch(&index);
  // Interior corner (0.5, 0.25): four tiles meet.
  EXPECT_EQ(batch.Probe(0.5, 0.25).size(), 4u);
  // Interior of a shared vertical edge: exactly two tiles.
  EXPECT_EQ(batch.Probe(0.25, 0.1).size(), 2u);
  // Outer boundary corner: one tile.
  EXPECT_EQ(batch.Probe(0.0, 0.0).size(), 1u);
  // Outer edge, interior of one tile's top side: one tile.
  EXPECT_EQ(batch.Probe(0.6, 1.0).size(), 1u);
  // Tile interior: one.
  EXPECT_EQ(batch.Probe(0.1, 0.1).size(), 1u);

  // Every grid line intersection and edge midpoint agrees with the scan.
  for (int i = 0; i <= kTiles; ++i) {
    for (int j = 0; j <= kTiles; ++j) {
      ExpectProbeMatchesScan(index, rects, {i * 0.25, j * 0.25});
      ExpectProbeMatchesScan(index, rects, {i * 0.25, j * 0.25 - 0.125});
      ExpectProbeMatchesScan(index, rects, {i * 0.25 - 0.125, j * 0.25});
    }
  }
}

TEST(MatchIndexTest, DegeneratePointAndSegmentRectangles) {
  std::vector<OwnedRect> rects = {
      {0, Rectangle::FromPoint({0.3, 0.7})},          // point
      {1, Rectangle({0.1, 0.5}, {0.9, 0.5})},         // horizontal segment
      {2, Rectangle({0.3, 0.0}, {0.3, 1.0})},         // vertical segment
      {3, Rectangle({0.0, 0.0}, {1.0, 1.0})},         // enclosing box
  };
  const MatchIndex index = BuildIndex(rects, 4);
  ExpectProbeMatchesScan(index, rects, {0.3, 0.7});   // point + vseg + box
  ExpectProbeMatchesScan(index, rects, {0.3, 0.5});   // both segments + box
  ExpectProbeMatchesScan(index, rects, {0.5, 0.5});   // hseg + box
  ExpectProbeMatchesScan(index, rects, {0.3000001, 0.7});
  ExpectProbeMatchesScan(index, rects, {2.0, 2.0});   // outside everything

  MatchBatch batch(&index);
  const auto& at_point = batch.Probe(0.3, 0.7);
  EXPECT_EQ(LinearOwners(rects, {0.3, 0.7}),
            (std::vector<int32_t>{0, 2, 3}));
  EXPECT_EQ(at_point.size(), 3u);
}

TEST(MatchIndexTest, EmptyIndexAndOutOfBoundsProbes) {
  const MatchIndex empty = BuildIndex({}, 5);
  EXPECT_EQ(empty.num_rects(), 0);
  MatchBatch batch(&empty);
  EXPECT_TRUE(batch.Probe(0.5, 0.5).empty());
  EXPECT_EQ(empty.CountContaining(0.5, 0.5), 0);
  EXPECT_FALSE(empty.AnyContains(0.5, 0.5));

  const std::vector<OwnedRect> rects = {{0, Rectangle({0, 0}, {1, 1})}};
  const MatchIndex index = BuildIndex(rects, 1);
  EXPECT_FALSE(index.AnyContains(1.0000001, 0.5));
  EXPECT_FALSE(index.AnyContains(0.5, -0.0000001));
  EXPECT_TRUE(index.AnyContains(1.0, 0.5));  // closed upper edge
}

TEST(MatchIndexTest, BuilderMatchesBuildIndex) {
  MatchIndex::Builder builder(3);
  builder.Add(0, Rectangle({0, 0}, {0.5, 0.5}))
      .Add(1, Rectangle({0.5, 0}, {1, 0.5}))
      .Add(2, Rectangle({0, 0.5}, {1, 1}));
  const MatchIndex index = std::move(builder).Build();
  EXPECT_EQ(index.num_rects(), 3);
  EXPECT_EQ(index.num_owners(), 3);
  MatchBatch batch(&index);
  EXPECT_EQ(batch.Probe(0.5, 0.5).size(), 3u);  // shared corner of all three
}

TEST(MatchAuditTest, CleanIndexPassesAudit) {
  RecordingHandler handler;
  Rng rng(77);
  std::vector<OwnedRect> rects;
  for (int k = 0; k < 120; ++k) {
    rects.push_back({static_cast<int32_t>(k % 40),
                     Rectangle::FromCenter(
                         {rng.Uniform(0, 1), rng.Uniform(0, 1)},
                         {rng.Uniform(0, 0.3), rng.Uniform(0, 0.3)})});
  }
  const MatchIndex index = BuildIndex(rects, 40);
  match::AuditIndex(index, rects, "clean index",
                    {{0.5, 0.5}, {0.0, 0.0}, {2.0, 2.0}});
  EXPECT_EQ(RecordingHandler::Total(), 0);
}

TEST(MatchAuditTest, TripsOnCorruptedReference) {
  RecordingHandler handler;
  std::vector<OwnedRect> rects = {
      {0, Rectangle({0, 0}, {0.5, 1})},
      {1, Rectangle({0.5, 0}, {1, 1})},
  };
  const MatchIndex index = BuildIndex(rects, 2);
  // An index built from a *different* rectangle set must be caught: the
  // linear scan over the claimed reference disagrees with the probes.
  std::vector<OwnedRect> corrupted = rects;
  corrupted[1].rect = Rectangle({0.6, 0}, {1, 1});
  match::AuditIndex(index, corrupted, "corrupted reference");
  EXPECT_GE(RecordingHandler::Count(Category::kMatchIndex), 1);
  EXPECT_EQ(RecordingHandler::Total(),
            RecordingHandler::Count(Category::kMatchIndex));
}

// ---- Dissemination engine differential ----

void ExpectStatsEqual(const DisseminationStats& a,
                      const DisseminationStats& b) {
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.total_messages, b.total_messages);
  EXPECT_EQ(a.deliveries, b.deliveries);
  EXPECT_EQ(a.wasted_leaf_hits, b.wasted_leaf_hits);
  EXPECT_EQ(a.missed_deliveries, b.missed_deliveries);
  EXPECT_EQ(a.unplaced_subscribers, b.unplaced_subscribers);
  EXPECT_EQ(a.broker_hits, b.broker_hits);
}

// Events for the differential: uniform samples plus every corner and
// edge midpoint of every filter rectangle — deterministic boundary events
// that sit exactly where the engines could disagree.
std::vector<Point> DifferentialEvents(const core::SaSolution& solution,
                                      int uniform_events, uint64_t seed) {
  std::vector<Point> events;
  Rng rng(seed);
  for (int i = 0; i < uniform_events; ++i) {
    events.push_back({rng.Uniform(0, 1), rng.Uniform(0, 1)});
  }
  for (const geo::Filter& f : solution.filters) {
    for (const Rectangle& r : f.rects()) {
      for (unsigned mask = 0; mask < 4; ++mask) {
        events.push_back(r.Corner(mask));
      }
      const Point c = r.Center();
      events.push_back({r.lo(0), c[1]});
      events.push_back({c[0], r.hi(1)});
    }
  }
  return events;
}

TEST(DisseminationDifferentialTest, EnginesBitIdenticalAcrossWorkloads) {
  struct Case {
    const char* name;
    core::SaProblem problem;
  };
  std::vector<Case> cases;
  cases.push_back({"grid", test::SmallGridProblem(500, 8)});
  cases.push_back({"gg", test::SmallGgProblem(400, 10)});
  cases.push_back({"multilevel", test::SmallMultiLevelProblem(400, 20, 4)});

  for (Case& c : cases) {
    Rng rng(11);
    const core::SaSolution s = core::RunGrStar(c.problem, rng);
    const std::vector<Point> events = DifferentialEvents(s, 2000, 13);

    SimulateOptions linear{MatchEngine::kLinear, 1};
    SimulateOptions indexed{MatchEngine::kIndexed, 1};
    const DisseminationStats a = Simulate(c.problem, s, events, linear);
    const DisseminationStats b = Simulate(c.problem, s, events, indexed);
    SCOPED_TRACE(c.name);
    ExpectStatsEqual(a, b);
    EXPECT_EQ(b.missed_deliveries, 0);
    EXPECT_GT(b.deliveries, 0);
  }
}

TEST(DisseminationDifferentialTest, ShardedBitIdenticalToSerial) {
  core::SaProblem p = test::SmallGridProblem(600, 10);
  Rng rng(21);
  const core::SaSolution s = core::RunGrStar(p, rng);
  const std::vector<Point> events = DifferentialEvents(s, 3000, 23);

  for (const MatchEngine engine :
       {MatchEngine::kLinear, MatchEngine::kIndexed}) {
    const DisseminationStats serial =
        Simulate(p, s, events, {engine, 1});
    for (const int shards : {2, 4, 7}) {
      const DisseminationStats sharded =
          Simulate(p, s, events, {engine, shards});
      SCOPED_TRACE(shards);
      ExpectStatsEqual(serial, sharded);
    }
  }
}

TEST(DisseminationDifferentialTest, AbuttingLeafFiltersBoundaryEvent) {
  // Two leaves with abutting filters sharing the edge x = 0.5. An event
  // exactly on the edge enters BOTH brokers under the closed convention —
  // on both engines, with identical counters.
  net::BrokerTree tree({0, 0});
  const int a = tree.AddBroker({1, 0}, net::BrokerTree::kPublisher);
  const int b = tree.AddBroker({-1, 0}, net::BrokerTree::kPublisher);
  tree.Finalize();
  std::vector<wl::Subscriber> subs(2);
  subs[0].location = {1, 1};
  subs[0].subscription = Rectangle({0, 0}, {0.5, 1});
  subs[1].location = {-1, 1};
  subs[1].subscription = Rectangle({0.5, 0}, {1, 1});
  core::SaConfig config;
  config.max_delay = 2.0;
  core::SaProblem problem(std::move(tree), std::move(subs), config);

  core::SaSolution solution;
  solution.algorithm = "hand";
  solution.assignment = {a, b};
  solution.filters.assign(problem.tree().num_nodes(), geo::Filter());
  solution.filters[a] = geo::Filter({Rectangle({0, 0}, {0.5, 1})});
  solution.filters[b] = geo::Filter({Rectangle({0.5, 0}, {1, 1})});

  const std::vector<Point> events = {{0.5, 0.5}};  // exactly on the edge
  for (const MatchEngine engine :
       {MatchEngine::kLinear, MatchEngine::kIndexed}) {
    const DisseminationStats stats =
        Simulate(problem, solution, events, {engine, 1});
    SCOPED_TRACE(engine == MatchEngine::kLinear ? "linear" : "indexed");
    EXPECT_EQ(stats.broker_hits[a], 1);
    EXPECT_EQ(stats.broker_hits[b], 1);
    EXPECT_EQ(stats.total_messages, 2);
    // Both subscriptions also contain the edge event: two deliveries, no
    // waste, no misses.
    EXPECT_EQ(stats.deliveries, 2);
    EXPECT_EQ(stats.wasted_leaf_hits, 0);
    EXPECT_EQ(stats.missed_deliveries, 0);
  }
}

TEST(DisseminationDifferentialTest, ParkedSubscriberSkippedAndCounted) {
  // Regression: assignment[j] < 0 (parked/orphaned in a dynamic snapshot)
  // used to index subs_of_leaf by a negative id — undefined behavior. Both
  // engines must skip the subscriber, count it once, and keep it out of
  // the ground-truth miss walk.
  core::SaProblem p = test::SmallGridProblem(200, 5);
  Rng rng(31);
  core::SaSolution s = core::RunGrStar(p, rng);
  s.assignment[7] = -1;
  s.assignment[23] = -1;

  // Events that the parked subscribers' subscriptions definitely match:
  // their own subscription centers.
  std::vector<Point> events = {p.subscriber(7).subscription.Center(),
                               p.subscriber(23).subscription.Center()};
  Rng ev_rng(32);
  for (int i = 0; i < 500; ++i) {
    events.push_back({ev_rng.Uniform(0, 1), ev_rng.Uniform(0, 1)});
  }

  const DisseminationStats linear =
      Simulate(p, s, events, {MatchEngine::kLinear, 1});
  const DisseminationStats indexed =
      Simulate(p, s, events, {MatchEngine::kIndexed, 1});
  ExpectStatsEqual(linear, indexed);
  EXPECT_EQ(indexed.unplaced_subscribers, 2);
  // Parked subscribers are excluded from the miss walk: a fully-covered
  // deployment still reports zero misses.
  EXPECT_EQ(indexed.missed_deliveries, 0);
}

// ---- Fault-replay engine differential ----

core::DynamicAssigner PopulatedAssigner(int subs, int brokers,
                                        uint64_t seed) {
  wl::GridParams params;
  params.num_subscribers = subs;
  params.num_brokers = brokers;
  params.seed = seed;
  const wl::Workload w = wl::GenerateGrid(params);
  core::SaConfig config;
  config.max_delay = 2.0;
  Rng tree_rng(seed);
  net::BrokerTree tree =
      net::BuildMultiLevelTree(w.publisher, w.broker_locations, 6, tree_rng);
  core::DynamicAssigner dyn(std::move(tree), config, subs);
  for (const auto& sub : w.subscribers) {
    auto r = dyn.Add(sub);
    EXPECT_TRUE(r.ok());
  }
  return dyn;
}

TEST(FaultReplayDifferentialTest, EnginesBitIdenticalUnderFaults) {
  constexpr int kSubs = 400, kBrokers = 24, kEvents = 600;
  constexpr uint64_t kSeed = 41;

  std::vector<geo::Point> events;
  Rng ev_rng(kSeed + 1);
  for (int i = 0; i < kEvents; ++i) {
    events.push_back({ev_rng.Uniform(0, 1), ev_rng.Uniform(0, 1)});
  }

  sim::FaultReplayResult results[2];
  for (int e = 0; e < 2; ++e) {
    core::DynamicAssigner dyn = PopulatedAssigner(kSubs, kBrokers, kSeed);
    Rng plan_rng(kSeed + 2);
    const sim::FaultPlan plan = sim::FaultPlan::SeededRandom(
        dyn.tree(), kEvents, 0.15, kEvents / 3, plan_rng);
    sim::FaultReplayOptions options;
    options.engine = e == 0 ? MatchEngine::kLinear : MatchEngine::kIndexed;
    options.epoch_length = 100;
    options.compute_fresh_baseline = false;
    Rng rng(kSeed + 3);
    auto r = sim::ReplayWithFaults(dyn, plan, events, options, rng);
    ASSERT_TRUE(r.ok());
    results[e] = std::move(r).value();
  }

  const sim::FaultReplayResult& lin = results[0];
  const sim::FaultReplayResult& idx = results[1];
  ExpectStatsEqual(lin.stats, idx.stats);
  EXPECT_EQ(lin.missed_live, idx.missed_live);
  EXPECT_EQ(lin.missed_outage, idx.missed_outage);
  EXPECT_EQ(lin.missed_degraded, idx.missed_degraded);
  EXPECT_EQ(lin.total_orphaned, idx.total_orphaned);
  EXPECT_EQ(lin.total_repaired, idx.total_repaired);
  EXPECT_EQ(lin.total_degraded_placed, idx.total_degraded_placed);
  EXPECT_EQ(lin.total_undegraded, idx.total_undegraded);
  EXPECT_EQ(lin.time_to_repair, idx.time_to_repair);
  EXPECT_EQ(lin.unrepaired_at_end, idx.unrepaired_at_end);
  EXPECT_EQ(lin.degraded_at_end, idx.degraded_at_end);
  EXPECT_EQ(lin.qt_final, idx.qt_final);
  ASSERT_EQ(lin.epochs.size(), idx.epochs.size());
  for (size_t i = 0; i < lin.epochs.size(); ++i) {
    EXPECT_EQ(lin.epochs[i].deliveries, idx.epochs[i].deliveries);
    EXPECT_EQ(lin.epochs[i].missed_outage, idx.epochs[i].missed_outage);
    EXPECT_EQ(lin.epochs[i].repaired, idx.epochs[i].repaired);
    EXPECT_EQ(lin.epochs[i].orphans_end, idx.epochs[i].orphans_end);
  }
  // The replay is correctness-critical: no live subscriber may miss.
  EXPECT_EQ(idx.missed_live, 0);
  EXPECT_GT(idx.total_orphaned, 0);  // the plan actually failed brokers
}

// Every FaultReplayResult field, per-epoch series included.
void ExpectReplayResultsEqual(const sim::FaultReplayResult& a,
                              const sim::FaultReplayResult& b) {
  ExpectStatsEqual(a.stats, b.stats);
  EXPECT_EQ(a.missed_live, b.missed_live);
  EXPECT_EQ(a.missed_outage, b.missed_outage);
  EXPECT_EQ(a.missed_degraded, b.missed_degraded);
  EXPECT_EQ(a.total_orphaned, b.total_orphaned);
  EXPECT_EQ(a.total_repaired, b.total_repaired);
  EXPECT_EQ(a.total_degraded_placed, b.total_degraded_placed);
  EXPECT_EQ(a.total_undegraded, b.total_undegraded);
  EXPECT_EQ(a.time_to_repair, b.time_to_repair);
  EXPECT_EQ(a.unrepaired_at_end, b.unrepaired_at_end);
  EXPECT_EQ(a.degraded_at_end, b.degraded_at_end);
  EXPECT_EQ(a.qt_final, b.qt_final);
  EXPECT_EQ(a.qt_fresh, b.qt_fresh);
  EXPECT_EQ(a.qt_inflation, b.qt_inflation);
  ASSERT_EQ(a.epochs.size(), b.epochs.size());
  for (size_t i = 0; i < a.epochs.size(); ++i) {
    const sim::EpochRecoveryStats& x = a.epochs[i];
    const sim::EpochRecoveryStats& y = b.epochs[i];
    EXPECT_EQ(x.first_event, y.first_event) << i;
    EXPECT_EQ(x.num_events, y.num_events) << i;
    EXPECT_EQ(x.deliveries, y.deliveries) << i;
    EXPECT_EQ(x.missed_outage, y.missed_outage) << i;
    EXPECT_EQ(x.missed_live, y.missed_live) << i;
    EXPECT_EQ(x.missed_degraded, y.missed_degraded) << i;
    EXPECT_EQ(x.missed_undetected, y.missed_undetected) << i;
    EXPECT_EQ(x.repaired, y.repaired) << i;
    EXPECT_EQ(x.degraded_placed, y.degraded_placed) << i;
    EXPECT_EQ(x.orphans_end, y.orphans_end) << i;
    EXPECT_EQ(x.degraded_end, y.degraded_end) << i;
    EXPECT_EQ(x.suspects_end, y.suspects_end) << i;
    EXPECT_EQ(x.qt_end, y.qt_end) << i;
  }
  EXPECT_EQ(a.missed_undetected, b.missed_undetected);
  EXPECT_EQ(a.missed_expired, b.missed_expired);
  EXPECT_EQ(a.stale_deliveries, b.stale_deliveries);
  EXPECT_EQ(a.heartbeats_sent, b.heartbeats_sent);
  EXPECT_EQ(a.heartbeats_delivered, b.heartbeats_delivered);
  EXPECT_EQ(a.refreshes_sent, b.refreshes_sent);
  EXPECT_EQ(a.refreshes_delivered, b.refreshes_delivered);
  EXPECT_EQ(a.false_suspicions, b.false_suspicions);
  EXPECT_EQ(a.premature_evacuations, b.premature_evacuations);
  EXPECT_EQ(a.lease_expirations, b.lease_expirations);
  EXPECT_EQ(a.false_lease_expirations, b.false_lease_expirations);
  EXPECT_EQ(a.reconnects, b.reconnects);
  EXPECT_EQ(a.broker_recoveries, b.broker_recoveries);
  EXPECT_EQ(a.detection_latency, b.detection_latency);
  EXPECT_EQ(a.deaths_deferred, b.deaths_deferred);
}

// The same differential under a realistic lease, over crashes, slow
// brokers and flaky clients together: the linear walk's offline-client
// skip, stale-delivery diversion and undetected-miss attribution must
// agree with the indexed engine's on a plan that exercises all three.
TEST(FaultReplayDifferentialTest, EnginesBitIdenticalUnderLeases) {
  constexpr int kSubs = 400, kBrokers = 24, kEvents = 600;
  constexpr uint64_t kSeed = 43;

  std::vector<geo::Point> events;
  Rng ev_rng(kSeed + 1);
  for (int i = 0; i < kEvents; ++i) {
    events.push_back({ev_rng.Uniform(0, 1), ev_rng.Uniform(0, 1)});
  }

  sim::FaultReplayResult results[2];
  for (int e = 0; e < 2; ++e) {
    core::DynamicAssigner dyn = PopulatedAssigner(kSubs, kBrokers, kSeed);
    Rng churn_rng(kSeed + 2), slow_rng(kSeed + 3), flaky_rng(kSeed + 4);
    const sim::FaultPlan churn = sim::SustainedChurn(
        dyn.tree(), kEvents, 0.15, kEvents / 8, 2, churn_rng);
    const sim::FaultPlan slow = sim::SlowBrokers(
        dyn.tree(), kEvents, 0.1, kEvents / 10, 8, slow_rng);
    const sim::FaultPlan flaky = sim::FlakyClients(
        kSubs, kEvents, 0.05, kEvents / 16, 2, flaky_rng);
    std::vector<sim::FaultEvent> merged = churn.events();
    merged.insert(merged.end(), slow.events().begin(), slow.events().end());
    const sim::FaultPlan plan =
        sim::FaultPlan::Scripted(std::move(merged), flaky.client_events());

    sim::FaultReplayOptions options;
    options.engine = e == 0 ? MatchEngine::kLinear : MatchEngine::kIndexed;
    options.epoch_length = 100;
    options.lease = liveness::LeaseConfig{};
    options.lease.heartbeat_interval = 2;
    options.lease.subscriber_interval = 4;
    Rng rng(kSeed + 5);
    auto r = sim::ReplayWithFaults(dyn, plan, events, options, rng);
    ASSERT_TRUE(r.ok()) << r.status().message();
    results[e] = std::move(r).value();
  }

  ExpectReplayResultsEqual(results[0], results[1]);
  // The plan reached every ground-truth branch of the walk.
  const sim::FaultReplayResult& idx = results[1];
  EXPECT_GT(idx.missed_undetected, 0);
  EXPECT_GT(idx.stale_deliveries, 0);
  EXPECT_GT(idx.lease_expirations, 0);
  EXPECT_GT(idx.reconnects, 0);
  EXPECT_FALSE(idx.detection_latency.empty());
  EXPECT_EQ(idx.missed_live, 0);
}

}  // namespace
}  // namespace slp
