// Differential tests for event matching and routing (DESIGN.md §11):
// MatchIndex must agree with a linear rectangle scan on random and
// adversarial workloads in one, two and three dimensions (abutting tiles,
// duplicates, degenerate/point rectangles, probes exactly on boundaries,
// non-finite probes); Simulate must equal the brute-force router of
// tests/route_oracle.h, and its own loop over brute-force probes, on
// grid/GG/multi-level workloads and on random d = 1 and d = 3
// deployments; and the fault replay must equal its own loop over a
// brute-force subscription probe (oracle and realistic leases).

#include <algorithm>
#include <cstdint>
#include <limits>
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
#include "tests/route_oracle.h"
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
using sim::Simulate;

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

// Rectangles (not owners) containing p, by the dedup-free probe.
size_t NumContaining(const MatchIndex& index, const Point& p) {
  std::vector<int32_t> owners;
  index.AppendContaining(p, &owners);
  return owners.size();
}

void ExpectProbeMatchesScan(const MatchIndex& index,
                            const std::vector<OwnedRect>& rects,
                            const Point& p) {
  MatchBatch batch(&index);
  std::vector<int32_t> got = batch.Probe(p);
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, LinearOwners(rects, p))
      << "probe " << ::testing::PrintToString(p);
  size_t rect_hits = 0;
  for (const OwnedRect& r : rects) rect_hits += r.rect.ContainsPoint(p);
  EXPECT_EQ(NumContaining(index, p), rect_hits);
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
  EXPECT_EQ(batch.Probe({0.5, 0.25}).size(), 4u);
  // Interior of a shared vertical edge: exactly two tiles.
  EXPECT_EQ(batch.Probe({0.25, 0.1}).size(), 2u);
  // Outer boundary corner: one tile.
  EXPECT_EQ(batch.Probe({0.0, 0.0}).size(), 1u);
  // Outer edge, interior of one tile's top side: one tile.
  EXPECT_EQ(batch.Probe({0.6, 1.0}).size(), 1u);
  // Tile interior: one.
  EXPECT_EQ(batch.Probe({0.1, 0.1}).size(), 1u);

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
  const auto& at_point = batch.Probe({0.3, 0.7});
  EXPECT_EQ(LinearOwners(rects, {0.3, 0.7}),
            (std::vector<int32_t>{0, 2, 3}));
  EXPECT_EQ(at_point.size(), 3u);
}

TEST(MatchIndexTest, EmptyIndexAndOutOfBoundsProbes) {
  const MatchIndex empty = BuildIndex({}, 5);
  EXPECT_EQ(empty.num_rects(), 0);
  MatchBatch batch(&empty);
  EXPECT_TRUE(batch.Probe({0.5, 0.5}).empty());
  EXPECT_EQ(NumContaining(empty, {0.5, 0.5}), 0u);

  const std::vector<OwnedRect> rects = {{0, Rectangle({0, 0}, {1, 1})}};
  const MatchIndex index = BuildIndex(rects, 1);
  EXPECT_EQ(NumContaining(index, {1.0000001, 0.5}), 0u);
  EXPECT_EQ(NumContaining(index, {0.5, -0.0000001}), 0u);
  EXPECT_EQ(NumContaining(index, {1.0, 0.5}), 1u);  // closed upper edge
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

// Random rectangles in [0, 1]^d under `num_owners` owners, a tenth of
// them flat on one axis, plus an exact duplicate under another owner.
std::vector<OwnedRect> RandomRects(int d, int n, int num_owners, Rng& rng) {
  std::vector<OwnedRect> rects;
  for (int k = 0; k < n; ++k) {
    Point center(d);
    std::vector<double> widths(d);
    for (int a = 0; a < d; ++a) {
      center[a] = rng.Uniform(0, 1);
      widths[a] = rng.Bernoulli(0.1) ? 0 : rng.Uniform(0, 0.4);
    }
    rects.push_back({static_cast<int32_t>(k % num_owners),
                     Rectangle::FromCenter(center, widths)});
  }
  rects.push_back({static_cast<int32_t>(num_owners - 1), rects[0].rect});
  return rects;
}

// Axis 1 is flat when d = 1, and axes 2 and up are checked exactly when
// d = 3: random probes, every corner and the center of every rectangle,
// and the center moved onto each face, all agree with the linear scan.
TEST(MatchIndexTest, AgreesWithLinearScanInOneAndThreeDimensions) {
  for (const int d : {1, 3}) {
    SCOPED_TRACE(d);
    Rng rng(300 + d);
    const std::vector<OwnedRect> rects = RandomRects(d, 300, 120, rng);
    const MatchIndex index = BuildIndex(rects, 120);
    EXPECT_EQ(index.dim(), d);
    for (int k = 0; k < index.num_rects(); ++k) {
      EXPECT_EQ(index.rect(k), rects[k].rect);
    }
    for (int t = 0; t < 300; ++t) {
      Point p(d);
      for (int a = 0; a < d; ++a) p[a] = rng.Uniform(-0.2, 1.2);
      ExpectProbeMatchesScan(index, rects, p);
    }
    for (const OwnedRect& r : rects) {
      for (unsigned mask = 0; mask < (1u << d); ++mask) {
        ExpectProbeMatchesScan(index, rects, r.rect.Corner(mask));
      }
      const Point c = r.rect.Center();
      ExpectProbeMatchesScan(index, rects, c);
      for (int a = 0; a < d; ++a) {
        Point f = c;
        f[a] = r.rect.hi(a);
        ExpectProbeMatchesScan(index, rects, f);
      }
    }
  }
  // A point inside a 3-D box on axes 0 and 1 but outside it on axis 2.
  const std::vector<OwnedRect> box = {{0, Rectangle({0, 0, 0}, {1, 1, 1})}};
  const MatchIndex index = BuildIndex(box, 1);
  EXPECT_EQ(NumContaining(index, {0.5, 0.5, 1.5}), 0u);
  EXPECT_EQ(NumContaining(index, {0.5, 0.5, 1.0}), 1u);
}

// Regression: CellX/CellY cast floor(NaN) to int (undefined behaviour),
// and the probes then disagreed on whether NaN was inside. A non-finite
// coordinate on any axis lies outside every rectangle, for every probe.
TEST(MatchIndexTest, NonFiniteProbesMatchNothing) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const int d : {1, 2, 3}) {
    SCOPED_TRACE(d);
    Rng rng(400 + d);
    const std::vector<OwnedRect> rects = RandomRects(d, 200, 50, rng);
    const MatchIndex index = BuildIndex(rects, 50);
    MatchBatch batch(&index);
    for (int a = 0; a < d; ++a) {
      for (const double bad : {nan, inf, -inf}) {
        Point p(d, 0.5);
        p[a] = bad;
        EXPECT_TRUE(batch.Probe(p).empty()) << ::testing::PrintToString(p);
        EXPECT_EQ(batch.owners().Count(), 0);
        EXPECT_EQ(NumContaining(index, p), 0u);
        if (d <= 2) {
          std::vector<int32_t> out;
          index.AppendContaining(p[0], d == 2 ? p[1] : 0.0, &out);
          EXPECT_TRUE(out.empty());
        }
        for (const OwnedRect& r : rects) EXPECT_FALSE(r.rect.ContainsPoint(p));
      }
    }
  }
}

TEST(MatchAuditTest, ThreeDimensionalIndexPassesAndCorruptionTrips) {
  RecordingHandler handler;
  Rng rng(78);
  const std::vector<OwnedRect> rects = RandomRects(3, 100, 30, rng);
  const MatchIndex index = BuildIndex(rects, 30);
  match::AuditIndex(index, rects, "clean 3-D index");
  EXPECT_EQ(RecordingHandler::Total(), 0);
  // A reference that differs from the indexed rectangles only on axis 2
  // disagrees at its corners.
  std::vector<OwnedRect> corrupted = rects;
  std::vector<double> lo = corrupted[0].rect.lo();
  lo[2] -= 0.05;
  corrupted[0].rect = Rectangle(lo, corrupted[0].rect.hi());
  match::AuditIndex(index, corrupted, "corrupted 3-D reference");
  EXPECT_GE(RecordingHandler::Count(Category::kMatchIndex), 1);
}

// ---- Dissemination differential ----

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

// Simulates with the production matcher and checks every counter against
// the brute-force router and against the same loop over brute-force
// probes, sharded `num_shards` ways.
DisseminationStats SimulateAgainstOracle(const core::SaProblem& problem,
                                         const core::SaSolution& solution,
                                         const std::vector<Point>& events,
                                         int num_shards = 1) {
  const DisseminationStats got =
      Simulate(problem, solution, events, {num_shards});
  {
    SCOPED_TRACE("brute-force router");
    ExpectStatsEqual(got, test::BruteForceSimulate(problem, solution, events));
  }
  {
    SCOPED_TRACE("brute-force probes");
    ExpectStatsEqual(got, test::SimulateWithBruteForceProbes(
                              problem, solution, events, num_shards));
  }
  return got;
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

    SCOPED_TRACE(c.name);
    const DisseminationStats b = SimulateAgainstOracle(c.problem, s, events);
    EXPECT_EQ(b.missed_deliveries, 0);
    EXPECT_GT(b.deliveries, 0);
  }
}

TEST(DisseminationDifferentialTest, ShardedBitIdenticalToSerial) {
  core::SaProblem p = test::SmallGridProblem(600, 10);
  Rng rng(21);
  const core::SaSolution s = core::RunGrStar(p, rng);
  const std::vector<Point> events = DifferentialEvents(s, 3000, 23);

  const DisseminationStats serial = SimulateAgainstOracle(p, s, events);
  for (const int shards : {2, 4, 7}) {
    const DisseminationStats sharded = Simulate(p, s, events, {shards});
    SCOPED_TRACE(shards);
    ExpectStatsEqual(serial, sharded);
  }
}

TEST(DisseminationDifferentialTest, AbuttingLeafFiltersBoundaryEvent) {
  // Two leaves with abutting filters sharing the edge x = 0.5. An event
  // exactly on the edge enters BOTH brokers under the closed convention —
  // in production and in the oracle, with identical counters.
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
  const DisseminationStats stats =
      SimulateAgainstOracle(problem, solution, events);
  EXPECT_EQ(stats.broker_hits[a], 1);
  EXPECT_EQ(stats.broker_hits[b], 1);
  EXPECT_EQ(stats.total_messages, 2);
  // Both subscriptions also contain the edge event: two deliveries, no
  // waste, no misses.
  EXPECT_EQ(stats.deliveries, 2);
  EXPECT_EQ(stats.wasted_leaf_hits, 0);
  EXPECT_EQ(stats.missed_deliveries, 0);
}

TEST(DisseminationDifferentialTest, ParkedSubscriberSkippedAndCounted) {
  // Regression: assignment[j] < 0 (parked/orphaned in a dynamic snapshot)
  // used to index subs_of_leaf by a negative id — undefined behavior.
  // Routing must skip the subscriber, count it once, and keep it out of
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

  const DisseminationStats indexed = SimulateAgainstOracle(p, s, events);
  EXPECT_EQ(indexed.unplaced_subscribers, 2);
  // Parked subscribers are excluded from the miss walk: a fully-covered
  // deployment still reports zero misses.
  EXPECT_EQ(indexed.missed_deliveries, 0);
}

// Regression: a NaN coordinate used to reach an undefined float-to-int
// cast in the grid, after which the linear scan counted the event inside
// every rectangle and the index outside. A non-finite event lies outside
// every filter, so it enters no broker and matches no one.
TEST(DisseminationDifferentialTest, NonFiniteEventMatchesOracle) {
  core::SaProblem p = test::SmallGridProblem(300, 8);
  Rng rng(5);
  const core::SaSolution s = core::RunGrStar(p, rng);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<Point> events = {
      {nan, 0.3}, {0.3, nan}, {nan, nan}, {inf, 0.3}, {0.3, -inf}};
  const DisseminationStats stats = SimulateAgainstOracle(p, s, events);
  EXPECT_EQ(stats.events, static_cast<int>(events.size()));
  EXPECT_EQ(stats.total_messages, 0);
  EXPECT_EQ(stats.deliveries, 0);
  EXPECT_EQ(stats.wasted_leaf_hits, 0);
  EXPECT_EQ(stats.missed_deliveries, 0);
  EXPECT_EQ(stats.unplaced_subscribers, 0);
  for (const int64_t hits : stats.broker_hits) EXPECT_EQ(hits, 0);
}

// The index has no dimension gate: one-dimensional and three-dimensional
// deployments, with shrunk filters so that misses occur, route exactly
// like the brute-force router, serially and sharded.
TEST(DisseminationDifferentialTest,
     OneAndThreeDimensionalDeploymentsMatchOracle) {
  for (const int d : {1, 3}) {
    SCOPED_TRACE(d);
    const test::Deployment dep =
        test::RandomDeployment(d, 300, 30, 0.3, 60 + d);
    const std::vector<Point> events =
        test::RandomEvents(d, 1500, dep.solution, 70 + d);
    const DisseminationStats serial =
        SimulateAgainstOracle(dep.problem, dep.solution, events);
    EXPECT_GT(serial.deliveries, 0);
    EXPECT_GT(serial.missed_deliveries, 0);
    EXPECT_GT(serial.wasted_leaf_hits, 0);
    for (const int shards : {3, 8}) {
      SCOPED_TRACE(shards);
      ExpectStatsEqual(serial, SimulateAgainstOracle(dep.problem, dep.solution,
                                                     events, shards));
    }
  }
}

// With every subscriber parked nothing is delivered or missed, and every
// leaf an event reaches is a wasted hit.
TEST(DisseminationDifferentialTest, AllParkedDeploymentWastesEveryReachedLeaf) {
  test::Deployment dep = test::RandomDeployment(2, 200, 25, 0.0, 81);
  std::fill(dep.solution.assignment.begin(), dep.solution.assignment.end(),
            -1);
  const std::vector<Point> events =
      test::RandomEvents(2, 800, dep.solution, 82);
  const DisseminationStats stats =
      SimulateAgainstOracle(dep.problem, dep.solution, events);
  EXPECT_EQ(stats.unplaced_subscribers, dep.problem.num_subscribers());
  EXPECT_EQ(stats.deliveries, 0);
  EXPECT_EQ(stats.missed_deliveries, 0);
  int64_t leaf_hits = 0;
  for (const int leaf : dep.problem.tree().leaf_brokers()) {
    leaf_hits += stats.broker_hits[leaf];
  }
  EXPECT_GT(leaf_hits, 0);
  EXPECT_EQ(stats.wasted_leaf_hits, leaf_hits);
}

// ---- Fault-replay differential ----

// The grid workload on a multi-level tree, its subscriptions reshaped to
// d axes (test::ReshapeRectangle) when d != 2.
core::DynamicAssigner PopulatedAssigner(int subs, int brokers, uint64_t seed,
                                        int d = 2) {
  wl::GridParams params;
  params.num_subscribers = subs;
  params.num_brokers = brokers;
  params.seed = seed;
  wl::Workload w = wl::GenerateGrid(params);
  core::SaConfig config;
  config.max_delay = 2.0;
  Rng tree_rng(seed);
  net::BrokerTree tree =
      net::BuildMultiLevelTree(w.publisher, w.broker_locations, 6, tree_rng);
  core::DynamicAssigner dyn(std::move(tree), config, subs);
  Rng shape_rng(seed + 100);
  for (auto& sub : w.subscribers) {
    if (d != 2) {
      sub.subscription = test::ReshapeRectangle(sub.subscription, d, shape_rng);
    }
    auto r = dyn.Add(sub);
    EXPECT_TRUE(r.ok());
  }
  return dyn;
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

// The replay with the production matcher, or (oracle = true) the same
// loop over a brute-force scan of the clients' subscriptions.
Result<sim::FaultReplayResult> ReplayOracleOrIndexed(
    bool oracle, core::DynamicAssigner& dyn, const sim::FaultPlan& plan,
    const std::vector<Point>& events, const sim::FaultReplayOptions& options,
    Rng& rng) {
  if (!oracle) return sim::ReplayWithFaults(dyn, plan, events, options, rng);
  test::BruteForceMatcher matcher;
  return sim::detail::ReplayWithFaults(dyn, plan, events, options, rng,
                                       &matcher);
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
    options.epoch_length = 100;
    Rng rng(kSeed + 3);
    auto r = ReplayOracleOrIndexed(e == 0, dyn, plan, events, options, rng);
    ASSERT_TRUE(r.ok());
    results[e] = std::move(r).value();
  }

  const sim::FaultReplayResult& idx = results[1];
  ExpectReplayResultsEqual(results[0], idx);
  // The replay is correctness-critical: no live subscriber may miss.
  EXPECT_EQ(idx.missed_live, 0);
  EXPECT_GT(idx.total_orphaned, 0);  // the plan actually failed brokers
}

// The replay over a realistic lease, on crashes, slow brokers and flaky
// clients together, with d-dimensional events and subscriptions: with the
// production matcher, or (oracle = true) over a brute-force subscription
// probe.
sim::FaultReplayResult ReplayUnderLeases(bool oracle, int d) {
  constexpr int kSubs = 400, kBrokers = 24, kEvents = 600;
  constexpr uint64_t kSeed = 43;

  std::vector<geo::Point> events;
  Rng ev_rng(kSeed + 1);
  for (int i = 0; i < kEvents; ++i) {
    geo::Point e(d);
    for (int a = 0; a < d; ++a) e[a] = ev_rng.Uniform(0, 1);
    events.push_back(std::move(e));
  }

  core::DynamicAssigner dyn = PopulatedAssigner(kSubs, kBrokers, kSeed, d);
  Rng churn_rng(kSeed + 2), slow_rng(kSeed + 3), flaky_rng(kSeed + 4);
  const sim::FaultPlan churn = sim::SustainedChurn(
      dyn.tree(), kEvents, 0.15, kEvents / 8, 2, churn_rng);
  const sim::FaultPlan slow =
      sim::SlowBrokers(dyn.tree(), kEvents, 0.1, kEvents / 10, 8, slow_rng);
  const sim::FaultPlan flaky =
      sim::FlakyClients(kSubs, kEvents, 0.05, kEvents / 16, 2, flaky_rng);
  std::vector<sim::FaultEvent> merged = churn.events();
  merged.insert(merged.end(), slow.events().begin(), slow.events().end());
  const sim::FaultPlan plan =
      sim::FaultPlan::Scripted(std::move(merged), flaky.client_events());

  sim::FaultReplayOptions options;
  options.epoch_length = 100;
  options.lease = liveness::LeaseConfig{};
  options.lease.heartbeat_interval = 2;
  options.lease.subscriber_interval = 4;
  Rng rng(kSeed + 5);
  auto r = ReplayOracleOrIndexed(oracle, dyn, plan, events, options, rng);
  EXPECT_TRUE(r.ok()) << r.status().message();
  return r.ok() ? std::move(r).value() : sim::FaultReplayResult{};
}

// The same differential under a realistic lease, over crashes, slow
// brokers and flaky clients together: the offline-client skip,
// stale-delivery diversion and undetected-miss attribution must agree
// over brute-force and indexed probes on a plan that exercises all three.
// The replay enters brokers by their live filters and probes
// subscriptions in any d, so the same tree and plan run with 1-d and 3-d
// events and subscriptions too.
TEST(FaultReplayDifferentialTest, EnginesBitIdenticalUnderLeases) {
  for (const int d : {2, 1, 3}) {
    SCOPED_TRACE(d);
    const sim::FaultReplayResult oracle = ReplayUnderLeases(true, d);
    const sim::FaultReplayResult idx = ReplayUnderLeases(false, d);
    ExpectReplayResultsEqual(oracle, idx);
    // The plan reached every ground-truth branch of the walk.
    EXPECT_GT(idx.stats.deliveries, 0);
    EXPECT_GT(idx.total_orphaned, 0);
    EXPECT_GT(idx.missed_undetected, 0);
    EXPECT_GT(idx.stale_deliveries, 0);
    EXPECT_GT(idx.lease_expirations, 0);
    EXPECT_GT(idx.reconnects, 0);
    EXPECT_FALSE(idx.detection_latency.empty());
    EXPECT_EQ(idx.missed_live, 0);
  }
}

}  // namespace
}  // namespace slp
