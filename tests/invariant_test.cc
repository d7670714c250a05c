// Tests for the invariant-audit framework (DESIGN.md §10): each seeded
// corruption must be caught by exactly the intended auditor, a clean
// end-to-end run must trip nothing, and the SLP_DCHECK / SLP_INVARIANT
// macros must honor their build-type contract.

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "src/common/invariant.h"
#include "src/core/assignment_flow.h"
#include "src/core/audit.h"
#include "src/core/dynamic.h"
#include "src/common/random.h"
#include "src/core/slp.h"
#include "src/geometry/audit.h"
#include "src/geometry/filter.h"
#include "src/geometry/rectangle.h"
#include "src/liveness/audit.h"
#include "src/liveness/liveness_tracker.h"
#include "src/network/audit.h"
#include "src/network/broker_tree.h"
#include "tests/test_util.h"

namespace slp {
namespace {

using audit::Category;

// Installs a non-aborting recording handler for the test's lifetime and
// zeroes the trip counters on both entry and exit.
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

  // Trips in `category`.
  static long Count(Category category) { return audit::trip_count(category); }

  // Total trips across every category.
  static long Total() {
    long total = 0;
    for (int c = 0; c < static_cast<int>(Category::kCount); ++c) {
      total += audit::trip_count(static_cast<Category>(c));
    }
    return total;
  }

  // Asserts all trips (if any) landed in `category` and nowhere else.
  static void ExpectOnly(Category category, long at_least = 1) {
    for (int c = 0; c < static_cast<int>(Category::kCount); ++c) {
      const auto cat = static_cast<Category>(c);
      if (cat == category) {
        EXPECT_GE(audit::trip_count(cat), at_least)
            << "expected trips in " << audit::ToString(cat);
      } else {
        EXPECT_EQ(audit::trip_count(cat), 0)
            << "unexpected trips in " << audit::ToString(cat);
      }
    }
  }

 private:
  static void Record(const audit::Violation&) {}  // counters already bumped

  audit::Handler previous_ = nullptr;
};

wl::Subscriber MakeSub(double x, double y, double cx, double w) {
  wl::Subscriber s;
  s.location = {x, y};
  s.subscription = geo::Rectangle({cx, cx}, {cx + w, cx + w});
  return s;
}

// Publisher -> two interior brokers -> two leaves each.
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

core::SaConfig LooseConfig() {
  core::SaConfig config;
  config.max_delay = 3.0;
  config.alpha = 2;
  return config;
}

// ---------------------------------------------------------------------------
// Macro mechanics
// ---------------------------------------------------------------------------

TEST(InvariantMacroTest, AuditCheckAlwaysFires) {
  RecordingHandler guard;
  SLP_AUDIT_CHECK(Category::kRectangle, 1 + 1 == 3, "arithmetic");
  EXPECT_EQ(guard.Count(Category::kRectangle), 1);
  EXPECT_EQ(guard.Count(Category::kDcheck), 0);
}

TEST(InvariantMacroTest, DcheckHonorsBuildType) {
  RecordingHandler guard;
  int evaluations = 0;
  SLP_DCHECK((++evaluations, false));
#if SLP_AUDITS_ENABLED
  EXPECT_EQ(evaluations, 1);
  EXPECT_EQ(guard.Count(Category::kDcheck), 1);
#else
  EXPECT_EQ(evaluations, 0) << "Release must not evaluate SLP_DCHECK args";
  EXPECT_EQ(guard.Count(Category::kDcheck), 0);
#endif
}

TEST(InvariantMacroTest, InvariantHonorsBuildType) {
  RecordingHandler guard;
  int evaluations = 0;
  SLP_INVARIANT(Category::kBasis, (++evaluations, false), "seeded failure");
#if SLP_AUDITS_ENABLED
  EXPECT_EQ(evaluations, 1);
  EXPECT_EQ(guard.Count(Category::kBasis), 1);
#else
  EXPECT_EQ(evaluations, 0);
  EXPECT_EQ(guard.Count(Category::kBasis), 0);
#endif
}

TEST(InvariantMacroTest, HandlerReceivesStructuredViolation) {
  static audit::Violation last;
  audit::ResetTripCounts();
  audit::Handler prev = audit::SetFailureHandler(
      [](const audit::Violation& v) { last = v; });
  SLP_AUDIT_CHECK(Category::kFlow, false, std::string("node 7"));
  audit::SetFailureHandler(prev);
  EXPECT_EQ(last.category, Category::kFlow);
  EXPECT_STREQ(last.expression, "false");
  EXPECT_EQ(last.context, "node 7");
  EXPECT_NE(last.line, 0);
  audit::ResetTripCounts();
}

// ---------------------------------------------------------------------------
// Rectangle auditor
// ---------------------------------------------------------------------------

TEST(RectangleAuditTest, FiniteRectanglePasses) {
  RecordingHandler guard;
  geo::AuditRectangle(geo::Rectangle({0, 0}, {1, 1}), "unit box");
  EXPECT_EQ(guard.Total(), 0);
}

TEST(RectangleAuditTest, InfiniteCoordinateTripsRectangleOnly) {
  RecordingHandler guard;
  const double inf = std::numeric_limits<double>::infinity();
  // Build a legitimate rectangle, then audit a corrupted copy. (The
  // corruption uses ±inf, not NaN, so a Debug-build constructor DCHECK
  // cannot fire first — the auditor must be the one to catch it.)
  geo::Rectangle r({0, 0}, {1, 1});
  geo::Rectangle corrupt({0, 0}, {inf, 1});
  geo::AuditRectangle(r, "clean");
  EXPECT_EQ(guard.Total(), 0);
  geo::AuditRectangle(corrupt, "corrupt");
  guard.ExpectOnly(Category::kRectangle);
}

// ---------------------------------------------------------------------------
// Nesting auditor
// ---------------------------------------------------------------------------

TEST(NestingAuditTest, CleanSlpSolutionPasses) {
  core::SaProblem p = test::SmallMultiLevelProblem(300, 14, 4);
  Rng rng(7);
  const auto result = core::RunSlp(p, core::SlpOptions{}, rng);
  ASSERT_TRUE(result.ok());
  RecordingHandler guard;
  core::AuditNesting(p, result.value());
  EXPECT_EQ(guard.Total(), 0);
}

TEST(NestingAuditTest, ShrunkenEdgeFilterTripsNestingOnly) {
  core::SaProblem p = test::SmallMultiLevelProblem(300, 14, 4);
  Rng rng(7);
  const auto result = core::RunSlp(p, core::SlpOptions{}, rng);
  ASSERT_TRUE(result.ok());
  core::SaSolution corrupted = result.value();

  // Break nesting on one edge: find a broker with a non-publisher parent
  // and a nonempty filter, and shrink the parent's filter to a sliver the
  // child cannot nest inside.
  int victim = -1;
  const auto& tree = p.tree();
  for (int v = 1; v < tree.num_nodes(); ++v) {
    const int parent = tree.parent(v);
    if (parent != net::BrokerTree::kPublisher &&
        !corrupted.filters[v].empty()) {
      victim = v;
      break;
    }
  }
  ASSERT_GE(victim, 0) << "multi-level tree must have a depth-2 broker";
  corrupted.filters[tree.parent(victim)] =
      geo::Filter({geo::Rectangle({0, 0}, {1e-9, 1e-9})});

  RecordingHandler guard;
  core::AuditNesting(p, corrupted);
  guard.ExpectOnly(Category::kNesting);
}

// ---------------------------------------------------------------------------
// Flow auditor
// ---------------------------------------------------------------------------

TEST(FlowAuditTest, SolvedNetworkPasses) {
  // Row 2 is covered by both targets; seeding it on target 0 forces the
  // solve to reroute it before row 0 fits.
  core::AssignmentFlow flow(2, {0, 1, 2, 4}, {0, 1, 0, 1});
  flow.SetCap(0, 1);
  flow.SetCap(1, 2);
  flow.Assign(2, 0);
  EXPECT_EQ(flow.Solve(), 3);
  EXPECT_EQ(flow.target_of(0), 0);
  EXPECT_EQ(flow.target_of(2), 1);
  RecordingHandler guard;
  core::AuditAssignmentFlow(flow);
  EXPECT_EQ(guard.Total(), 0);
}

TEST(FlowAuditTest, DisconnectedPushTripsFlowOnly) {
  // Rows 0 and 1 are covered by target 0 only, row 2 by target 1 only.
  // Target 0 holds one row, target 1 two.
  core::AssignmentFlow flow(2, {0, 1, 2, 3}, {0, 0, 1});
  flow.SetCap(0, 1);
  flow.SetCap(1, 2);
  EXPECT_EQ(flow.Solve(), 2);  // target 0 takes one of rows 0 and 1
  const int stranded = flow.target_of(0) < 0 ? 0 : 1;
  ASSERT_LT(flow.target_of(stranded), 0);
  {
    RecordingHandler clean;
    core::AuditAssignmentFlow(flow);
    EXPECT_EQ(clean.Total(), 0);
  }
  {
    // Seed the stranded row on target 1, which has headroom but does not
    // cover it. Loads and the flow count stay consistent, so only the
    // cover check can catch it.
    core::AssignmentFlow moved = flow;
    RecordingHandler guard;
    moved.Assign(stranded, 1);
    core::AuditAssignmentFlow(moved);
    guard.ExpectOnly(Category::kFlow, 1);
    EXPECT_EQ(guard.Count(Category::kFlow), 1);
  }
  // Seed it on target 0, which covers it but is full: only the cap check
  // can catch it.
  RecordingHandler guard;
  flow.Assign(stranded, 0);
  core::AuditAssignmentFlow(flow);
  guard.ExpectOnly(Category::kFlow, 1);
  EXPECT_EQ(guard.Count(Category::kFlow), 1);
}

// ---------------------------------------------------------------------------
// Live-overlay auditor
// ---------------------------------------------------------------------------

TEST(LiveOverlayAuditTest, FailRecoverOverlayPasses) {
  net::BrokerTree tree = TwoLevelTree();
  ASSERT_TRUE(tree.FailBroker(1).ok());  // splice interior A out
  RecordingHandler guard;
  net::AuditLiveOverlay(tree);
  EXPECT_EQ(guard.Total(), 0);
  ASSERT_TRUE(tree.RecoverBroker(1).ok());
  net::AuditLiveOverlay(tree);
  EXPECT_EQ(guard.Total(), 0);
}

TEST(LiveOverlayAuditTest, OrphanedChildTripsLiveOverlayOnly) {
  net::BrokerTree tree = TwoLevelTree();
  net::LiveOverlayView view = net::MakeLiveOverlayView(tree);
  // Orphan leaf 3: drop it from its parent's live children while it still
  // points at the parent.
  const int parent = view.live_parent[3];
  ASSERT_GE(parent, 0);
  auto& siblings = view.live_children[parent];
  siblings.erase(std::find(siblings.begin(), siblings.end(), 3));
  RecordingHandler guard;
  net::AuditLiveOverlay(view);
  guard.ExpectOnly(Category::kLiveOverlay);
}

TEST(LiveOverlayAuditTest, SpliceCycleTripsLiveOverlayOnly) {
  net::BrokerTree tree = TwoLevelTree();
  net::LiveOverlayView view = net::MakeLiveOverlayView(tree);
  // Point interior A's live parent at its own child: reachability breaks.
  view.live_parent[1] = 3;
  view.live_children[3].push_back(1);
  RecordingHandler guard;
  net::AuditLiveOverlay(view);
  guard.ExpectOnly(Category::kLiveOverlay);
}

// ---------------------------------------------------------------------------
// Live-filter auditor + clean end-to-end sweep
// ---------------------------------------------------------------------------

TEST(LiveFilterAuditTest, DynamicDeploymentWithFailuresPasses) {
  core::DynamicAssigner dyn(TwoLevelTree(), LooseConfig(), 40);
  Rng rng(11);
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(dyn.Add(MakeSub(rng.Uniform(-1, 1), rng.Uniform(-2, 2),
                                rng.Uniform(-0.9, 0.7), 0.2))
                    .ok());
  }
  RecordingHandler guard;
  core::AuditLiveFilters(dyn);
  net::AuditLiveOverlay(dyn.tree());
  EXPECT_EQ(guard.Total(), 0);

  // Fail a leaf (orphans its subscribers), repair, recover: the live
  // invariants must hold at every step.
  ASSERT_TRUE(dyn.FailBroker(3).ok());
  core::AuditLiveFilters(dyn);
  net::AuditLiveOverlay(dyn.tree());
  dyn.Repair(0);
  core::AuditLiveFilters(dyn);
  ASSERT_TRUE(dyn.RecoverBroker(3).ok());
  core::AuditLiveFilters(dyn);
  net::AuditLiveOverlay(dyn.tree());
  EXPECT_EQ(guard.Total(), 0);
}

// ---------------------------------------------------------------------------
// Liveness auditor
// ---------------------------------------------------------------------------

liveness::LeaseConfig TestLease() {
  liveness::LeaseConfig lease;
  lease.heartbeat_interval = 1;
  lease.miss_suspect = 2;
  lease.miss_dead = 4;
  return lease;
}

TEST(LivenessAuditTest, TrackerDrivenTransitionsPass) {
  core::DynamicAssigner dyn(TwoLevelTree(), LooseConfig(), 4);
  const int h = dyn.Add(MakeSub(-1, 2, 0.1, 0.1)).value();
  liveness::LivenessTracker tracker(&dyn, TestLease(), 0);
  tracker.TrackSubscriber(0, h, 0);
  RecordingHandler guard;
  liveness::AuditLiveness(tracker);
  EXPECT_EQ(guard.Total(), 0);
  // Drive a death through the tracker itself: still coherent.
  for (int64_t t = 1; t <= 4; ++t) {
    for (int v : {2, 5, 6}) tracker.HeardBroker(v, t);
    tracker.Tick(t);
  }
  ASSERT_GT(tracker.num_believed_dead(), 0);
  liveness::AuditLiveness(tracker);
  EXPECT_EQ(guard.Total(), 0);
}

TEST(LivenessAuditTest, OverlayMutationBehindTrackerTripsLivenessOnly) {
  core::DynamicAssigner dyn(TwoLevelTree(), LooseConfig(), 4);
  liveness::LivenessTracker tracker(&dyn, TestLease(), 0);
  // The tracker owns FailBroker; failing a broker behind its back forks
  // the two views of liveness.
  ASSERT_TRUE(dyn.FailBroker(3).ok());
  RecordingHandler guard;
  liveness::AuditLiveness(tracker);
  guard.ExpectOnly(Category::kLiveness);
}

TEST(LivenessAuditTest, VacatedTrackedHandleTripsLivenessOnly) {
  core::DynamicAssigner dyn(TwoLevelTree(), LooseConfig(), 4);
  const int h = dyn.Add(MakeSub(-1, 2, 0.1, 0.1)).value();
  liveness::LivenessTracker tracker(&dyn, TestLease(), 0);
  tracker.TrackSubscriber(0, h, 0);
  // Removing the subscription without ForgetSubscriber leaves the tracker
  // holding a lease on a vacant slot.
  ASSERT_TRUE(dyn.Remove(h).ok());
  RecordingHandler guard;
  liveness::AuditLiveness(tracker);
  guard.ExpectOnly(Category::kLiveness);
}

TEST(CleanEndToEndTest, SlpPipelineTripsNothing) {
  RecordingHandler guard;
  core::SaProblem p = test::SmallGridProblem(250, 8);
  Rng rng(3);
  const auto result = core::RunSlp(p, core::SlpOptions{}, rng);
  ASSERT_TRUE(result.ok());
  core::AuditNesting(p, result.value());
  EXPECT_EQ(guard.Total(), 0) << "clean SLP run must not trip any auditor";
}

}  // namespace
}  // namespace slp
