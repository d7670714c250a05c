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
#include "src/core/audit.h"
#include "src/core/dynamic.h"
#include "src/core/repair.h"
#include "src/common/deadline.h"
#include "src/common/random.h"
#include "src/core/slp.h"
#include "src/flow/max_flow.h"
#include "src/geometry/audit.h"
#include "src/geometry/filter.h"
#include "src/geometry/rectangle.h"
#include "src/lp/lp_problem.h"
#include "src/lp/simplex.h"
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
// Basis auditor
// ---------------------------------------------------------------------------

lp::LpProblem SmallLp() {
  // min -x - 2y  s.t.  x + y <= 4,  y <= 3,  0 <= x,y <= 10.
  lp::LpProblem p;
  const int x = p.AddVariable(-1, 0, 10);
  const int y = p.AddVariable(-2, 0, 10);
  const int r0 = p.AddConstraint(lp::Sense::kLessEqual, 4);
  const int r1 = p.AddConstraint(lp::Sense::kLessEqual, 3);
  p.AddEntry(r0, x, 1);
  p.AddEntry(r0, y, 1);
  p.AddEntry(r1, y, 1);
  return p;
}

TEST(BasisAuditTest, OptimalBasisPasses) {
  const lp::LpProblem p = SmallLp();
  const lp::LpSolution sol = lp::SimplexSolver().Solve(p);
  ASSERT_EQ(sol.status, lp::SolveStatus::kOptimal);
  RecordingHandler guard;
  lp::AuditBasis(sol.basis, p);
  EXPECT_EQ(guard.Total(), 0);
}

TEST(BasisAuditTest, FlippedVarStatusTripsBasisOnly) {
  const lp::LpProblem p = SmallLp();
  const lp::LpSolution sol = lp::SimplexSolver().Solve(p);
  ASSERT_EQ(sol.status, lp::SolveStatus::kOptimal);

  // Flip one basic structural variable to nonbasic: the basic count no
  // longer matches the row count.
  lp::Basis corrupted = sol.basis;
  bool flipped = false;
  for (auto& st : corrupted.structural) {
    if (st == lp::VarStatus::kBasic) {
      st = lp::VarStatus::kAtLower;
      flipped = true;
      break;
    }
  }
  if (!flipped) {
    for (auto& st : corrupted.logical) {
      if (st == lp::VarStatus::kBasic) {
        st = lp::VarStatus::kAtLower;
        flipped = true;
        break;
      }
    }
  }
  ASSERT_TRUE(flipped);

  RecordingHandler guard;
  lp::AuditBasis(corrupted, p);
  guard.ExpectOnly(Category::kBasis);
}

TEST(BasisAuditTest, AtUpperWithInfiniteBoundTripsBasisOnly) {
  const lp::LpProblem p = SmallLp();
  const lp::LpSolution sol = lp::SimplexSolver().Solve(p);
  ASSERT_EQ(sol.status, lp::SolveStatus::kOptimal);
  lp::Basis corrupted = sol.basis;
  // Add an unbounded variable marked at-upper: incoherent by definition.
  lp::LpProblem p2 = SmallLp();
  p2.AddVariable(0, 0, lp::kInfinity);
  corrupted.structural.push_back(lp::VarStatus::kAtUpper);
  RecordingHandler guard;
  lp::AuditBasis(corrupted, p2);
  guard.ExpectOnly(Category::kBasis);
}

// ---------------------------------------------------------------------------
// Flow auditor
// ---------------------------------------------------------------------------

TEST(FlowAuditTest, SolvedNetworkPasses) {
  flow::MaxFlow mf(4);
  mf.AddEdge(0, 1, 5);
  mf.AddEdge(0, 2, 3);
  mf.AddEdge(1, 3, 4);
  mf.AddEdge(2, 3, 4);
  mf.AddEdge(1, 2, 2);
  EXPECT_EQ(mf.Solve(0, 3), 8);
  RecordingHandler guard;
  flow::AuditFlowConservation(mf, 0, 3);
  EXPECT_EQ(guard.Total(), 0);
}

TEST(FlowAuditTest, DisconnectedPushTripsFlowOnly) {
  flow::MaxFlow mf(5);
  mf.AddEdge(0, 1, 5);
  const int stray = mf.AddEdge(2, 3, 5);  // not on any s-t path
  mf.AddEdge(1, 4, 5);
  EXPECT_EQ(mf.Solve(0, 4), 5);
  {
    RecordingHandler clean;
    flow::AuditFlowConservation(mf, 0, 4);
    EXPECT_EQ(clean.Total(), 0);
  }
  // Unbalance nodes 2 and 3: push along a "path" that is a lone interior
  // edge. Per-edge bounds stay valid, so only conservation can catch it.
  RecordingHandler guard;
  mf.PushPath({stray}, 2);
  flow::AuditFlowConservation(mf, 0, 4);
  guard.ExpectOnly(Category::kFlow, 2);  // both endpoints imbalance
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
  core::RepairEngine engine(&dyn);
  engine.Repair(Deadline::Infinite(), 0);
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
