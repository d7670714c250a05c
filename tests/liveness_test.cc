// Soft-state liveness (DESIGN.md §13): the heartbeat transport model, the
// lease state machine with path-aware suspicion, subscriber leases, the
// suspect-leaf placement veto, the fault replay (the default oracle lease
// against a brute-force crash-stop reference, plus the churn generators
// under realistic leases), and a reconnect-storm soak that drives the
// whole stack through sustained ground-truth churn.

#include <algorithm>
#include <limits>
#include <set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/invariant.h"
#include "src/core/dynamic.h"
#include "src/core/greedy.h"
#include "src/core/metrics.h"
#include "src/core/repair.h"
#include "src/liveness/audit.h"
#include "src/liveness/heartbeat.h"
#include "src/liveness/liveness_tracker.h"
#include "src/network/tree_builder.h"
#include "src/sim/churn_scenarios.h"
#include "src/sim/fault_plan.h"
#include "src/workload/grid.h"
#include "tests/route_oracle.h"

namespace slp {
namespace {

using geo::Point;
using geo::Rectangle;
using liveness::HeardKind;
using liveness::HeartbeatChannel;
using liveness::LeaseConfig;
using liveness::LivenessState;
using liveness::LivenessTracker;
using liveness::TickReport;

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

core::SaConfig LooseConfig() {
  core::SaConfig config;
  config.max_delay = 3.0;
  config.alpha = 2;
  return config;
}

// Hair-trigger manual-test lease: one-tick heartbeats so tick indices map
// directly to miss counts.
LeaseConfig TightLease(int miss_suspect, int miss_dead) {
  LeaseConfig lease;
  lease.heartbeat_interval = 1;
  lease.miss_suspect = miss_suspect;
  lease.miss_dead = miss_dead;
  lease.subscriber_interval = 1;
  lease.subscriber_miss_dead = 1 << 20;  // client expiry off unless tested
  return lease;
}

// n events uniform over [0, 1]^d.
std::vector<Point> UniformEvents(int n, Rng& rng, int d = 2) {
  std::vector<Point> events;
  for (int i = 0; i < n; ++i) {
    Point e(d);
    for (int a = 0; a < d; ++a) e[a] = rng.Uniform(0, 1);
    events.push_back(std::move(e));
  }
  return events;
}

// A populated assigner over the grid workload, its subscriptions reshaped
// to d axes (test::ReshapeRectangle) when d != 2; identical arguments
// produce bit-identical assigners (the oracle-equivalence test builds
// two).
struct GridFixture {
  wl::Workload workload;
  core::DynamicAssigner dyn;
};

GridFixture MakeGridFixture(int num_subscribers, int d = 2) {
  wl::GridParams params;
  params.num_subscribers = num_subscribers;
  params.num_brokers = 12;
  params.seed = 21;
  wl::Workload w = wl::GenerateGrid(params);
  Rng tree_rng(3);
  net::BrokerTree tree =
      net::BuildMultiLevelTree(w.publisher, w.broker_locations, 4, tree_rng);
  core::SaConfig config;
  config.max_delay = 2.0;
  core::DynamicAssigner dyn(std::move(tree), config, num_subscribers);
  Rng shape_rng(5);
  for (auto& s : w.subscribers) {
    if (d != 2) {
      s.subscription = test::ReshapeRectangle(s.subscription, d, shape_rng);
    }
    EXPECT_TRUE(dyn.Add(s).ok());
  }
  return GridFixture{std::move(w), std::move(dyn)};
}

// ---------------------------------------------------------------------------
// HeartbeatChannel: the ground-truth transport
// ---------------------------------------------------------------------------

TEST(HeartbeatChannelTest, DownInteriorSilencesItsBelievedSubtree) {
  const net::BrokerTree tree = TwoLevelTree();
  HeartbeatChannel channel(&tree, 0);
  for (int v = 1; v < tree.num_nodes(); ++v) {
    EXPECT_TRUE(channel.BrokerHeartbeatDelivered(v)) << v;
  }

  channel.SetBrokerDown(1, true);
  EXPECT_EQ(channel.num_down(), 1);
  // The crashed broker and everything routing through it fall silent...
  EXPECT_FALSE(channel.BrokerHeartbeatDelivered(1));
  EXPECT_FALSE(channel.BrokerHeartbeatDelivered(3));
  EXPECT_FALSE(channel.BrokerHeartbeatDelivered(4));
  // ...while the sibling subtree is untouched.
  EXPECT_TRUE(channel.BrokerHeartbeatDelivered(2));
  EXPECT_TRUE(channel.BrokerHeartbeatDelivered(5));
  EXPECT_TRUE(channel.BrokerHeartbeatDelivered(6));

  channel.SetBrokerDown(1, false);
  EXPECT_EQ(channel.num_down(), 0);
  EXPECT_TRUE(channel.BrokerHeartbeatDelivered(3));
}

TEST(HeartbeatChannelTest, SpliceRestoresLeafHeartbeatsAfterBelievedDeath) {
  net::BrokerTree tree = TwoLevelTree();
  HeartbeatChannel channel(&tree, 0);
  channel.SetBrokerDown(1, true);
  ASSERT_FALSE(channel.BrokerHeartbeatDelivered(3));
  // Once the believed overlay splices the dead interior out, the leaves
  // report over the repaired path even though the interior is still down.
  ASSERT_TRUE(tree.FailBroker(1).ok());
  EXPECT_TRUE(channel.BrokerHeartbeatDelivered(3));
  EXPECT_TRUE(channel.BrokerHeartbeatDelivered(4));
  EXPECT_FALSE(channel.BrokerHeartbeatDelivered(1));
}

TEST(HeartbeatChannelTest, MuteCutsControlUplinkOnly) {
  const net::BrokerTree tree = TwoLevelTree();
  HeartbeatChannel channel(&tree, 0);
  channel.SetBrokerMuted(2, true);
  // The muted broker is not down...
  EXPECT_FALSE(channel.broker_down(2));
  EXPECT_EQ(channel.num_down(), 0);
  // ...but its own heartbeat and every heartbeat crossing its uplink die.
  EXPECT_FALSE(channel.BrokerHeartbeatDelivered(2));
  EXPECT_FALSE(channel.BrokerHeartbeatDelivered(5));
  EXPECT_FALSE(channel.BrokerHeartbeatDelivered(6));
  EXPECT_TRUE(channel.BrokerHeartbeatDelivered(1));
  channel.SetBrokerMuted(2, false);
  EXPECT_TRUE(channel.BrokerHeartbeatDelivered(5));
}

TEST(HeartbeatChannelTest, ClientRefreshFollowsTheLeafUplink) {
  const net::BrokerTree tree = TwoLevelTree();
  HeartbeatChannel channel(&tree, 2);
  EXPECT_TRUE(channel.ClientRefreshDelivered(0, 3));
  // An unplaced subscriber has no leaf to refresh through.
  EXPECT_FALSE(channel.ClientRefreshDelivered(0, -1));
  // An offline client refreshes nothing.
  channel.SetClientOffline(0, true);
  EXPECT_TRUE(channel.client_offline(0));
  EXPECT_FALSE(channel.ClientRefreshDelivered(0, 3));
  EXPECT_TRUE(channel.ClientRefreshDelivered(1, 3));
  // A down broker on the leaf's uplink loses the refresh too.
  channel.SetBrokerDown(1, true);
  EXPECT_FALSE(channel.ClientRefreshDelivered(1, 3));
  EXPECT_TRUE(channel.ClientRefreshDelivered(1, 5));
}

// ---------------------------------------------------------------------------
// LivenessTracker: the per-broker lease state machine
// ---------------------------------------------------------------------------

TEST(LivenessTrackerTest, SilenceDrivesSuspectThenDeadThenRecover) {
  core::DynamicAssigner dyn(TwoBrokerTree(), LooseConfig(), 8);
  const int h0 = dyn.Add(MakeSub(1, 0, 0.3, 0.4)).value();
  const int h1 = dyn.Add(MakeSub(1, 0.2, 0.3, 0.4)).value();
  const int victim = dyn.leaf_of(h0);
  ASSERT_EQ(dyn.leaf_of(h1), victim);
  const int other = victim == 1 ? 2 : 1;

  LivenessTracker tracker(&dyn, TightLease(2, 4), 0);
  EXPECT_EQ(tracker.broker_state(victim), LivenessState::kAlive);

  // Silence the victim; keep the sibling refreshed.
  EXPECT_EQ(tracker.HeardBroker(other, 1), HeardKind::kRefresh);
  TickReport report = tracker.Tick(1);
  EXPECT_TRUE(report.new_suspects.empty());
  EXPECT_EQ(tracker.broker_state(victim), LivenessState::kAlive);

  tracker.HeardBroker(other, 2);
  report = tracker.Tick(2);
  ASSERT_EQ(report.new_suspects, std::vector<int>{victim});
  EXPECT_EQ(tracker.broker_state(victim), LivenessState::kSuspect);
  EXPECT_EQ(tracker.num_suspect(), 1);
  // Suspects are NOT evacuated: the subscribers stay placed.
  EXPECT_EQ(dyn.leaf_of(h0), victim);
  EXPECT_FALSE(dyn.tree().is_failed(victim));

  tracker.HeardBroker(other, 3);
  report = tracker.Tick(3);
  EXPECT_TRUE(report.new_suspects.empty());
  EXPECT_TRUE(report.declared_dead.empty());

  tracker.HeardBroker(other, 4);
  report = tracker.Tick(4);
  ASSERT_EQ(report.declared_dead, std::vector<int>{victim});
  EXPECT_EQ(tracker.broker_state(victim), LivenessState::kDead);
  EXPECT_EQ(tracker.num_believed_dead(), 1);
  // The death declaration drove FailBroker: the overlay agrees and the
  // victim's subscribers are orphans awaiting repair.
  EXPECT_TRUE(dyn.tree().is_failed(victim));
  EXPECT_EQ(dyn.orphans().size(), 2u);

  // A heartbeat from a believed-dead broker revives it (RecoverBroker).
  EXPECT_EQ(tracker.HeardBroker(victim, 5), HeardKind::kRecovered);
  EXPECT_EQ(tracker.broker_state(victim), LivenessState::kAlive);
  EXPECT_FALSE(dyn.tree().is_failed(victim));
  EXPECT_EQ(tracker.stats().deaths, 1);
  EXPECT_EQ(tracker.stats().recoveries, 1);
  EXPECT_EQ(tracker.stats().suspicions, 1);
}

TEST(LivenessTrackerTest, RefreshRevertsSuspicionWithoutSideEffects) {
  core::DynamicAssigner dyn(TwoBrokerTree(), LooseConfig(), 4);
  LivenessTracker tracker(&dyn, TightLease(2, 4), 0);
  tracker.HeardBroker(2, 1);
  tracker.Tick(1);
  tracker.HeardBroker(2, 2);
  tracker.Tick(2);
  ASSERT_EQ(tracker.broker_state(1), LivenessState::kSuspect);

  EXPECT_EQ(tracker.HeardBroker(1, 3), HeardKind::kUnsuspected);
  EXPECT_EQ(tracker.broker_state(1), LivenessState::kAlive);
  const TickReport report = tracker.Tick(3);
  EXPECT_TRUE(report.new_suspects.empty());
  EXPECT_TRUE(report.declared_dead.empty());
  EXPECT_FALSE(dyn.tree().any_failed());
  EXPECT_EQ(tracker.num_suspect(), 0);
}

TEST(LivenessTrackerTest, ConstructorSeedsExistingOverlayFailures) {
  core::DynamicAssigner dyn(TwoBrokerTree(), LooseConfig(), 4);
  ASSERT_TRUE(dyn.FailBroker(1).ok());
  LivenessTracker tracker(&dyn, TightLease(2, 4), 0);
  EXPECT_EQ(tracker.broker_state(1), LivenessState::kDead);
  EXPECT_EQ(tracker.num_believed_dead(), 1);
  EXPECT_EQ(tracker.HeardBroker(1, 1), HeardKind::kRecovered);
  EXPECT_FALSE(dyn.tree().is_failed(1));
}

TEST(LivenessTrackerTest, HeldRuleBlamesThePathNotTheLeaves) {
  core::DynamicAssigner dyn(TwoLevelTree(), LooseConfig(), 8);
  LivenessTracker tracker(&dyn, TightLease(2, 4), 0);

  // Ground truth: interior A crashed, silencing believed-live leaves 3, 4.
  // Interior B's subtree keeps heartbeating.
  auto heartbeat_live_side = [&](int64_t now) {
    tracker.HeardBroker(2, now);
    tracker.HeardBroker(5, now);
    tracker.HeardBroker(6, now);
  };

  heartbeat_live_side(1);
  tracker.Tick(1);
  heartbeat_live_side(2);
  TickReport report = tracker.Tick(2);
  // The whole silent chain turns suspect together...
  EXPECT_EQ(report.new_suspects, (std::vector<int>{1, 3, 4}));
  heartbeat_live_side(3);
  tracker.Tick(3);

  heartbeat_live_side(4);
  report = tracker.Tick(4);
  // ...but only the topmost silent broker may die: the leaves' silence is
  // explained by the path, so their death is deferred.
  EXPECT_EQ(report.declared_dead, std::vector<int>{1});
  EXPECT_EQ(report.deaths_deferred, 2);
  EXPECT_EQ(tracker.broker_state(1), LivenessState::kDead);
  EXPECT_EQ(tracker.broker_state(3), LivenessState::kSuspect);
  EXPECT_EQ(tracker.broker_state(4), LivenessState::kSuspect);
  // An interior death splices; nobody was evacuated.
  EXPECT_TRUE(dyn.tree().is_failed(1));
  EXPECT_FALSE(dyn.tree().is_failed(3));
  EXPECT_TRUE(dyn.orphans().empty());
  // The held leases restarted: a full window to prove themselves over the
  // spliced path.
  EXPECT_EQ(tracker.last_heard(3), 4);
  EXPECT_EQ(tracker.last_heard(4), 4);

  // The splice re-opens the heartbeat path: the held leaves report in and
  // are un-suspected — "path died", not "leaf died".
  EXPECT_EQ(tracker.HeardBroker(3, 5), HeardKind::kUnsuspected);
  EXPECT_EQ(tracker.HeardBroker(4, 5), HeardKind::kUnsuspected);
  heartbeat_live_side(5);
  report = tracker.Tick(5);
  EXPECT_TRUE(report.declared_dead.empty());
  EXPECT_EQ(tracker.num_believed_dead(), 1);
  EXPECT_EQ(tracker.num_suspect(), 0);
}

TEST(LivenessTrackerTest, HeldLeafStillSilentAfterSpliceEventuallyDies) {
  core::DynamicAssigner dyn(TwoLevelTree(), LooseConfig(), 8);
  LivenessTracker tracker(&dyn, TightLease(2, 4), 0);

  // Interior A and leaf 3 both crashed; leaf 4 only lost its path.
  auto heartbeat_up = [&](int64_t now, bool leaf4_path_open) {
    tracker.HeardBroker(2, now);
    tracker.HeardBroker(5, now);
    tracker.HeardBroker(6, now);
    if (leaf4_path_open) tracker.HeardBroker(4, now);
  };

  for (int64_t t = 1; t <= 3; ++t) {
    heartbeat_up(t, /*leaf4_path_open=*/false);
    tracker.Tick(t);
  }
  heartbeat_up(4, /*leaf4_path_open=*/false);
  TickReport report = tracker.Tick(4);
  ASSERT_EQ(report.declared_dead, std::vector<int>{1});  // path blamed first

  // After the splice leaf 4 heartbeats again; leaf 3 stays silent. Its
  // restarted lease runs a fresh full window before it is condemned.
  for (int64_t t = 5; t <= 7; ++t) {
    heartbeat_up(t, /*leaf4_path_open=*/true);
    report = tracker.Tick(t);
    EXPECT_TRUE(report.declared_dead.empty()) << t;
  }
  heartbeat_up(8, /*leaf4_path_open=*/true);
  report = tracker.Tick(8);
  // Lease restarted at 4, miss_dead 4 -> condemned at 8, alone this time.
  EXPECT_EQ(report.declared_dead, std::vector<int>{3});
  EXPECT_EQ(tracker.broker_state(4), LivenessState::kAlive);
  EXPECT_TRUE(dyn.tree().is_failed(3));
  EXPECT_FALSE(dyn.tree().is_failed(4));
  EXPECT_EQ(tracker.stats().deaths, 2);
  EXPECT_GT(tracker.stats().deaths_deferred, 0);
}

// ---------------------------------------------------------------------------
// Subscriber leases
// ---------------------------------------------------------------------------

TEST(SubscriberLeaseTest, SilentClientExpiresAndIsRemoved) {
  core::DynamicAssigner dyn(TwoBrokerTree(), LooseConfig(), 4);
  const int h0 = dyn.Add(MakeSub(1, 0, 0.1, 0.2)).value();
  const int h1 = dyn.Add(MakeSub(-1, 0, 0.5, 0.2)).value();
  LeaseConfig lease = TightLease(2, 1 << 20);  // brokers never die here
  lease.subscriber_miss_dead = 3;
  LivenessTracker tracker(&dyn, lease, 0);
  tracker.TrackSubscriber(0, h0, 0);
  tracker.TrackSubscriber(1, h1, 0);
  EXPECT_EQ(tracker.num_tracked_clients(), 2);
  EXPECT_EQ(tracker.handle_of(0), h0);

  // Client 0 goes silent; client 1 keeps refreshing; brokers all healthy.
  for (int64_t t = 1; t <= 2; ++t) {
    tracker.HeardBroker(1, t);
    tracker.HeardBroker(2, t);
    tracker.HeardSubscriber(1, t);
    const TickReport report = tracker.Tick(t);
    EXPECT_TRUE(report.expired.empty()) << t;
  }
  tracker.HeardBroker(1, 3);
  tracker.HeardBroker(2, 3);
  tracker.HeardSubscriber(1, 3);
  const TickReport report = tracker.Tick(3);
  ASSERT_EQ(report.expired.size(), 1u);
  EXPECT_EQ(report.expired[0].client, 0);
  EXPECT_EQ(report.expired[0].handle, h0);
  // The expiry removed the subscription; the handle is vacated.
  EXPECT_FALSE(dyn.is_occupied(h0));
  EXPECT_FALSE(tracker.IsTracked(0));
  EXPECT_TRUE(tracker.IsTracked(1));
  EXPECT_EQ(tracker.stats().lease_expirations, 1);
  EXPECT_EQ(tracker.handle_of(0), -1);
}

TEST(SubscriberLeaseTest, LeaseFreezesWhileSilenceIsExplainedUpstream) {
  core::DynamicAssigner dyn(TwoBrokerTree(), LooseConfig(), 4);
  const int h0 = dyn.Add(MakeSub(1, 0, 0.1, 0.2)).value();
  const int victim = dyn.leaf_of(h0);
  const int other = victim == 1 ? 2 : 1;
  LeaseConfig lease = TightLease(2, 4);
  lease.subscriber_miss_dead = 3;
  LivenessTracker tracker(&dyn, lease, 0);
  tracker.TrackSubscriber(0, h0, 0);

  // The client's leaf crashes with it: both go silent together. The leaf
  // turns suspect at 2, dies at 4 (orphaning the client) — through all of
  // which the client's lease is frozen, so it never mass-expires.
  for (int64_t t = 1; t <= 10; ++t) {
    tracker.HeardBroker(other, t);
    const TickReport report = tracker.Tick(t);
    EXPECT_TRUE(report.expired.empty()) << t;
  }
  EXPECT_EQ(tracker.broker_state(victim), LivenessState::kDead);
  EXPECT_TRUE(tracker.IsTracked(0));
  EXPECT_EQ(dyn.state(h0), core::SubscriberState::kOrphaned);
  EXPECT_EQ(tracker.stats().lease_expirations, 0);
}

// Asserts the tracker's client table is exactly `expected`, listed in
// increasing client id, through every inspection call.
void ExpectTrackedExactly(const LivenessTracker& tracker,
                          const std::vector<liveness::ExpiredLease>& expected) {
  const std::vector<liveness::ExpiredLease> tracked = tracker.TrackedClients();
  ASSERT_EQ(tracked.size(), expected.size());
  for (size_t k = 0; k < expected.size(); ++k) {
    EXPECT_EQ(tracked[k].client, expected[k].client) << k;
    EXPECT_EQ(tracked[k].handle, expected[k].handle) << k;
  }
  EXPECT_EQ(tracker.num_tracked_clients(), static_cast<int>(expected.size()));
  for (int client = -1; client <= 9; ++client) {
    int handle = -1;
    for (const liveness::ExpiredLease& e : expected) {
      if (e.client == client) handle = e.handle;
    }
    EXPECT_EQ(tracker.IsTracked(client), handle >= 0) << client;
    EXPECT_EQ(tracker.handle_of(client), handle) << client;
  }
}

// The dense lease table keeps the contract of the ordered map it
// replaced: client ids tracked out of order are listed, scanned and
// expired in increasing id, and an expired id can be tracked again (the
// reconnect path).
TEST(SubscriberLeaseTest, ClientTableListsAndExpiresInIncreasingId) {
  core::DynamicAssigner dyn(TwoBrokerTree(), LooseConfig(), 8);
  const wl::Subscriber sub4 = MakeSub(-1, 0, 0.5, 0.2);
  const int h7 = dyn.Add(MakeSub(1, 0, 0.1, 0.2)).value();
  const int h2 = dyn.Add(MakeSub(1, 0, 0.3, 0.2)).value();
  const int h4 = dyn.Add(sub4).value();
  LeaseConfig lease = TightLease(2, 1 << 20);  // brokers never die here
  lease.subscriber_miss_dead = 2;
  LivenessTracker tracker(&dyn, lease, 0);
  ExpectTrackedExactly(tracker, {});
  tracker.TrackSubscriber(7, h7, 0);
  ExpectTrackedExactly(tracker, {{7, h7}});
  tracker.TrackSubscriber(2, h2, 0);
  ExpectTrackedExactly(tracker, {{2, h2}, {7, h7}});
  tracker.TrackSubscriber(4, h4, 0);
  ExpectTrackedExactly(tracker, {{2, h2}, {4, h4}, {7, h7}});

  // Client 4 goes silent and expires at tick 2.
  for (int64_t t = 1; t <= 2; ++t) {
    tracker.HeardBroker(1, t);
    tracker.HeardBroker(2, t);
    tracker.HeardSubscriber(2, t);
    tracker.HeardSubscriber(7, t);
    const TickReport report = tracker.Tick(t);
    if (t == 1) {
      EXPECT_TRUE(report.expired.empty());
    } else {
      ASSERT_EQ(report.expired.size(), 1u);
      EXPECT_EQ(report.expired[0].client, 4);
      EXPECT_EQ(report.expired[0].handle, h4);
    }
  }
  ExpectTrackedExactly(tracker, {{2, h2}, {7, h7}});

  // It reconnects under a fresh handle.
  const int h4b = dyn.Add(sub4).value();
  tracker.TrackSubscriber(4, h4b, 2);
  ExpectTrackedExactly(tracker, {{2, h2}, {4, h4b}, {7, h7}});

  // Everyone falls silent; all three leases run out on the same tick and
  // the report lists them in increasing client id.
  for (int64_t t = 3; t <= 4; ++t) {
    tracker.HeardBroker(1, t);
    tracker.HeardBroker(2, t);
    const TickReport report = tracker.Tick(t);
    if (t == 3) {
      EXPECT_TRUE(report.expired.empty());
    } else {
      ASSERT_EQ(report.expired.size(), 3u);
      EXPECT_EQ(report.expired[0].client, 2);
      EXPECT_EQ(report.expired[1].client, 4);
      EXPECT_EQ(report.expired[2].client, 7);
      EXPECT_EQ(report.expired[1].handle, h4b);
    }
  }
  ExpectTrackedExactly(tracker, {});
  EXPECT_EQ(tracker.stats().lease_expirations, 4);
}

// A refresh from an id with no lease — expired, past the end of the
// table, or negative — is a defined no-op in every build type: it counts
// no refresh and touches no lease.
TEST(SubscriberLeaseTest, RefreshFromUntrackedClientIsIgnored) {
  core::DynamicAssigner dyn(TwoBrokerTree(), LooseConfig(), 8);
  const int h0 = dyn.Add(MakeSub(1, 0, 0.1, 0.2)).value();
  const int h1 = dyn.Add(MakeSub(1, 0, 0.3, 0.2)).value();
  const int h2 = dyn.Add(MakeSub(-1, 0, 0.5, 0.2)).value();
  LeaseConfig lease = TightLease(2, 1 << 20);  // brokers never die here
  lease.subscriber_miss_dead = 3;
  LivenessTracker tracker(&dyn, lease, 0);
  tracker.TrackSubscriber(0, h0, 0);
  tracker.TrackSubscriber(1, h1, 0);
  tracker.TrackSubscriber(2, h2, 0);

  // Client 1 goes silent and expires at tick 3; 0 and 2 last refresh at 3.
  for (int64_t t = 1; t <= 3; ++t) {
    tracker.HeardBroker(1, t);
    tracker.HeardBroker(2, t);
    tracker.HeardSubscriber(0, t);
    tracker.HeardSubscriber(2, t);
    const TickReport report = tracker.Tick(t);
    EXPECT_EQ(report.expired.size(), t == 3 ? 1u : 0u) << t;
  }
  ASSERT_FALSE(tracker.IsTracked(1));
  const int64_t refreshes = tracker.stats().client_refreshes;
  EXPECT_EQ(refreshes, 6);

  for (const int client : {1, 1000, -1}) {
    tracker.HeardSubscriber(client, 4);
    EXPECT_FALSE(tracker.IsTracked(client)) << client;
    EXPECT_EQ(tracker.handle_of(client), -1) << client;
  }
#if !SLP_AUDITS_ENABLED
  // With the DCHECK compiled out, a negative id cannot be tracked either.
  tracker.TrackSubscriber(-1, h0, 4);
#endif
  EXPECT_EQ(tracker.stats().client_refreshes, refreshes);
  ExpectTrackedExactly(tracker, {{0, h0}, {2, h2}});

  // The surviving leases still date from tick 3: they expire at tick 6,
  // not a tick later, so no stray refresh landed on them.
  for (int64_t t = 4; t <= 6; ++t) {
    tracker.HeardBroker(1, t);
    tracker.HeardBroker(2, t);
    const TickReport report = tracker.Tick(t);
    if (t < 6) {
      EXPECT_TRUE(report.expired.empty()) << t;
    } else {
      ASSERT_EQ(report.expired.size(), 2u);
      EXPECT_EQ(report.expired[0].client, 0);
      EXPECT_EQ(report.expired[1].client, 2);
    }
  }
  EXPECT_EQ(tracker.stats().client_refreshes, refreshes);
}

// ---------------------------------------------------------------------------
// Suspect-leaf placement veto
// ---------------------------------------------------------------------------

TEST(PlacementVetoTest, SuspectLeafStopsReceivingNewPlacements) {
  core::DynamicAssigner dyn(TwoBrokerTree(), LooseConfig(), 8);
  const int h0 = dyn.Add(MakeSub(1, 0, 0.3, 0.2)).value();
  const int preferred = dyn.leaf_of(h0);
  const int other = preferred == 1 ? 2 : 1;
  {
    LivenessTracker tracker(&dyn, TightLease(2, 1 << 20), 0);
    EXPECT_TRUE(dyn.has_placement_veto());

    // Make `preferred` suspect (its filter already covers the rectangle,
    // so without the veto a duplicate subscription would land there).
    tracker.HeardBroker(other, 1);
    tracker.Tick(1);
    tracker.HeardBroker(other, 2);
    tracker.Tick(2);
    ASSERT_EQ(tracker.broker_state(preferred), LivenessState::kSuspect);
    EXPECT_TRUE(dyn.leaf_vetoed(preferred));
    EXPECT_FALSE(dyn.leaf_vetoed(other));

    const int h1 = dyn.Add(MakeSub(1, 0, 0.3, 0.2)).value();
    EXPECT_EQ(dyn.leaf_of(h1), other);

    // Veto is advisory: with every live leaf suspect, placement proceeds
    // as if no veto existed — the arrival lands on the natural leaf.
    tracker.Tick(4);  // `other` silent since 2: suspect now too
    ASSERT_EQ(tracker.broker_state(other), LivenessState::kSuspect);
    const int h2 = dyn.Add(MakeSub(1, 0, 0.3, 0.2)).value();
    EXPECT_EQ(dyn.leaf_of(h2), preferred);
  }
  // The destructor uninstalls the veto.
  EXPECT_FALSE(dyn.has_placement_veto());
}

// ---------------------------------------------------------------------------
// Liveness auditor
// ---------------------------------------------------------------------------

TEST(LivenessAuditTest, TrackerDrivenChurnStaysCoherent) {
  core::DynamicAssigner dyn(TwoBrokerTree(), LooseConfig(), 4);
  const int h0 = dyn.Add(MakeSub(1, 0, 0.1, 0.2)).value();
  LivenessTracker tracker(&dyn, TightLease(2, 4), 0);
  tracker.TrackSubscriber(0, h0, 0);
  liveness::AuditLiveness(tracker);  // clean construction passes

  const int victim = dyn.leaf_of(h0);
  const int other = victim == 1 ? 2 : 1;
  for (int64_t t = 1; t <= 4; ++t) {
    tracker.HeardBroker(other, t);
    tracker.Tick(t);  // audits internally in debug builds
  }
  ASSERT_EQ(tracker.broker_state(victim), LivenessState::kDead);
  liveness::AuditLiveness(tracker);
  tracker.HeardBroker(victim, 5);
  liveness::AuditLiveness(tracker);
}

// ---------------------------------------------------------------------------
// Oracle equivalence: the default replay vs a crash-stop reference
// ---------------------------------------------------------------------------

// Brute-force crash-stop replay, the semantics the default options must
// reproduce: the plan's faults call FailBroker/RecoverBroker directly (no
// detector, no ground truth apart from belief), a repair pass runs every
// tick there is work, and each event is routed by a DFS over
// live_children testing every filter rectangle — no match index, no
// tracker. Fills only the fields crash-stop defines.
sim::FaultReplayResult CrashStopReference(core::DynamicAssigner& dyn,
                                          const sim::FaultPlan& plan,
                                          const std::vector<Point>& events,
                                          int epoch_length, Rng& rng) {
  const net::BrokerTree& tree = dyn.tree();
  const int num_events = static_cast<int>(events.size());
  sim::FaultReplayResult r;
  r.stats.broker_hits.assign(tree.num_nodes(), 0);
  core::RepairEngine engine(&dyn);
  sim::EpochRecoveryStats epoch;
  int64_t delivery_base = 0;
  size_t next = 0;
  for (int i = 0; i < num_events; ++i) {
    for (; next < plan.events().size() && plan.events()[next].at_event <= i;
         ++next) {
      const sim::FaultEvent& f = plan.events()[next];
      const size_t before = dyn.orphans().size();
      EXPECT_TRUE(
          (f.fail ? dyn.FailBroker(f.node) : dyn.RecoverBroker(f.node)).ok());
      r.total_orphaned += static_cast<int>(dyn.orphans().size() - before);
    }
    if (!dyn.orphans().empty() || !dyn.degraded_handles().empty()) {
      const core::RepairReport rep = engine.Repair(i);
      r.total_repaired += rep.repaired;
      r.total_degraded_placed += rep.degraded;
      r.total_undegraded += rep.undegraded;
      epoch.repaired += rep.repaired + rep.undegraded;
      epoch.degraded_placed += rep.degraded;
    }
    EXPECT_TRUE(dyn.orphans().empty()) << i;  // crash-stop repairs at once

    const Point& e = events[i];
    ++r.stats.events;
    ++epoch.num_events;
    std::vector<char> reached(tree.num_nodes(), 0);
    std::vector<char> useful(tree.num_nodes(), 0);
    const auto& roots = tree.live_children(net::BrokerTree::kPublisher);
    std::vector<int> stack(roots.begin(), roots.end());
    while (!stack.empty()) {
      const int v = stack.back();
      stack.pop_back();
      const auto& filter = dyn.filter(v);
      const auto contains = [&](const Rectangle& f) {
        return f.ContainsPoint(e);
      };
      if (std::none_of(filter.begin(), filter.end(), contains)) continue;
      ++r.stats.broker_hits[v];
      ++r.stats.total_messages;
      if (tree.is_leaf(v)) {
        reached[v] = 1;
      } else {
        const auto& kids = tree.live_children(v);
        stack.insert(stack.end(), kids.begin(), kids.end());
      }
    }
    for (int h = 0; h < dyn.slot_count(); ++h) {
      if (!dyn.is_occupied(h)) continue;
      if (!dyn.subscriber(h).subscription.ContainsPoint(e)) continue;
      const int leaf = dyn.leaf_of(h);
      if (leaf < 0) {
        ++r.missed_outage;
        ++epoch.missed_outage;
      } else if (reached[leaf] != 0) {
        ++r.stats.deliveries;
        useful[leaf] = 1;
      } else if (dyn.state(h) == core::SubscriberState::kLive) {
        ++r.missed_live;
        ++epoch.missed_live;
        ++r.stats.missed_deliveries;
      } else {
        ++r.missed_degraded;
        ++epoch.missed_degraded;
      }
    }
    for (int v = 1; v < tree.num_nodes(); ++v) {
      if (reached[v] != 0 && useful[v] == 0) ++r.stats.wasted_leaf_hits;
    }

    if ((i + 1) % epoch_length == 0 || i + 1 == num_events) {
      epoch.deliveries = r.stats.deliveries - delivery_base;
      delivery_base = r.stats.deliveries;
      epoch.degraded_end = static_cast<int>(dyn.degraded_handles().size());
      epoch.qt_end = dyn.CurrentBandwidth();
      r.epochs.push_back(epoch);
      epoch = sim::EpochRecoveryStats{};
      epoch.first_event = i + 1;
    }
  }
  r.degraded_at_end = static_cast<int>(dyn.degraded_handles().size());
  r.qt_final = dyn.CurrentBandwidth();
  const auto snap = dyn.SnapshotLive();
  if (snap.ok()) {
    const core::SaProblem& live = snap.value().problem;
    r.qt_fresh =
        core::ComputeMetrics(live, core::RunGrStar(live, rng)).total_bandwidth;
    if (r.qt_fresh > 0) r.qt_inflation = r.qt_final / r.qt_fresh;
  }
  return r;
}

// Replays `plan` twice on identical 200-subscriber grid assigners with
// d-dimensional events and subscriptions: once through the crash-stop
// reference, once through ReplayWithFaults with default options, and
// compares them field by field.
void ExpectDefaultReplayMatchesCrashStop(const sim::FaultPlan& plan,
                                         int d = 2) {
  GridFixture a = MakeGridFixture(200, d);
  GridFixture b = MakeGridFixture(200, d);

  // A down/up-only plan (no mutes, no client churn) with distinct fault
  // ticks: a recovery heartbeat can then never race a same-tick crash on
  // its path, nor a crash a same-tick crash of its ancestor.
  ASSERT_TRUE(plan.client_events().empty());
  int fails = 0, recovers = 0;
  std::set<int> ticks;
  for (const sim::FaultEvent& e : plan.events()) {
    ASSERT_FALSE(e.heartbeat_only);
    ticks.insert(e.at_event);
    (e.fail ? fails : recovers) += 1;
  }
  ASSERT_GT(fails, 0);
  ASSERT_GT(recovers, 0);
  ASSERT_EQ(ticks.size(), plan.events().size());

  Rng event_rng(4);
  const std::vector<Point> events = UniformEvents(600, event_rng, d);
  sim::FaultReplayOptions options;
  options.epoch_length = 150;

  Rng rng_crash(6);
  const sim::FaultReplayResult c =
      CrashStopReference(a.dyn, plan, events, options.epoch_length, rng_crash);
  Rng rng_stale(6);
  const auto stale =
      sim::ReplayWithFaults(b.dyn, plan, events, options, rng_stale);
  ASSERT_TRUE(stale.ok()) << stale.status().message();
  const sim::FaultReplayResult& s = stale.value();

  // Routing counters: bit-identical, over a plan that delivered and
  // orphaned.
  EXPECT_GT(s.stats.deliveries, 0);
  EXPECT_GT(s.total_orphaned, 0);
  EXPECT_EQ(c.stats.total_messages, s.stats.total_messages);
  EXPECT_EQ(c.stats.deliveries, s.stats.deliveries);
  EXPECT_EQ(c.stats.missed_deliveries, s.stats.missed_deliveries);
  EXPECT_EQ(c.stats.wasted_leaf_hits, s.stats.wasted_leaf_hits);
  EXPECT_EQ(c.stats.broker_hits, s.stats.broker_hits);

  // Miss attribution and repair trajectory: bit-identical.
  EXPECT_EQ(c.missed_live, s.missed_live);
  EXPECT_EQ(c.missed_outage, s.missed_outage);
  EXPECT_EQ(c.missed_degraded, s.missed_degraded);
  EXPECT_EQ(c.total_orphaned, s.total_orphaned);
  EXPECT_EQ(c.total_repaired, s.total_repaired);
  EXPECT_EQ(c.total_degraded_placed, s.total_degraded_placed);
  EXPECT_EQ(c.total_undegraded, s.total_undegraded);
  EXPECT_TRUE(b.dyn.orphans().empty());
  EXPECT_EQ(c.degraded_at_end, s.degraded_at_end);
  EXPECT_EQ(c.qt_final, s.qt_final);
  EXPECT_EQ(c.qt_fresh, s.qt_fresh);

  ASSERT_EQ(c.epochs.size(), s.epochs.size());
  for (size_t i = 0; i < c.epochs.size(); ++i) {
    EXPECT_EQ(c.epochs[i].deliveries, s.epochs[i].deliveries) << i;
    EXPECT_EQ(c.epochs[i].missed_outage, s.epochs[i].missed_outage) << i;
    EXPECT_EQ(c.epochs[i].missed_live, s.epochs[i].missed_live) << i;
    EXPECT_EQ(c.epochs[i].missed_degraded, s.epochs[i].missed_degraded) << i;
    EXPECT_EQ(c.epochs[i].repaired, s.epochs[i].repaired) << i;
    EXPECT_EQ(c.epochs[i].degraded_placed, s.epochs[i].degraded_placed) << i;
    EXPECT_EQ(c.epochs[i].degraded_end, s.epochs[i].degraded_end) << i;
    EXPECT_EQ(c.epochs[i].qt_end, s.epochs[i].qt_end) << i;
  }

  // The oracle detector paid nothing for detection...
  EXPECT_EQ(s.missed_undetected, 0);
  EXPECT_EQ(s.missed_expired, 0);
  EXPECT_EQ(s.premature_evacuations, 0);
  EXPECT_EQ(s.false_lease_expirations, 0);
  EXPECT_EQ(s.lease_expirations, 0);
  ASSERT_EQ(static_cast<int>(s.detection_latency.size()), fails);
  for (int latency : s.detection_latency) EXPECT_EQ(latency, 0);
  EXPECT_EQ(s.broker_recoveries, recovers);
  // ...and the crash-stop reference has no liveness machinery at all.
  EXPECT_EQ(c.heartbeats_sent, 0);
  EXPECT_GT(s.heartbeats_sent, 0);
}

// The default lease is the hair-trigger oracle: zero-latency heartbeats,
// miss_suspect = miss_dead = 1, no suspicion veto, and clients that never
// expire. It detects every crash on the tick it happens and revives every
// recovery on its tick, so belief equals ground truth at every routing
// instant and the default replay must reproduce crash-stop bit-identically
// (the contract documented in src/sim/fault_plan.h). The reference tests
// every filter rectangle itself, so it also checks the replay's broker
// entry test and subscription index with 1-d and 3-d subscriptions.
TEST(OracleEquivalenceTest, HairTriggerStalenessMatchesCrashStop) {
  const LeaseConfig oracle = sim::FaultReplayOptions{}.lease;
  EXPECT_EQ(oracle.heartbeat_interval, 1);
  EXPECT_EQ(oracle.miss_suspect, 1);
  EXPECT_EQ(oracle.miss_dead, 1);
  EXPECT_FALSE(oracle.suspect_blocks_placement);
  EXPECT_GT(oracle.subscriber_interval, std::numeric_limits<int>::max());

  const GridFixture shape = MakeGridFixture(200);
  {
    SCOPED_TRACE("SustainedChurn");
    Rng plan_rng(11);
    ExpectDefaultReplayMatchesCrashStop(
        sim::SustainedChurn(shape.dyn.tree(), 600, 0.25, 120, 2, plan_rng));
  }
  {
    SCOPED_TRACE("SeededRandom");
    Rng plan_rng(12);
    ExpectDefaultReplayMatchesCrashStop(sim::FaultPlan::SeededRandom(
        shape.dyn.tree(), 600, 0.25, 150, plan_rng));
  }
  for (const int d : {1, 3}) {
    SCOPED_TRACE(d == 1 ? "SustainedChurn, d = 1" : "SustainedChurn, d = 3");
    Rng plan_rng(11);
    ExpectDefaultReplayMatchesCrashStop(
        sim::SustainedChurn(shape.dyn.tree(), 600, 0.25, 120, 2, plan_rng), d);
  }
}

// ---------------------------------------------------------------------------
// Churn scenario generators under realistic leases
// ---------------------------------------------------------------------------

sim::FaultReplayOptions LeaseOptions(LeaseConfig lease) {
  sim::FaultReplayOptions options;
  options.epoch_length = 100;
  options.lease = lease;
  return options;
}

bool HasHeartbeatOnlyFaults(const sim::FaultPlan& plan) {
  return std::any_of(plan.events().begin(), plan.events().end(),
                     [](const sim::FaultEvent& e) { return e.heartbeat_only; });
}

LeaseConfig RealisticLease() {
  LeaseConfig lease;
  lease.heartbeat_interval = 2;
  lease.miss_suspect = 2;
  lease.miss_dead = 4;
  lease.subscriber_interval = 2;
  lease.subscriber_miss_dead = 4;
  return lease;
}

TEST(ChurnScenarioTest, FlakyClientsExpireAndReconnectWithoutLiveMisses) {
  GridFixture f = MakeGridFixture(200);
  Rng plan_rng(17);
  const sim::FaultPlan plan =
      sim::FlakyClients(f.dyn.population(), 400, 0.2, 40, 2, plan_rng);
  ASSERT_FALSE(plan.client_events().empty());

  LeaseConfig lease = RealisticLease();
  lease.subscriber_miss_dead = 2;  // expire after ~4 silent ticks
  Rng event_rng(4);
  const std::vector<Point> events = UniformEvents(400, event_rng);
  Rng rng(6);
  const auto replay = sim::ReplayWithFaults(f.dyn, plan, events,
                                            LeaseOptions(lease), rng);
  ASSERT_TRUE(replay.ok()) << replay.status().message();
  const sim::FaultReplayResult& r = replay.value();

  // Long offline bouts expire leases; the returns re-subscribe.
  EXPECT_GT(r.lease_expirations, 0);
  EXPECT_GT(r.reconnects, 0);
  // Every expiry was of a genuinely offline client, and no broker was ever
  // suspected — client churn is invisible to the broker detector.
  EXPECT_EQ(r.false_lease_expirations, 0);
  EXPECT_EQ(r.false_suspicions, 0);
  EXPECT_EQ(r.premature_evacuations, 0);
  EXPECT_TRUE(r.detection_latency.empty());
  // The acceptance bar: placed live subscribers never miss.
  EXPECT_EQ(r.missed_live, 0);
  EXPECT_EQ(r.missed_undetected, 0);
  EXPECT_GT(r.refreshes_sent, 0);
  EXPECT_GT(r.stats.deliveries, 0);
}

TEST(ChurnScenarioTest, AsymmetricPartitionCausesOnlyFalseAlarms) {
  GridFixture f = MakeGridFixture(200);
  Rng plan_rng(19);
  const sim::FaultPlan plan =
      sim::AsymmetricPartition(f.dyn.tree(), 400, 100, 120, 0.25, plan_rng);
  ASSERT_TRUE(HasHeartbeatOnlyFaults(plan));

  LeaseConfig lease = RealisticLease();
  lease.miss_dead = 3;  // the 120-tick mute far exceeds the death window
  lease.subscriber_miss_dead = 6;
  Rng event_rng(4);
  const std::vector<Point> events = UniformEvents(400, event_rng);
  Rng rng(6);
  const auto replay = sim::ReplayWithFaults(f.dyn, plan, events,
                                            LeaseOptions(lease), rng);
  ASSERT_TRUE(replay.ok()) << replay.status().message();
  const sim::FaultReplayResult& r = replay.value();

  // Nothing was actually down, so every suspicion and every death the
  // detector produced is false — the cost of an asymmetric partition.
  EXPECT_GT(r.false_suspicions, 0);
  EXPECT_GT(r.premature_evacuations, 0);
  EXPECT_TRUE(r.detection_latency.empty());
  EXPECT_EQ(r.missed_undetected, 0);
  // The muted brokers re-announce themselves once the partition heals.
  EXPECT_GT(r.broker_recoveries, 0);
  // Premature evacuations re-place subscribers correctly: no live misses,
  // and no client was expunged (refresh silence was explained upstream).
  EXPECT_EQ(r.missed_live, 0);
  EXPECT_EQ(r.false_lease_expirations, 0);
  EXPECT_GT(r.stats.deliveries, 0);
}

TEST(ChurnScenarioTest, SlowBrokersFlapIntoSuspicionButAreNeverEvacuated) {
  GridFixture f = MakeGridFixture(200);
  Rng plan_rng(23);
  const sim::FaultPlan plan =
      sim::SlowBrokers(f.dyn.tree(), 400, 0.2, 40, 6, plan_rng);
  ASSERT_TRUE(HasHeartbeatOnlyFaults(plan));

  LeaseConfig lease = RealisticLease();
  lease.miss_dead = 6;  // 6-tick mutes breach suspicion (4) but not death (12)
  lease.subscriber_miss_dead = 6;
  Rng event_rng(4);
  const std::vector<Point> events = UniformEvents(400, event_rng);
  Rng rng(6);
  const auto replay = sim::ReplayWithFaults(f.dyn, plan, events,
                                            LeaseOptions(lease), rng);
  ASSERT_TRUE(replay.ok()) << replay.status().message();
  const sim::FaultReplayResult& r = replay.value();

  // Slow brokers trip the suspicion threshold repeatedly...
  EXPECT_GT(r.false_suspicions, 0);
  // ...but never the death threshold: no evacuation, no orphan, no miss.
  EXPECT_EQ(r.premature_evacuations, 0);
  EXPECT_TRUE(r.detection_latency.empty());
  EXPECT_EQ(r.total_orphaned, 0);
  EXPECT_EQ(r.missed_live, 0);
  EXPECT_EQ(r.missed_undetected, 0);
  EXPECT_EQ(r.missed_outage, 0);
  EXPECT_EQ(r.lease_expirations, 0);
  EXPECT_GT(r.stats.deliveries, 0);
}

TEST(ChurnScenarioTest, SustainedChurnDetectionLatencyIsTheLeasePrice) {
  GridFixture f = MakeGridFixture(200);
  Rng plan_rng(29);
  const sim::FaultPlan plan =
      sim::SustainedChurn(f.dyn.tree(), 600, 0.25, 100, 2, plan_rng);

  const LeaseConfig lease = RealisticLease();
  Rng event_rng(4);
  const std::vector<Point> events = UniformEvents(600, event_rng);
  Rng rng(6);
  const auto replay = sim::ReplayWithFaults(f.dyn, plan, events,
                                            LeaseOptions(lease), rng);
  ASSERT_TRUE(replay.ok()) << replay.status().message();
  const sim::FaultReplayResult& r = replay.value();

  // Real crashes are detected — with a latency bounded below by the lease
  // parameters (a crash cannot be declared before miss_dead windows less
  // the heartbeat just missed elapse).
  ASSERT_FALSE(r.detection_latency.empty());
  const int64_t floor_ticks =
      lease.miss_dead * lease.heartbeat_interval - lease.heartbeat_interval;
  for (int latency : r.detection_latency) {
    EXPECT_GE(latency, floor_ticks);
    EXPECT_LE(latency, 64);  // and it stays bounded (held chains included)
  }
  // Events lost inside the detection window are the measured price...
  EXPECT_GT(r.missed_undetected, 0);
  // ...and the only price: placed live subscribers still never miss, and
  // no healthy broker was evacuated.
  EXPECT_EQ(r.missed_live, 0);
  EXPECT_EQ(r.premature_evacuations, 0);
  EXPECT_EQ(r.false_lease_expirations, 0);
  EXPECT_GT(r.broker_recoveries, 0);
  EXPECT_GT(r.stats.deliveries, 0);
}

// ---------------------------------------------------------------------------
// Reconnect-storm soak: the full stack under sustained ground-truth churn
// ---------------------------------------------------------------------------

// Drives channel + tracker + repair + periodic reoptimization through 800
// ticks of broker crashes/recoveries, heartbeat mutes, and client flapping.
// Debug builds audit every Tick; the test also audits explicitly so the
// release build checks coherence too. Seeded: the whole run is replayable.
TEST(LivenessSoakTest, ReconnectStormKeepsTrackerAndAssignerCoherent) {
  GridFixture f = MakeGridFixture(150);
  core::DynamicAssigner& dyn = f.dyn;
  const int num_nodes = dyn.tree().num_nodes();
  const int population = dyn.population();

  HeartbeatChannel channel(&dyn.tree(), population);
  const LeaseConfig lease = RealisticLease();
  LivenessTracker tracker(&dyn, lease, 0);
  core::RepairEngine engine(&dyn, core::RepairOptions{2, 32});
  for (int c = 0; c < population; ++c) tracker.TrackSubscriber(c, c, 0);

  Rng rng(33);
  int reconnects = 0;
  std::vector<int> down_brokers;
  std::vector<int> muted_brokers;
  for (int64_t t = 1; t <= 800; ++t) {
    // Ground-truth churn: at most two brokers down and two muted at once,
    // so the overlay always keeps live leaves to repair onto.
    if (down_brokers.size() < 2 && rng.Bernoulli(0.03)) {
      const int v = static_cast<int>(rng.UniformInt(1, num_nodes - 1));
      if (!channel.broker_down(v)) {
        channel.SetBrokerDown(v, true);
        down_brokers.push_back(v);
      }
    }
    if (!down_brokers.empty() && rng.Bernoulli(0.05)) {
      channel.SetBrokerDown(down_brokers.back(), false);
      down_brokers.pop_back();
    }
    if (muted_brokers.size() < 2 && rng.Bernoulli(0.05)) {
      const int v = static_cast<int>(rng.UniformInt(1, num_nodes - 1));
      if (!channel.broker_muted(v)) {
        channel.SetBrokerMuted(v, true);
        muted_brokers.push_back(v);
      }
    }
    if (!muted_brokers.empty() && rng.Bernoulli(0.08)) {
      channel.SetBrokerMuted(muted_brokers.back(), false);
      muted_brokers.pop_back();
    }
    // Client storm: a handful of subscribers flip on/off every tick.
    for (int k = 0; k < 3; ++k) {
      const int c = static_cast<int>(rng.UniformInt(0, population - 1));
      channel.SetClientOffline(c, !channel.client_offline(c));
    }

    // Heartbeats and refreshes, staggered by id as in the replay.
    for (int v = 1; v < num_nodes; ++v) {
      if (t % lease.heartbeat_interval != v % lease.heartbeat_interval) {
        continue;
      }
      if (!channel.broker_down(v) && channel.BrokerHeartbeatDelivered(v)) {
        tracker.HeardBroker(v, t);
      }
    }
    for (int c = 0; c < population; ++c) {
      if (t % lease.subscriber_interval != c % lease.subscriber_interval) {
        continue;
      }
      if (!tracker.IsTracked(c) || channel.client_offline(c)) continue;
      const int leaf = dyn.leaf_of(tracker.handle_of(c));
      if (channel.ClientRefreshDelivered(c, leaf)) {
        tracker.HeardSubscriber(c, t);
      }
    }

    const TickReport report = tracker.Tick(t);
    for (const liveness::ExpiredLease& e : report.expired) {
      engine.Forget(e.handle);
    }
    // Expired-but-online clients storm back at their next refresh phase.
    for (int c = 0; c < population; ++c) {
      if (tracker.IsTracked(c) || channel.client_offline(c)) continue;
      if (t % lease.subscriber_interval != c % lease.subscriber_interval) {
        continue;
      }
      const Result<int> h = dyn.Add(f.workload.subscribers[c]);
      // A reconnect can land at an instant where every leaf is believed
      // dead; the client simply retries at its next refresh phase.
      if (!h.ok()) continue;
      tracker.TrackSubscriber(c, h.value(), t);
      ++reconnects;
    }

    if (!dyn.orphans().empty() || !dyn.degraded_handles().empty()) {
      engine.Repair(t);
    }
    if (t % 250 == 0) {
      dyn.Reoptimize(
          [](const core::SaProblem& p, Rng& r) { return core::RunGrStar(p, r); },
          rng);
    }
    if (t % 50 == 0) liveness::AuditLiveness(tracker);
  }

  // The storm actually exercised every path...
  EXPECT_GT(tracker.stats().suspicions, 0);
  EXPECT_GT(tracker.stats().deaths, 0);
  EXPECT_GT(tracker.stats().recoveries, 0);
  EXPECT_GT(tracker.stats().lease_expirations, 0);
  EXPECT_GT(reconnects, 0);
  // ...and ended coherent: every tracked client holds an occupied handle
  // on a believed-live (or unplaced-awaiting-repair) subscription.
  liveness::AuditLiveness(tracker);
  for (const liveness::ExpiredLease& entry : tracker.TrackedClients()) {
    ASSERT_TRUE(dyn.is_occupied(entry.handle));
    const int leaf = dyn.leaf_of(entry.handle);
    if (leaf >= 0) {
      EXPECT_FALSE(dyn.tree().is_failed(leaf));
      EXPECT_NE(tracker.broker_state(leaf), LivenessState::kDead);
    }
  }
}

}  // namespace
}  // namespace slp
