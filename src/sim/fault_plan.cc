#include "src/sim/fault_plan.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <utility>

#include "src/common/invariant.h"
#include "src/core/greedy.h"
#include "src/core/metrics.h"
#include "src/core/repair.h"
#include "src/liveness/heartbeat.h"
#include "src/match/match_index.h"
#include "src/sim/route.h"

namespace slp::sim {

namespace {

// True iff some broker on the believed live path of `leaf` is actually
// down (the event's non-arrival is the detector's lag, not a filter bug).
bool BelievedPathActuallyDown(const core::DynamicAssigner& dyn, int leaf,
                              const liveness::HeartbeatChannel& channel) {
  const net::BrokerTree& tree = dyn.tree();
  for (int v = leaf; v != net::BrokerTree::kPublisher;
       v = tree.live_parent(v)) {
    if (channel.broker_down(v)) return true;
  }
  return false;
}

Status ValidateOptions(const FaultReplayOptions& options) {
  if (options.epoch_length <= 0) {
    return Status::InvalidArgument("epoch_length must be positive");
  }
  const liveness::LeaseConfig& lease = options.lease;
  if (lease.heartbeat_interval <= 0 || lease.subscriber_interval <= 0) {
    return Status::InvalidArgument("lease intervals must be positive");
  }
  if (lease.miss_suspect <= 0 || lease.subscriber_miss_dead <= 0) {
    return Status::InvalidArgument("lease miss thresholds must be positive");
  }
  if (lease.miss_dead < lease.miss_suspect) {
    return Status::InvalidArgument("lease miss_dead is below miss_suspect");
  }
  return Status::OK();
}

// The loop's plan checks, run before its first tick so that a rejected
// plan leaves the assigner untouched: the faults and client events it
// applies, in its order, against ground truth seeded from the overlay.
Status ValidatePlan(const FaultPlan& plan, const net::BrokerTree& tree,
                    int num_clients, int num_events) {
  std::vector<bool> down(tree.num_nodes());
  for (int v = 1; v < tree.num_nodes(); ++v) down[v] = tree.is_failed(v);
  const std::vector<FaultEvent>& faults = plan.events();
  const std::vector<ClientEvent>& clients = plan.client_events();
  size_t next_fault = 0, next_client = 0;
  for (int i = 0; i < num_events; ++i) {
    for (; next_fault < faults.size() && faults[next_fault].at_event <= i;
         ++next_fault) {
      const FaultEvent& f = faults[next_fault];
      if (f.node <= net::BrokerTree::kPublisher || f.node >= tree.num_nodes()) {
        return Status::InvalidArgument("fault on invalid broker node");
      }
      if (f.heartbeat_only) continue;
      if (down[f.node] == f.fail) {
        return Status::InvalidArgument(f.fail ? "broker already down"
                                              : "broker not down");
      }
      down[f.node] = f.fail;
    }
    for (; next_client < clients.size() && clients[next_client].at_event <= i;
         ++next_client) {
      const int c = clients[next_client].client;
      if (c < 0 || c >= num_clients) {
        return Status::InvalidArgument("client event on invalid client id");
      }
    }
  }
  return Status::OK();
}

}  // namespace

FaultPlan FaultPlan::Scripted(std::vector<FaultEvent> events,
                              std::vector<ClientEvent> client_events) {
  FaultPlan plan;
  plan.events_ = std::move(events);
  std::stable_sort(plan.events_.begin(), plan.events_.end(),
                   [](const FaultEvent& a, const FaultEvent& b) {
                     return a.at_event < b.at_event;
                   });
  plan.client_events_ = std::move(client_events);
  std::stable_sort(plan.client_events_.begin(), plan.client_events_.end(),
                   [](const ClientEvent& a, const ClientEvent& b) {
                     return a.at_event < b.at_event;
                   });
  return plan;
}

FaultPlan FaultPlan::SeededRandom(const net::BrokerTree& tree, int num_events,
                                  double fail_fraction, int outage_events,
                                  Rng& rng) {
  const int num_brokers = tree.num_nodes() - 1;  // publisher excluded
  SLP_DCHECK(num_brokers > 0 && num_events > 0);
  const int victims = std::min(
      num_brokers,
      std::max(1, static_cast<int>(std::ceil(fail_fraction * num_brokers))));
  // Sampled ids are 0-based broker offsets; +1 skips the publisher.
  const std::vector<int> picks =
      UniformSampleWithoutReplacement(num_brokers, victims, rng);
  std::vector<FaultEvent> events;
  for (int pick : picks) {
    const int node = pick + 1;
    const int start = static_cast<int>(rng.UniformInt(0, num_events - 1));
    events.push_back(FaultEvent{start, node, /*fail=*/true});
    // Contract: a recovery landing at or past the stream end is dropped —
    // the victim stays down for the rest of the replay (see header).
    const int end = start + outage_events;
    if (end < num_events) {
      events.push_back(FaultEvent{end, node, /*fail=*/false});
    }
  }
  return Scripted(std::move(events));
}

namespace detail {

Result<FaultReplayResult> ReplayWithFaults(
    core::DynamicAssigner& dyn, const FaultPlan& plan,
    const std::vector<geo::Point>& events, const FaultReplayOptions& options,
    Rng& rng, Matcher* matcher) {
  SLP_RETURN_IF_ERROR(ValidateOptions(options));
  const liveness::LeaseConfig& lease = options.lease;
  const net::BrokerTree& tree = dyn.tree();
  const int num_nodes = tree.num_nodes();
  FaultReplayResult result;
  result.stats.broker_hits.assign(num_nodes, 0);

  // Stable client ids: the assigner's initial population in handle order.
  // client_handle goes to -1 while a client's lease is expired; the
  // subscription is kept so a reconnect can re-Add it. It never changes,
  // so one index over the subscriptions (owner = client id) serves the
  // whole replay.
  std::vector<int> client_handle;
  std::vector<wl::Subscriber> client_sub;
  std::vector<match::OwnedRect> client_rects;
  for (int h = 0; h < dyn.slot_count(); ++h) {
    if (!dyn.is_occupied(h)) continue;
    const int c = static_cast<int>(client_handle.size());
    client_handle.push_back(h);
    client_sub.push_back(dyn.subscriber(h));
    client_rects.push_back({c, client_sub[c].subscription});
  }
  const int num_clients = static_cast<int>(client_handle.size());
  const int num_events = static_cast<int>(events.size());
  SLP_RETURN_IF_ERROR(ValidatePlan(plan, tree, num_clients, num_events));
  matcher->IndexSubscriptions(client_rects, num_clients);
  Router router(*matcher, num_nodes);

  // Ground truth starts where belief does: a broker already failed in the
  // overlay is down until the plan recovers it.
  liveness::HeartbeatChannel channel(&tree, num_clients);
  for (int v = 1; v < num_nodes; ++v) {
    if (tree.is_failed(v)) channel.SetBrokerDown(v, true);
  }
  // now = -1: every lease dates from "one tick before the stream", so a
  // broker down from event 0 accrues its first missed window at tick
  // interval-1 — and under the oracle lease, at tick 0 (the crash-stop
  // alignment).
  liveness::LivenessTracker tracker(&dyn, lease, /*now=*/-1);
  for (int c = 0; c < num_clients; ++c) {
    tracker.TrackSubscriber(c, client_handle[c], /*now=*/-1);
  }
  core::RepairEngine engine(&dyn);

  // Refresh phases: client c attempts a lease refresh at ticks i with
  // i % subscriber_interval == c % subscriber_interval. Only the first
  // num_clients phases can hold a client, so the table is sized by the
  // population, not by the interval.
  const int64_t client_interval = lease.subscriber_interval;
  std::vector<std::vector<int>> phase_clients(
      std::min<int64_t>(client_interval, num_clients));
  for (int c = 0; c < num_clients; ++c) {
    phase_clients[c % client_interval].push_back(c);
  }

  EpochRecoveryStats epoch;
  epoch.first_event = 0;
  int64_t epoch_delivery_base = 0;

  size_t next_fault = 0;
  size_t next_client = 0;
  const std::vector<FaultEvent>& faults = plan.events();
  const std::vector<ClientEvent>& client_faults = plan.client_events();
  std::vector<int> down_since(num_nodes, -1);  // ground-truth crash tick
  // Clients whose lease expired (untracked); they reconnect at their next
  // refresh phase once online. Ordered set: iteration is deterministic.
  std::set<int> expired;

  // Routing over the believed overlay (step 6). Events die at actually-
  // down brokers, after the believed parent's message is counted; an
  // arrival for an offline client is a stale delivery. A matching client
  // the event did not reach is attributed against ground truth. Order
  // matters: an actually-down broker on the believed path explains the
  // miss (missed_undetected) before any filter reasoning — missed_live
  // stays reserved for true coverage bugs.
  const auto children = [&](int v) -> const std::vector<int>& {
    return tree.live_children(v);
  };
  const auto forwards = [&](int v) {
    SLP_DCHECK(!tree.is_failed(v));
    return !channel.broker_down(v);
  };
  const auto leaf_of = [&](int32_t c) {
    const int h = client_handle[c];
    return h < 0 ? -1 : dyn.leaf_of(h);
  };
  const auto on_match = [&](int32_t c, int leaf, bool reached) {
    if (reached) {
      ++(channel.client_offline(c) ? result.stale_deliveries
                                   : result.stats.deliveries);
      return;
    }
    if (channel.client_offline(c)) return;  // not listening: no miss
    const int h = client_handle[c];
    if (h < 0) {
      // Expunged by a premature lease expiry: missed until its reconnect.
      ++result.missed_expired;
    } else if (leaf < 0) {
      // Orphaned, or degraded and parked unplaced: the outage's price.
      ++result.missed_outage;
      ++epoch.missed_outage;
    } else if (BelievedPathActuallyDown(dyn, leaf, channel)) {
      ++result.missed_undetected;
      ++epoch.missed_undetected;
    } else if (dyn.state(h) == core::SubscriberState::kLive) {
      ++result.missed_live;
      ++epoch.missed_live;
      ++result.stats.missed_deliveries;
    } else {
      ++result.missed_degraded;
      ++epoch.missed_degraded;
    }
  };

  for (int i = 0; i < num_events; ++i) {
    // 1. Ground truth moves (as ValidatePlan checked): crashes,
    // recoveries, mutes, client churn. Nothing here touches belief.
    while (next_fault < faults.size() && faults[next_fault].at_event <= i) {
      const FaultEvent& f = faults[next_fault++];
      if (f.heartbeat_only) {
        channel.SetBrokerMuted(f.node, f.fail);
        continue;
      }
      channel.SetBrokerDown(f.node, f.fail);
      down_since[f.node] = f.fail ? i : -1;
    }
    while (next_client < client_faults.size() &&
           client_faults[next_client].at_event <= i) {
      const ClientEvent& c = client_faults[next_client++];
      channel.SetClientOffline(c.client, c.offline);
    }

    // 2. Heartbeats and lease refreshes, staggered by id so a population
    // does not renew in bursts. Delivery is decided by the channel over
    // the believed overlay; a delivered heartbeat from a believed-dead
    // broker recovers it (the tracker calls RecoverBroker).
    for (int v = 1; v < num_nodes; ++v) {
      if (i % lease.heartbeat_interval != v % lease.heartbeat_interval) {
        continue;
      }
      if (channel.broker_down(v)) continue;  // a dead broker sends nothing
      ++result.heartbeats_sent;
      if (!channel.BrokerHeartbeatDelivered(v)) continue;
      ++result.heartbeats_delivered;
      if (tracker.HeardBroker(v, i) == liveness::HeardKind::kRecovered) {
        ++result.broker_recoveries;
      }
    }
    const int64_t phase = i % client_interval;
    if (phase < static_cast<int64_t>(phase_clients.size())) {
      for (int c : phase_clients[phase]) {
        if (!tracker.IsTracked(c)) continue;
        if (channel.client_offline(c)) continue;  // offline: nothing sent
        ++result.refreshes_sent;
        const int leaf = dyn.leaf_of(tracker.handle_of(c));
        if (!channel.ClientRefreshDelivered(c, leaf)) continue;
        ++result.refreshes_delivered;
        tracker.HeardSubscriber(c, i);
      }
    }

    // 3. Detector tick: the tracker applies the lease state machine and
    // drives FailBroker / Remove. Attribute its transitions against
    // ground truth.
    const size_t orphans_before = dyn.orphans().size();
    const liveness::TickReport tick = tracker.Tick(i);
    result.total_orphaned +=
        static_cast<int>(dyn.orphans().size() - orphans_before);
    result.deaths_deferred += tick.deaths_deferred;
    for (const int v : tick.new_suspects) {
      if (!channel.broker_down(v)) ++result.false_suspicions;
    }
    for (const int v : tick.declared_dead) {
      if (channel.broker_down(v)) {
        result.detection_latency.push_back(i - down_since[v]);
      } else {
        ++result.premature_evacuations;
      }
    }
    for (const liveness::ExpiredLease& e : tick.expired) {
      engine.Forget(e.handle);  // the handle is gone; drop its backoff
      client_handle[e.client] = -1;
      ++result.lease_expirations;
      if (!channel.client_offline(e.client)) {
        ++result.false_lease_expirations;
      }
      expired.insert(e.client);
    }

    // 4. Reconnects: an expired client that is online re-subscribes at its
    // next refresh phase (mass expiry + mass return = reconnect storm).
    // Placement goes through the normal veto-aware Add.
    for (auto it = expired.begin(); it != expired.end();) {
      const int c = *it;
      if (channel.client_offline(c) || phase != c % client_interval) {
        ++it;
        continue;
      }
      const Result<int> handle = dyn.Add(client_sub[c]);
      if (!handle.ok()) {  // no live leaf at all right now; retry later
        ++it;
        continue;
      }
      client_handle[c] = handle.value();
      tracker.TrackSubscriber(c, handle.value(), i);
      ++result.reconnects;
      it = expired.erase(it);
    }

    // 5. Repair. Orphans only exist once the tracker declared their leaf
    // dead, so the lease thresholds *are* the detection delay; the pass
    // places or parks every one of them before the event is routed.
    if (!dyn.orphans().empty() || !dyn.degraded_handles().empty()) {
      const core::RepairReport report = engine.Repair(i);
      result.total_repaired += report.repaired;
      result.total_degraded_placed += report.degraded;
      result.total_undegraded += report.undegraded;
      epoch.repaired += report.repaired + report.undegraded;
      epoch.degraded_placed += report.degraded;
    }
    SLP_DCHECK(dyn.orphans().empty());

    // 6. Route over the believed overlay, attributing every matching
    // client against ground truth. A visited (live) broker is entered iff
    // its current filter contains the event (paper, Section II).
    const geo::Point& e = events[i];
    const auto enters = [&](int v) {
      for (const geo::Rectangle& r : dyn.filter(v)) {
        if (r.ContainsPoint(e)) return true;
      }
      return false;
    };
    ++result.stats.events;
    ++epoch.num_events;
    router.Route(e, tree, children, enters, forwards, leaf_of, on_match,
                 &result.stats);

    // 7. Epoch boundary.
    if ((i + 1) % options.epoch_length == 0 || i + 1 == num_events) {
      epoch.deliveries = result.stats.deliveries - epoch_delivery_base;
      epoch_delivery_base = result.stats.deliveries;
      epoch.degraded_end = static_cast<int>(dyn.degraded_handles().size());
      epoch.suspects_end = tracker.num_suspect();
      epoch.qt_end = dyn.CurrentBandwidth();
      result.epochs.push_back(epoch);
      epoch = EpochRecoveryStats{};
      epoch.first_event = i + 1;
    }
  }

  result.degraded_at_end = static_cast<int>(dyn.degraded_handles().size());
  result.qt_final = dyn.CurrentBandwidth();
  result.stats.CheckInvariants();

  // Fresh-baseline Q(T) over the surviving live topology (consumes rng iff
  // it runs).
  Result<core::DynamicAssigner::LiveSnapshot> snap = dyn.SnapshotLive();
  if (snap.ok()) {
    const core::SaSolution fresh = core::RunGrStar(snap.value().problem, rng);
    result.qt_fresh =
        core::ComputeMetrics(snap.value().problem, fresh).total_bandwidth;
    if (result.qt_fresh > 0) {
      result.qt_inflation = result.qt_final / result.qt_fresh;
    }
  }
  return result;
}

}  // namespace detail

Result<FaultReplayResult> ReplayWithFaults(
    core::DynamicAssigner& dyn, const FaultPlan& plan,
    const std::vector<geo::Point>& events, const FaultReplayOptions& options,
    Rng& rng) {
  detail::IndexedMatcher matcher;
  return detail::ReplayWithFaults(dyn, plan, events, options, rng, &matcher);
}

}  // namespace slp::sim
