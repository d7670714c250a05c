// Broker-failure injection for the dissemination simulator (DESIGN.md §9,
// §13).
//
// A FaultPlan is a schedule of fail/recover events interleaved with the
// event stream: the fault at `at_event` is applied (and a repair pass
// runs) before event number `at_event` is routed.
//
// ReplayWithFaults drives a DynamicAssigner through the plan in one loop.
// The plan mutates only *ground truth* (a liveness::HeartbeatChannel):
// fail/recover events crash and revive brokers for real, heartbeat_only
// events cut just the heartbeat uplink (asymmetric partition / slow
// broker), and client events take subscribers offline. The believed
// overlay — what routing and repair actually use — is driven exclusively
// by a liveness::LivenessTracker fed by simulated heartbeats routed over
// that same believed overlay. Detection latency, false suspicions,
// premature evacuations, lease expirations, and reconnect storms are
// measured outputs of options.lease, and every missed delivery is
// attributed to its cause:
//
//  * missed_live       — a kLive subscriber missed a matching event. This
//                        is a correctness bug (coverage/nesting broken):
//                        the repair pipeline must keep it at zero.
//  * missed_outage     — the subscriber was parked unplaced (no live leaf
//                        could host it) when the event fired; the miss is
//                        the unavoidable price of the outage. Each tick's
//                        repair pass places or parks every orphan before
//                        the event is routed, so no event finds one.
//  * missed_degraded   — a *placed* degraded subscriber missed (expected
//                        0: placement grows path filters even when latency
//                        or load constraints are violated).
//  * missed_undetected — the event died at an actually-down broker the
//                        tracker had not yet declared dead (the detection
//                        window's price; keeps missed_live == 0 honest);
//  * missed_expired    — a matching event fired while an *online* client's
//                        subscription was expunged by a premature lease
//                        expiry, before its reconnect.
//
// Crash-stop is the default: FaultReplayOptions::lease defaults to the
// oracle lease (one-tick heartbeats, miss_suspect = miss_dead = 1, no
// suspicion veto, a client interval longer than any stream). Under it the
// tracker declares every crash dead on its tick and revives every
// recovery on its tick, so belief equals ground truth at every routing
// instant and no client lease ever expires. On down/up plans with
// distinct fault ticks the replay is bit-identical to a brute-force
// crash-stop reference (tests/liveness_test.cc). One known divergence
// comes from the tracker's held rule: when an interior broker and one of
// its descendants crash on the same tick, the descendant is held that
// tick and declared dead one tick later, so an event of that tick that
// reaches the descendant counts as missed_undetected (crash-stop would
// have orphaned the descendant's subscribers at once). Other same-tick
// faults follow the tracker's order rather than the plan's: recoveries as
// their heartbeats arrive, then deaths, each in node-id order.
//
// Routing runs the kernel shared with Simulate (src/sim/route.h, any
// event dimension): the clients' subscriptions are indexed once per
// replay, keyed by client id; an event enters each live broker it visits
// iff the broker's current filter contains it (no index to go stale); and
// its matching clients are walked once to count deliveries and misses.
//
// Per-epoch recovery metrics (repairs, degraded backlog, per-cause misses,
// Q(T) of the live deployment) expose the recovery trajectory, and the
// final Q(T) is compared against a fresh offline Gr* re-solve of the
// surviving topology to quantify the inflation the online repairs
// accumulated.

#ifndef SLP_SIM_FAULT_PLAN_H_
#define SLP_SIM_FAULT_PLAN_H_

#include <cstdint>
#include <limits>
#include <vector>

#include "src/common/random.h"
#include "src/common/status.h"
#include "src/core/dynamic.h"
#include "src/liveness/liveness_tracker.h"
#include "src/sim/dissemination.h"

namespace slp::sim {

struct FaultEvent {
  // The fault is applied just before event number `at_event` is routed; a
  // value >= the stream length means "after the last event" (never applied
  // by ReplayWithFaults).
  int at_event = 0;
  int node = 0;       // broker node id (never the publisher)
  bool fail = true;   // false = recover
  // The fault cuts the broker's heartbeat *uplink* instead of crashing it
  // — heartbeats crossing the hop are lost but the broker keeps forwarding
  // events (asymmetric partition; a slow-but-alive broker is a train of
  // short heartbeat_only outages). Every suspicion such a fault causes is
  // by construction false.
  bool heartbeat_only = false;
};

// A subscriber stops (offline = true) or resumes (offline = false)
// refreshing its lease and consuming deliveries.
// Client ids index the assigner's initial population in handle order.
struct ClientEvent {
  int at_event = 0;
  int client = 0;
  bool offline = true;
};

class FaultPlan {
 public:
  FaultPlan() = default;

  // A caller-specified schedule; both lists are stably sorted by at_event.
  static FaultPlan Scripted(std::vector<FaultEvent> events,
                            std::vector<ClientEvent> client_events = {});

  // Fails a seeded-random subset of brokers (interior or leaf, never the
  // publisher): ceil(fail_fraction * num_brokers) distinct victims, each
  // failing at a uniform event index and recovering `outage_events`
  // later. Deterministic for a given Rng state.
  //
  // Contract: a victim whose recovery index (start + outage_events) lands
  // at or past the stream end gets NO recover event — it stays down
  // through the end of the replay (its subscribers are re-placed
  // elsewhere) and is excluded from the fresh-baseline topology. Callers
  // that need every outage to close must size outage_events against
  // num_events themselves; ReplayWithFaults never applies events at
  // >= num_events.
  static FaultPlan SeededRandom(const net::BrokerTree& tree, int num_events,
                                double fail_fraction, int outage_events,
                                Rng& rng);

  const std::vector<FaultEvent>& events() const { return events_; }
  const std::vector<ClientEvent>& client_events() const {
    return client_events_;
  }

 private:
  std::vector<FaultEvent> events_;        // sorted by at_event (stable)
  std::vector<ClientEvent> client_events_;  // sorted by at_event (stable)
};

struct FaultReplayOptions {
  // Epoch length (in events) for the recovery-metrics time series.
  int epoch_length = 100;
  // Lease parameters of the LivenessTracker that detects failures (see
  // file comment); detection delay is their outcome, not an input. The
  // default is the oracle lease, under which the replay is crash-stop:
  // each broker heartbeats every tick and one missed heartbeat is death;
  // suspicion never vetoes placement; and the client refresh interval
  // outlasts any stream, so no client lease expires. (LeaseConfig's own
  // member defaults are a realistic lease, not this one.)
  liveness::LeaseConfig lease = {
      .heartbeat_interval = 1,
      .miss_suspect = 1,
      .miss_dead = 1,
      .subscriber_interval = std::numeric_limits<int64_t>::max(),
      .subscriber_miss_dead = 1,
      .suspect_blocks_placement = false,
  };
};

// One epoch of the recovery time series.
struct EpochRecoveryStats {
  int first_event = 0;
  int num_events = 0;
  int64_t deliveries = 0;
  // Per-cause misses within the epoch (same attribution as the replay
  // totals).
  int64_t missed_outage = 0;
  int64_t missed_live = 0;
  int64_t missed_degraded = 0;
  int64_t missed_undetected = 0;
  int repaired = 0;         // orphan -> kLive transitions this epoch
  int degraded_placed = 0;  // orphan -> kDegraded transitions this epoch
  int degraded_end = 0;
  int suspects_end = 0;     // suspect brokers at epoch end
  double qt_end = 0;        // live-deployment Q(T) at epoch end
};

struct FaultReplayResult {
  // Routing counters over the live overlay. `stats.missed_deliveries`
  // counts only missed_live (the correctness-critical misses); the other
  // causes are broken out below.
  DisseminationStats stats;
  int64_t missed_live = 0;
  int64_t missed_outage = 0;
  int64_t missed_degraded = 0;

  int total_orphaned = 0;   // handles that ever became orphaned
  int total_repaired = 0;
  int total_degraded_placed = 0;
  int total_undegraded = 0;  // degraded retries that came back to kLive
  int degraded_at_end = 0;

  double qt_final = 0;      // live-deployment Q(T) after the last event
  double qt_fresh = 0;      // fresh Gr* Q(T) over the same live topology
  double qt_inflation = 0;  // qt_final / qt_fresh (0 when no baseline ran)

  std::vector<EpochRecoveryStats> epochs;

  // ---- Failure-detector outputs ----
  int64_t missed_undetected = 0;
  int64_t missed_expired = 0;
  // Deliveries routed to a leaf for a client that was offline (traffic
  // spent on a subscriber who was not listening; excluded from
  // stats.deliveries).
  int64_t stale_deliveries = 0;
  int64_t heartbeats_sent = 0;
  int64_t heartbeats_delivered = 0;
  int64_t refreshes_sent = 0;
  int64_t refreshes_delivered = 0;
  // Suspicions of brokers that were actually up (mutes and path outages).
  int false_suspicions = 0;
  // Death declarations of brokers that were actually up — each one
  // evacuates a healthy leaf.
  int premature_evacuations = 0;
  int lease_expirations = 0;
  // Expirations of clients that were actually online.
  int false_lease_expirations = 0;
  // Expired-then-online clients that re-subscribed (the reconnect storm).
  int reconnects = 0;
  // Believed-dead brokers revived by a heartbeat (RecoverBroker calls).
  int broker_recoveries = 0;
  // Ticks from a real crash to its death declaration, one entry per
  // detected crash (premature evacuations excluded).
  std::vector<int> detection_latency;
  // Death declarations deferred by the path-aware held rule.
  int64_t deaths_deferred = 0;
};

// Replays `events` through `dyn` under `plan`. `rng` is consumed only by
// the fresh-baseline Gr* solve after the last event, which runs unless no
// subscriber or no live leaf is left. Ground truth starts equal to the
// overlay: a broker already failed in `dyn` is down until the plan
// recovers it.
// kInvalidArgument, with `dyn` untouched: epoch_length <= 0; a lease with
// a non-positive interval, miss_suspect or subscriber_miss_dead, or
// miss_dead < miss_suspect; among the plan's events before the stream's
// end, a fault on an invalid broker (the publisher, out of range), failing
// an already-down broker or recovering one that is up, or a client event
// on an invalid client id.
Result<FaultReplayResult> ReplayWithFaults(core::DynamicAssigner& dyn,
                                           const FaultPlan& plan,
                                           const std::vector<geo::Point>& events,
                                           const FaultReplayOptions& options,
                                           Rng& rng);

namespace detail {

// ReplayWithFaults with the subscription probe of `matcher`
// (src/sim/route.h): the replay indexes the clients' subscriptions into it
// once (owner = client id) and indexes no broker filters. The public
// overload passes the grid-indexed matcher.
Result<FaultReplayResult> ReplayWithFaults(
    core::DynamicAssigner& dyn, const FaultPlan& plan,
    const std::vector<geo::Point>& events, const FaultReplayOptions& options,
    Rng& rng, Matcher* matcher);

}  // namespace detail

}  // namespace slp::sim

#endif  // SLP_SIM_FAULT_PLAN_H_
