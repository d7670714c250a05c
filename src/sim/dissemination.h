// Event-dissemination simulator.
//
// Replays sampled events through a solved deployment (tree + filters +
// assignment) exactly as the brokers would at runtime: an event enters a
// broker iff it lies inside the broker's filter (Section II's forwarding
// logic), and a leaf delivers it to an assigned subscriber iff the event
// matches the subscription. This grounds the paper's analytic bandwidth
// measure — under uniform events, the expected per-broker traffic is the
// filter's volume — and checks end-to-end delivery correctness:
//  * no false negatives: the nesting condition guarantees every event a
//    subscriber matches actually reaches its leaf broker;
//  * quantifies false positives: traffic into brokers whose subscribers
//    did not need the event (the slack the optimizer minimizes).
//
// Routing (DESIGN.md §11) indexes every broker filter rectangle and every
// placed subscription once per call (src/match, any event dimension d).
// Each event then costs one broker-filter probe, a bit-test DFS, and one
// walk over the event's matching subscriptions, which counts deliveries
// and misses and marks the leaves that served one; reached leaves that
// served none are the wasted hits. The kernel is shared with the fault
// replay (src/sim/route.h), and tests/match_test checks every counter
// against a brute-force router.

#ifndef SLP_SIM_DISSEMINATION_H_
#define SLP_SIM_DISSEMINATION_H_

#include <vector>

#include "src/common/random.h"
#include "src/core/assignment.h"
#include "src/core/problem.h"

namespace slp::sim {

struct SimulateOptions {
  // Number of contiguous event shards processed in parallel on the shared
  // thread pool. Counters are order-independent sums, so any shard count
  // produces bit-identical stats (enforced by tests); 1 = serial.
  int num_shards = 1;
};

// Counter-width audit (DESIGN.md §9): every cumulative counter is int64_t.
// total_messages grows by at most num_nodes per event, so overflow needs
// events * num_nodes > 2^63 ≈ 9.2e18 — at the largest workloads simulated
// here (≤1e7 events, ≤1e5 brokers: ≤1e12 entries) there are more than six
// orders of magnitude of headroom. `events` stays int because it is bounded
// by the caller-supplied stream length. CheckInvariants() verifies the
// cross-counter identities (and would catch wraparound, which breaks them).
// During outages, failed brokers forward nothing: the fault replay routes
// only over live_children and asserts no failed broker is ever counted in
// broker_hits / total_messages (see sim/fault_plan.cc).
struct DisseminationStats {
  int events = 0;
  // Events entering each broker node (index = tree node id; publisher 0).
  std::vector<int64_t> broker_hits;
  // Total broker entries across the tree — the realized analogue of Q(T).
  int64_t total_messages = 0;
  // Deliveries to subscribers (exact matches).
  int64_t deliveries = 0;
  // Events that entered a leaf no subscriber of which matched (pure waste).
  int64_t wasted_leaf_hits = 0;
  // Matching (subscriber, event) pairs that failed to arrive — must be 0
  // for any solution satisfying coverage + nesting.
  int64_t missed_deliveries = 0;
  // Subscribers with no leaf assignment (assignment[j] < 0 — parked or
  // orphaned in a DynamicAssigner/RepairEngine snapshot). They receive no
  // traffic and are excluded from the ground-truth miss walk; counted once
  // per simulation, not per event.
  int unplaced_subscribers = 0;

  // total_messages / events: average brokers traversed per event.
  double MeanMessagesPerEvent() const {
    return events > 0 ? static_cast<double>(total_messages) / events : 0;
  }

  // Checks the cross-counter identities: all counters non-negative,
  // Σ broker_hits == total_messages, and wasted leaf hits cannot exceed
  // total broker entries. Always compiled (SLP_AUDIT_CHECK with
  // Category::kDissemination), so Release builds validate too; cheap,
  // called once per simulation.
  void CheckInvariants() const;
};

// Samples `num_events` events uniformly from `event_box` and routes each
// through the solved deployment.
DisseminationStats SimulateUniform(const core::SaProblem& problem,
                                   const core::SaSolution& solution,
                                   const geo::Rectangle& event_box,
                                   int num_events, Rng& rng,
                                   const SimulateOptions& options = {});

// Routes caller-supplied events (e.g., from a non-uniform distribution).
DisseminationStats Simulate(const core::SaProblem& problem,
                            const core::SaSolution& solution,
                            const std::vector<geo::Point>& events,
                            const SimulateOptions& options = {});

namespace detail {

class Matcher;

// Simulate with the probes of `matcher` (src/sim/route.h), which it
// indexes itself; the public Simulate passes the grid-indexed matcher.
DisseminationStats Simulate(const core::SaProblem& problem,
                            const core::SaSolution& solution,
                            const std::vector<geo::Point>& events,
                            const SimulateOptions& options, Matcher* matcher);

}  // namespace detail

}  // namespace slp::sim

#endif  // SLP_SIM_DISSEMINATION_H_
