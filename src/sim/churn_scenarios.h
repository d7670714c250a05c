// Churn scenario generators for the lease-driven fault replay
// (DESIGN.md §13).
//
// Each generator builds a seeded, deterministic FaultPlan exercising one
// failure texture the lease-based detector has to survive:
//
//  * FlakyClients        — a fraction of subscribers bounce offline/online
//                          in repeated bouts. Long bouts expire leases;
//                          the returns arrive as reconnect storms that the
//                          (veto-aware) online placement has to absorb.
//  * AsymmetricPartition — a fraction of brokers lose only their heartbeat
//                          uplink for a window: events keep flowing, so
//                          every suspicion and death the detector derives
//                          is false — the premature-evacuation stress.
//  * SlowBrokers         — brokers that are alive but keep missing
//                          heartbeat deadlines: periodic short
//                          heartbeat-only mutes, the flappy middle ground
//                          between healthy and partitioned.
//  * SustainedChurn      — real crash/recover cycles spread over the whole
//                          stream (down/up only, so the same plan also
//                          replays crash-stop under the default oracle
//                          lease — the Q(T) inflation baseline comparison
//                          in bench/bench_churn.cc).
//
// All randomness comes from the caller's Rng; a given (topology, params,
// rng state) triple always yields the identical plan.

#ifndef SLP_SIM_CHURN_SCENARIOS_H_
#define SLP_SIM_CHURN_SCENARIOS_H_

#include "src/common/random.h"
#include "src/network/broker_tree.h"
#include "src/sim/fault_plan.h"

namespace slp::sim {

// ceil(flaky_fraction * num_clients) distinct clients each go offline
// `bouts` times at uniform positions, for `offline_events` events per
// bout (a bout whose end lands past the stream stays offline; bouts of
// one client may overlap — the last scheduled state at a tick wins).
FaultPlan FlakyClients(int num_clients, int num_events, double flaky_fraction,
                       int offline_events, int bouts, Rng& rng);

// ceil(mute_fraction * num_brokers) distinct brokers lose their heartbeat
// uplink over [at_event, at_event + duration_events); a window end past
// the stream leaves them muted to the end.
FaultPlan AsymmetricPartition(const net::BrokerTree& tree, int num_events,
                              int at_event, int duration_events,
                              double mute_fraction, Rng& rng);

// ceil(slow_fraction * num_brokers) distinct brokers miss heartbeats on a
// duty cycle: every `period_events` events (per-broker random phase) the
// broker goes heartbeat-mute for `mute_events` events.
FaultPlan SlowBrokers(const net::BrokerTree& tree, int num_events,
                      double slow_fraction, int period_events,
                      int mute_events, Rng& rng);

// ceil(churn_fraction * num_brokers) distinct brokers each crash and
// recover once per cycle window (the stream is split into `cycles` equal
// windows): down for `outage_events`, recoveries past the stream end are
// dropped (SeededRandom's stays-down contract). Down/up events only —
// meaningful under the oracle lease (crash-stop) and realistic leases
// alike.
FaultPlan SustainedChurn(const net::BrokerTree& tree, int num_events,
                         double churn_fraction, int outage_events,
                         int cycles, Rng& rng);

}  // namespace slp::sim

#endif  // SLP_SIM_CHURN_SCENARIOS_H_
