// Soft-state liveness: leases, suspicion, and tracker-driven repair
// (DESIGN.md §13).
//
// The LivenessTracker is the publisher-side failure detector. It never
// sees ground truth: everything it believes about the deployment is
// derived from which heartbeats and lease refreshes *arrived* (the replay
// feeds it via HeardBroker/HeardSubscriber after asking the
// HeartbeatChannel what got through), plus a logical clock threaded
// through Tick. The believed overlay — the BrokerTree failure state owned
// by the DynamicAssigner — is mutated by the tracker and nobody else:
// a death declaration calls DynamicAssigner::FailBroker (which splices or
// orphans), and a heartbeat from a believed-dead broker calls
// RecoverBroker. Detection latency, false suspicion, and premature
// evacuation thereby stop being scripted inputs and become measured
// outputs of the lease parameters.
//
// Per-broker lease state machine (misses = floor((now − last_heard) /
// heartbeat_interval), compared as windows: misses ≥ k iff now −
// last_heard ≥ heartbeat_interval × k, the product saturated at
// INT64_MAX):
//
//        misses ≥ miss_suspect            misses ≥ miss_dead, not held
//   alive ────────────────────▶ suspect ─────────────────────▶ dead
//     ▲                           │  ▲                           │
//     └── heartbeat arrives ──────┘  └── heartbeat arrives ──────┘
//                                        (RecoverBroker, lease restarts)
//
// Path-aware suspicion (the "held" rule): a silent broker whose believed
// ancestor chain contains another silent broker is *held* — it may become
// suspect but is never declared dead that tick, because its silence is
// explained by the path (a dead interior broker silences its whole
// subtree). Only the topmost silent broker of a silent chain can die.
// When it dies and the overlay splices, the leases of every broker it was
// holding restart (last_heard = now), giving them a full window to prove
// themselves over the repaired path before the detector may condemn them.
// This is what distinguishes "leaf died" from "path died" and bounds the
// premature mass-evacuation a single interior crash could otherwise cause.
//
// Tick is two-phase for the same reason: phase 1 computes silence and
// holds for every broker against the believed overlay *at tick start*;
// phase 2 applies transitions in increasing node id. Without the split, a
// parent's death applied mid-scan would splice the overlay and un-hold its
// children within the same tick, evacuating an entire subtree on one
// timeout. Phase 1 is one forward pass over node ids: held[v] =
// silent[p] || held[p] for p = live_parent(v), which BrokerTree keeps
// below v.
//
// Subscriber leases are simpler (no hierarchy below a client): a client
// whose refreshes stop arriving is removed (DynamicAssigner::Remove) after
// subscriber_miss_dead missed windows — unless the silence is explained
// upstream: while the client's subscription is unplaced (orphaned/parked)
// or its leaf is suspect/held/silent, the lease is frozen at now. A crowd
// of orphans never mass-expires just because their leaf crashed.
//
// Tick costs O(brokers + tracked leases). Its client phase is two passes:
// a freeze pass, which reads every tracked client's leaf from the
// assigner and runs only on ticks where a leaf holding subscribers is on
// hold or some subscriber is unplaced, then an expiry pass over the lease
// table alone. They decide what one pass over the clients would: Remove
// changes no other subscriber's leaf and no hold.
//
// Concurrency (DESIGN.md §15): the tracker is deliberately NOT a shared
// capability — it is thread-confined to the control loop that owns it
// (the replay driver, or a deployment's single control thread), the same
// confinement domain as the DynamicAssigner it mutates. Nothing here may
// be called from pool workers; the pool parallelism the tracker triggers
// indirectly (a death → repair → Reoptimize → SLP shards) happens *below*
// a blocking call, after which control returns to the single owner. That
// confinement, not a lock, is the contract — so the class carries no
// mutex and the thread-safety analysis has nothing to check here.
//
// Suspicion-aware placement: when suspect_blocks_placement is set the
// tracker installs a placement veto on the assigner (suspect leaves stop
// receiving new placements; see DynamicAssigner::set_placement_veto for
// the advisory rule). Existing subscribers of a suspect leaf are NOT
// evacuated — evacuation happens only on a death declaration, via the
// orphan path.

#ifndef SLP_LIVENESS_LIVENESS_TRACKER_H_
#define SLP_LIVENESS_LIVENESS_TRACKER_H_

#include <cstdint>
#include <vector>

#include "src/core/dynamic.h"

namespace slp::liveness {

struct LeaseConfig {
  // Logical ticks between heartbeats of one broker (staggered by node id
  // in the replay so heartbeats do not arrive in bursts).
  int64_t heartbeat_interval = 4;
  // Missed windows before a broker turns suspect / may be declared dead.
  int miss_suspect = 2;
  int miss_dead = 4;
  // Same for subscriber lease refreshes (clients have no suspect state:
  // nothing is placed *on* a client, so the only decision is expiry).
  int64_t subscriber_interval = 8;
  int subscriber_miss_dead = 4;
  // Install the suspect-leaf placement veto on the assigner.
  bool suspect_blocks_placement = true;
};

enum class LivenessState {
  kAlive,
  kSuspect,
  kDead,
};

const char* ToString(LivenessState state);

// What a delivered broker heartbeat meant to the tracker.
enum class HeardKind {
  kRefresh,      // routine: lease renewed
  kUnsuspected,  // a suspect proved itself alive again
  kRecovered,    // a believed-dead broker came back (RecoverBroker called)
};

// A subscriber lease that expired this tick: the client id and the
// assigner handle that was removed (and may be recycled by a later Add).
struct ExpiredLease {
  int client = -1;
  int handle = -1;
};

// Believed-state transitions applied by one Tick, for caller-side
// attribution against ground truth (false suspicions, detection latency).
struct TickReport {
  std::vector<int> new_suspects;      // alive -> suspect this tick
  std::vector<int> declared_dead;     // -> dead (FailBroker called)
  std::vector<ExpiredLease> expired;  // client leases expired (Remove called)
  // Death declarations deferred by the held rule this tick (a silent
  // broker at ≥ miss_dead whose believed path is also silent).
  int deaths_deferred = 0;
};

class LivenessTracker {
 public:
  // Starts tracking every broker of `assigner`'s tree as alive with a
  // fresh lease at logical time `now`. `assigner` must outlive the
  // tracker. Installs the placement veto if configured; the destructor
  // clears it.
  LivenessTracker(core::DynamicAssigner* assigner, LeaseConfig config,
                  int64_t now);
  ~LivenessTracker();

  LivenessTracker(const LivenessTracker&) = delete;
  LivenessTracker& operator=(const LivenessTracker&) = delete;

  // A broker heartbeat arrived. Renews the lease; un-suspects a suspect;
  // recovers a believed-dead broker (DynamicAssigner::RecoverBroker — the
  // broker rejoins empty and placement resumes).
  HeardKind HeardBroker(int node, int64_t now);

  // A lease refresh from a tracked client arrived. A refresh from an
  // untracked id (expired, never tracked, negative) is ignored.
  void HeardSubscriber(int client, int64_t now);

  // Registers / deregisters a client lease. Track on arrival (after the
  // assigner admitted the subscriber under `handle`); Forget on voluntary
  // departure (the caller removes the subscriber itself). client ids are
  // caller-assigned, non-negative and stable — they are never recycled
  // the way assigner handles are — and index a dense table, so keep them
  // compact (0..n-1).
  void TrackSubscriber(int client, int handle, int64_t now);
  void ForgetSubscriber(int client);
  bool IsTracked(int client) const {
    return client >= 0 && client < static_cast<int>(clients_.size()) &&
           clients_[client].handle >= 0;
  }

  // Advances the failure detector to logical time `now` (monotone,
  // non-decreasing across calls): applies the lease state machine to
  // every broker (two-phase, path-aware — see file comment) and every
  // client lease, driving FailBroker / Remove as transitions fire.
  TickReport Tick(int64_t now);

  // ---- Inspection ----
  LivenessState broker_state(int node) const {
    return brokers_[node].state;
  }
  int64_t last_heard(int node) const { return brokers_[node].last_heard; }
  // Logical time of a tracked client's last refresh or freeze.
  int64_t client_last_heard(int client) const {
    return clients_[client].last_heard;
  }
  int num_suspect() const;
  int num_believed_dead() const;
  int num_tracked_clients() const { return num_tracked_; }
  // Assigner handle of a tracked client (-1 if untracked).
  int handle_of(int client) const {
    return IsTracked(client) ? clients_[client].handle : -1;
  }
  const LeaseConfig& config() const { return config_; }
  const core::DynamicAssigner& assigner() const { return *dyn_; }

  // Tracked (client, handle) pairs in increasing client id — the audit
  // surface (src/liveness/audit.h).
  std::vector<ExpiredLease> TrackedClients() const;

 private:
  struct BrokerLease {
    LivenessState state = LivenessState::kAlive;
    int64_t last_heard = 0;
  };
  struct ClientLease {
    int handle = -1;  // -1: untracked
    int64_t last_heard = 0;
  };

  core::DynamicAssigner* dyn_;
  LeaseConfig config_;
  // Elapsed logical time at which a lease has missed miss_suspect,
  // miss_dead and subscriber_miss_dead windows.
  int64_t suspect_window_ = 0;
  int64_t dead_window_ = 0;
  int64_t client_window_ = 0;
  bool veto_installed_ = false;
  std::vector<BrokerLease> brokers_;  // by node id; [0] (publisher) unused
  // Tick's per-node scratch, by node id: silent and held as of tick start
  // (phase 1), and hold_[v + 1] — a lease on leaf v is frozen this tick;
  // hold_[0] stands for an unplaced subscription (leaf -1).
  std::vector<char> silent_;
  std::vector<char> held_;
  std::vector<char> hold_;
  // Leases by client id. Tick scans it in increasing client id, and that
  // order is part of the determinism contract (DESIGN.md §10).
  std::vector<ClientLease> clients_;
  int num_tracked_ = 0;
};

}  // namespace slp::liveness

#endif  // SLP_LIVENESS_LIVENESS_TRACKER_H_
