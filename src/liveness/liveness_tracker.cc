#include "src/liveness/liveness_tracker.h"

#include <limits>
#include <string>

#include "src/common/invariant.h"
#include "src/liveness/audit.h"

namespace slp::liveness {

using net::BrokerTree;

namespace {

// interval × misses, the elapsed time at which `misses` whole windows are
// missed: floor(elapsed / interval) ≥ misses iff elapsed ≥ interval ×
// misses, for positive interval and misses. A product past INT64_MAX
// saturates (the oracle lease's client interval is INT64_MAX), so no
// elapsed time short of INT64_MAX fills that window.
int64_t MissWindow(int64_t interval, int64_t misses) {
  int64_t window = 0;
  if (__builtin_mul_overflow(interval, misses, &window)) {
    return std::numeric_limits<int64_t>::max();
  }
  return window;
}

}  // namespace

const char* ToString(LivenessState state) {
  switch (state) {
    case LivenessState::kAlive:
      return "ALIVE";
    case LivenessState::kSuspect:
      return "SUSPECT";
    case LivenessState::kDead:
      return "DEAD";
  }
  return "?";
}

LivenessTracker::LivenessTracker(core::DynamicAssigner* assigner,
                                 LeaseConfig config, int64_t now)
    : dyn_(assigner), config_(config) {
  SLP_DCHECK(dyn_ != nullptr);
  SLP_DCHECK(config_.heartbeat_interval > 0 && config_.miss_suspect > 0);
  SLP_DCHECK(config_.miss_dead >= config_.miss_suspect);
  SLP_DCHECK(config_.subscriber_interval > 0 &&
             config_.subscriber_miss_dead > 0);
  suspect_window_ = MissWindow(config.heartbeat_interval, config.miss_suspect);
  dead_window_ = MissWindow(config.heartbeat_interval, config.miss_dead);
  client_window_ =
      MissWindow(config.subscriber_interval, config.subscriber_miss_dead);
  const int n = dyn_->tree().num_nodes();
  brokers_.resize(n);
  silent_.assign(n, 0);
  held_.assign(n, 0);
  hold_.assign(n + 1, 0);
  hold_[0] = 1;  // an unplaced subscription's lease is always on hold
  for (BrokerLease& b : brokers_) b.last_heard = now;
  // The tracker starts believing what the overlay already says: brokers
  // failed before tracking began stay believed-dead until they heartbeat.
  for (int v = 1; v < dyn_->tree().num_nodes(); ++v) {
    if (dyn_->tree().is_failed(v)) brokers_[v].state = LivenessState::kDead;
  }
  if (config_.suspect_blocks_placement) {
    dyn_->set_placement_veto([this](int leaf) {
      return brokers_[leaf].state != LivenessState::kAlive;
    });
    veto_installed_ = true;
  }
}

LivenessTracker::~LivenessTracker() {
  if (veto_installed_) dyn_->set_placement_veto({});
}

HeardKind LivenessTracker::HeardBroker(int node, int64_t now) {
  SLP_DCHECK(node > BrokerTree::kPublisher &&
             node < static_cast<int>(brokers_.size()));
  BrokerLease& b = brokers_[node];
  b.last_heard = now;
  switch (b.state) {
    case LivenessState::kAlive:
      return HeardKind::kRefresh;
    case LivenessState::kSuspect:
      b.state = LivenessState::kAlive;
      return HeardKind::kUnsuspected;
    case LivenessState::kDead: {
      const Status recovered = dyn_->RecoverBroker(node);
      SLP_DCHECK(recovered.ok());
      b.state = LivenessState::kAlive;
      return HeardKind::kRecovered;
    }
  }
  return HeardKind::kRefresh;
}

void LivenessTracker::HeardSubscriber(int client, int64_t now) {
  if (!IsTracked(client)) return;
  clients_[client].last_heard = now;
}

void LivenessTracker::TrackSubscriber(int client, int handle, int64_t now) {
  SLP_DCHECK(client >= 0 && !IsTracked(client));
  SLP_DCHECK(handle >= 0 && dyn_->is_occupied(handle));
  if (client < 0 || handle < 0) return;
  if (client >= static_cast<int>(clients_.size())) {
    clients_.resize(client + 1);
  }
  if (clients_[client].handle < 0) ++num_tracked_;
  clients_[client] = ClientLease{handle, now};
}

void LivenessTracker::ForgetSubscriber(int client) {
  if (!IsTracked(client)) return;
  clients_[client].handle = -1;
  --num_tracked_;
}

TickReport LivenessTracker::Tick(int64_t now) {
  const BrokerTree& tree = dyn_->tree();
  const int n = tree.num_nodes();
  TickReport report;

  // Phase 1: silence and holds, all computed against the believed overlay
  // as it stands at tick start. silent[v] — v's own lease has missed ≥
  // miss_suspect windows; held[v] — some broker on v's believed ancestor
  // chain is silent, so v's silence proves nothing about v. The chain is
  // read in one forward pass: live_parent(v) < v (BrokerTree), so v's
  // parent is settled before v, and the publisher (index 0) is never
  // silent or held.
  for (int v = 1; v < n; ++v) {
    silent_[v] = held_[v] = 0;
    if (brokers_[v].state == LivenessState::kDead) continue;
    silent_[v] = now - brokers_[v].last_heard >= suspect_window_ ? 1 : 0;
    const int p = tree.live_parent(v);
    SLP_DCHECK(p >= 0);  // believed alive, so live in the overlay
    held_[v] = silent_[p] != 0 || held_[p] != 0 ? 1 : 0;
  }

  // Phase 2: apply broker transitions in increasing node id (parents come
  // before children by AddBroker ordering). The held rule keeps a death
  // from cascading: only the topmost silent broker of a chain dies.
  for (int v = 1; v < n; ++v) {
    BrokerLease& b = brokers_[v];
    if (b.state == LivenessState::kDead || silent_[v] == 0) continue;
    if (now - b.last_heard >= dead_window_) {
      if (held_[v] != 0) {
        ++report.deaths_deferred;
        if (b.state == LivenessState::kAlive) {
          b.state = LivenessState::kSuspect;
          report.new_suspects.push_back(v);
        }
        continue;
      }
      b.state = LivenessState::kDead;
      const Status failed = dyn_->FailBroker(v);
      SLP_DCHECK(failed.ok());
      report.declared_dead.push_back(v);
    } else if (b.state == LivenessState::kAlive) {
      b.state = LivenessState::kSuspect;
      report.new_suspects.push_back(v);
    }
  }

  // Lease restarts after a splice: a broker that was held by a silent
  // ancestor which just died gets a fresh window — its heartbeats can now
  // reach us over the repaired path, and condemning it on misses accrued
  // while the path was down would be exactly the premature evacuation the
  // held rule exists to prevent. (The static ancestor chain is a superset
  // of the believed chain; a phase-1-silent node was believed-live then,
  // so finding it kDead now means it died this tick.)
  if (!report.declared_dead.empty()) {
    for (int v = 1; v < n; ++v) {
      if (held_[v] == 0 || brokers_[v].state == LivenessState::kDead) {
        continue;
      }
      for (int a = tree.parent(v); a != BrokerTree::kPublisher;
           a = tree.parent(a)) {
        if (silent_[a] != 0 && brokers_[a].state == LivenessState::kDead) {
          brokers_[v].last_heard = now;
          break;
        }
      }
    }
  }

  // Phase 3: client leases. A lease only runs while its silence is
  // unexplained: an unplaced subscription has no leaf to refresh through,
  // and a suspect/held/silent leaf means the *path* is in question — in
  // both cases the lease freezes at now instead of ticking toward expiry.
  for (int v = 1; v < n; ++v) {
    const bool on_hold = brokers_[v].state != LivenessState::kAlive ||
                         silent_[v] != 0 || held_[v] != 0;
    hold_[v + 1] = on_hold ? 1 : 0;
  }
  // Freeze pass, needed only when some subscriber is on hold: placed at a
  // leaf on hold (its load counts it), or unplaced (population counts it,
  // the loads do not).
  const std::vector<int>& leaves = tree.leaf_brokers();
  const std::vector<int>& loads = dyn_->loads();
  int placed = 0;
  bool any_on_hold = false;
  for (size_t i = 0; i < leaves.size(); ++i) {
    placed += loads[i];
    if (loads[i] > 0 && hold_[leaves[i] + 1] != 0) any_on_hold = true;
  }
  if (any_on_hold || dyn_->population() > placed) {
    for (ClientLease& c : clients_) {
      if (c.handle >= 0 && hold_[dyn_->leaf_of(c.handle) + 1] != 0) {
        c.last_heard = now;
      }
    }
  }
  // Expiry pass, increasing client id (the report's order). Removing one
  // subscriber moves no other's leaf and changes no hold, so the freeze
  // pass above decided what a single interleaved pass would.
  for (int client = 0; client < static_cast<int>(clients_.size()); ++client) {
    ClientLease& c = clients_[client];
    if (c.handle < 0 || now - c.last_heard < client_window_) continue;
    SLP_AUDIT_CHECK(audit::Category::kLiveness, dyn_->is_occupied(c.handle),
                    "client " + std::to_string(client) +
                        ": expiring lease points at vacant handle " +
                        std::to_string(c.handle));
    report.expired.push_back(ExpiredLease{client, c.handle});
    const Status removed = dyn_->Remove(c.handle);
    SLP_DCHECK(removed.ok());
    c.handle = -1;
    --num_tracked_;
  }

#if SLP_AUDITS_ENABLED
  AuditLiveness(*this);
#endif
  return report;
}

int LivenessTracker::num_suspect() const {
  int count = 0;
  for (size_t v = 1; v < brokers_.size(); ++v) {
    if (brokers_[v].state == LivenessState::kSuspect) ++count;
  }
  return count;
}

int LivenessTracker::num_believed_dead() const {
  int count = 0;
  for (size_t v = 1; v < brokers_.size(); ++v) {
    if (brokers_[v].state == LivenessState::kDead) ++count;
  }
  return count;
}

std::vector<ExpiredLease> LivenessTracker::TrackedClients() const {
  std::vector<ExpiredLease> out;
  out.reserve(num_tracked_);
  for (int client = 0; client < static_cast<int>(clients_.size()); ++client) {
    if (clients_[client].handle >= 0) {
      out.push_back(ExpiredLease{client, clients_[client].handle});
    }
  }
  return out;
}

}  // namespace slp::liveness
