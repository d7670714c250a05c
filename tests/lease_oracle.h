// A reference lease tracker: the LivenessTracker state machine computed the
// direct way, from public accessors only. Each Tick
//
//  * counts a lease's missed windows by integer division,
//    floor((now − last_heard) / interval);
//  * finds a broker's held status by walking its believed ancestors
//    (live_parent) up to the publisher;
//  * reads every tracked client's leaf and decides freeze or expiry for
//    it in one pass, in increasing client id.
//
// It drives its own assigner (FailBroker, RecoverBroker, Remove) and
// installs the same suspect-leaf placement veto, so a test can run it
// beside a LivenessTracker on an identical assigner and require the two to
// agree on every report, lease and placement (liveness_test.cc).

#ifndef SLP_TESTS_LEASE_ORACLE_H_
#define SLP_TESTS_LEASE_ORACLE_H_

#include <cstdint>
#include <vector>

#include "src/core/dynamic.h"
#include "src/liveness/liveness_tracker.h"
#include "src/network/broker_tree.h"

namespace slp::liveness {

class LeaseOracle {
 public:
  LeaseOracle(core::DynamicAssigner* dyn, LeaseConfig config, int64_t now)
      : dyn_(dyn), config_(config), brokers_(dyn->tree().num_nodes()) {
    for (int v = 0; v < dyn_->tree().num_nodes(); ++v) {
      brokers_[v].last_heard = now;
      if (v > 0 && dyn_->tree().is_failed(v)) {
        brokers_[v].state = LivenessState::kDead;
      }
    }
    if (config_.suspect_blocks_placement) {
      dyn_->set_placement_veto([this](int leaf) {
        return brokers_[leaf].state != LivenessState::kAlive;
      });
    }
  }
  ~LeaseOracle() {
    if (config_.suspect_blocks_placement) dyn_->set_placement_veto({});
  }
  LeaseOracle(const LeaseOracle&) = delete;
  LeaseOracle& operator=(const LeaseOracle&) = delete;

  HeardKind HeardBroker(int node, int64_t now) {
    Lease& b = brokers_[node];
    b.last_heard = now;
    switch (b.state) {
      case LivenessState::kAlive:
        return HeardKind::kRefresh;
      case LivenessState::kSuspect:
        b.state = LivenessState::kAlive;
        return HeardKind::kUnsuspected;
      case LivenessState::kDead:
        (void)dyn_->RecoverBroker(node);
        b.state = LivenessState::kAlive;
        return HeardKind::kRecovered;
    }
    return HeardKind::kRefresh;
  }

  void HeardSubscriber(int client, int64_t now) {
    if (IsTracked(client)) clients_[client].last_heard = now;
  }
  void TrackSubscriber(int client, int handle, int64_t now) {
    if (client >= static_cast<int>(clients_.size())) {
      clients_.resize(client + 1);
    }
    clients_[client] = Client{handle, now};
  }
  void ForgetSubscriber(int client) {
    if (IsTracked(client)) clients_[client].handle = -1;
  }
  bool IsTracked(int client) const {
    return client >= 0 && client < static_cast<int>(clients_.size()) &&
           clients_[client].handle >= 0;
  }
  int handle_of(int client) const {
    return IsTracked(client) ? clients_[client].handle : -1;
  }
  int64_t client_last_heard(int client) const {
    return clients_[client].last_heard;
  }
  LivenessState broker_state(int node) const { return brokers_[node].state; }
  int64_t last_heard(int node) const { return brokers_[node].last_heard; }

  TickReport Tick(int64_t now) {
    const net::BrokerTree& tree = dyn_->tree();
    const int n = tree.num_nodes();
    TickReport report;
    std::vector<char> silent(n, 0);
    std::vector<char> held(n, 0);
    for (int v = 1; v < n; ++v) {
      if (brokers_[v].state == LivenessState::kDead) continue;
      const int64_t misses =
          (now - brokers_[v].last_heard) / config_.heartbeat_interval;
      silent[v] = misses >= config_.miss_suspect ? 1 : 0;
    }
    for (int v = 1; v < n; ++v) {
      if (brokers_[v].state == LivenessState::kDead) continue;
      for (int a = tree.live_parent(v); a != net::BrokerTree::kPublisher;
           a = tree.live_parent(a)) {
        if (silent[a] != 0) {
          held[v] = 1;
          break;
        }
      }
    }
    for (int v = 1; v < n; ++v) {
      Lease& b = brokers_[v];
      if (b.state == LivenessState::kDead || silent[v] == 0) continue;
      const int64_t misses = (now - b.last_heard) / config_.heartbeat_interval;
      if (misses >= config_.miss_dead) {
        if (held[v] != 0) {
          ++report.deaths_deferred;
          if (b.state == LivenessState::kAlive) {
            b.state = LivenessState::kSuspect;
            report.new_suspects.push_back(v);
          }
          continue;
        }
        b.state = LivenessState::kDead;
        (void)dyn_->FailBroker(v);
        report.declared_dead.push_back(v);
      } else if (b.state == LivenessState::kAlive) {
        b.state = LivenessState::kSuspect;
        report.new_suspects.push_back(v);
      }
    }
    if (!report.declared_dead.empty()) {
      for (int v = 1; v < n; ++v) {
        if (held[v] == 0 || brokers_[v].state == LivenessState::kDead) {
          continue;
        }
        for (int a = tree.parent(v); a != net::BrokerTree::kPublisher;
             a = tree.parent(a)) {
          if (silent[a] != 0 && brokers_[a].state == LivenessState::kDead) {
            brokers_[v].last_heard = now;
            break;
          }
        }
      }
    }
    for (int client = 0; client < static_cast<int>(clients_.size()); ++client) {
      Client& c = clients_[client];
      if (c.handle < 0) continue;
      const int leaf = dyn_->leaf_of(c.handle);
      if (leaf < 0 || brokers_[leaf].state != LivenessState::kAlive ||
          silent[leaf] != 0 || held[leaf] != 0) {
        c.last_heard = now;
        continue;
      }
      const int64_t misses = (now - c.last_heard) / config_.subscriber_interval;
      if (misses >= config_.subscriber_miss_dead) {
        report.expired.push_back(ExpiredLease{client, c.handle});
        (void)dyn_->Remove(c.handle);
        c.handle = -1;
      }
    }
    return report;
  }

 private:
  struct Lease {
    LivenessState state = LivenessState::kAlive;
    int64_t last_heard = 0;
  };
  struct Client {
    int handle = -1;
    int64_t last_heard = 0;
  };

  core::DynamicAssigner* dyn_;
  LeaseConfig config_;
  std::vector<Lease> brokers_;
  std::vector<Client> clients_;
};

}  // namespace slp::liveness

#endif  // SLP_TESTS_LEASE_ORACLE_H_
