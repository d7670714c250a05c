// Heartbeat transport model (DESIGN.md §13).
//
// Heartbeats and lease refreshes are simulated *messages*, not oracle
// flags: a broker's heartbeat travels hop by hop from the broker up the
// believed live overlay to the publisher (where the LivenessTracker
// listens), and a subscriber's lease refresh travels through its assigned
// leaf along the same path. The channel holds the ground truth the tracker
// never sees directly:
//
//  * down brokers    — actually crashed: forward neither heartbeats nor
//                      events. A down interior broker therefore silences
//                      its entire believed subtree, which is exactly why
//                      the tracker needs path-aware suspicion (the leaves
//                      under it look dead too, but only the path died);
//  * muted brokers   — the broker's *uplink* is cut for control traffic
//                      only (asymmetric partition, or a slow broker
//                      missing deadlines): heartbeats crossing the uplink
//                      are lost, but the broker is alive and events still
//                      flow down through it. Everything the tracker
//                      concludes about a muted broker is, by construction,
//                      a false suspicion;
//  * offline clients — a flaky subscriber stopped refreshing its lease
//                      (and stopped consuming deliveries).
//
// The believed path is derived from the BrokerTree's live overlay at call
// time: NearestLiveAncestor for the first hop (so a believed-dead broker
// that recovered can still announce itself to its splice target), then the
// live_parent chain. The publisher never fails and terminates every walk.
//
// UplinkVerdicts answers for every node at once, in one forward pass over
// node ids: a node's first hop precedes it, and every broker behind a hop
// shares that hop's verdict (a down or muted node delivers nothing; any
// other delivers iff its first hop does; the publisher delivers). The
// replay takes the verdicts once per tick and reads them for every
// heartbeat and refresh of the tick. A recovery applied between the pass
// and a read leaves the verdicts exact: the tracker recovers a broker only
// on its delivered heartbeat, so the broker spliced back into its
// descendants' paths is up and unmuted, and reaches the publisher over
// the very path they used before.

#ifndef SLP_LIVENESS_HEARTBEAT_H_
#define SLP_LIVENESS_HEARTBEAT_H_

#include <cstdint>
#include <vector>

#include "src/network/broker_tree.h"

namespace slp::liveness {

class HeartbeatChannel {
 public:
  // `tree` must outlive the channel. Clients are indexed 0..num_clients-1
  // by the caller (the replay uses stable client ids, not recycled
  // assigner handles).
  HeartbeatChannel(const net::BrokerTree* tree, int num_clients);

  // ---- Ground-truth mutation (driven by the fault/churn plan) ----
  void SetBrokerDown(int node, bool down);
  void SetBrokerMuted(int node, bool muted);
  void SetClientOffline(int client, bool offline);

  bool broker_down(int node) const { return down_[node] != 0; }
  bool broker_muted(int node) const { return muted_[node] != 0; }
  bool client_offline(int client) const { return offline_[client] != 0; }
  int num_down() const { return num_down_; }

  // ---- Deliverability at this instant ----

  // True iff a heartbeat emitted by broker `v` right now reaches the
  // publisher: v is up and unmuted, and so is every broker on the believed
  // path from v's nearest believed-live ancestor to the publisher. (A
  // muted hop loses the message too: the mute cuts that hop's uplink.)
  bool BrokerHeartbeatDelivered(int v) const;

  // True iff a lease refresh from `client`, whose subscription is placed
  // at `leaf` (< 0 = unplaced), reaches the publisher: the client is
  // online and the leaf's uplink chain delivers. An unplaced subscriber
  // has no leaf to refresh through, so the refresh is lost — the tracker
  // holds such leases instead of expiring them (see LivenessTracker).
  bool ClientRefreshDelivered(int client, int leaf) const;

  // Every node's uplink verdict, by node id, into `delivered` (resized to
  // num_nodes): delivered[v] == BrokerHeartbeatDelivered(v) for every
  // broker v, and delivered[kPublisher] is true. A placed, online client's
  // refresh is delivered iff delivered[leaf] is.
  void UplinkVerdicts(std::vector<char>* delivered) const;

 private:
  const net::BrokerTree* tree_;
  std::vector<char> down_;
  std::vector<char> muted_;
  std::vector<char> offline_;
  int num_down_ = 0;
};

}  // namespace slp::liveness

#endif  // SLP_LIVENESS_HEARTBEAT_H_
