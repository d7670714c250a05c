#include "src/liveness/heartbeat.h"

#include "src/common/invariant.h"

namespace slp::liveness {

HeartbeatChannel::HeartbeatChannel(const net::BrokerTree* tree,
                                   int num_clients)
    : tree_(tree),
      down_(tree->num_nodes(), 0),
      muted_(tree->num_nodes(), 0),
      offline_(num_clients, 0) {
  SLP_DCHECK(tree_ != nullptr);
}

void HeartbeatChannel::SetBrokerDown(int node, bool down) {
  SLP_DCHECK(node > net::BrokerTree::kPublisher && node < tree_->num_nodes());
  const char next = down ? 1 : 0;
  if (down_[node] == next) return;
  down_[node] = next;
  num_down_ += down ? 1 : -1;
}

void HeartbeatChannel::SetBrokerMuted(int node, bool muted) {
  SLP_DCHECK(node > net::BrokerTree::kPublisher && node < tree_->num_nodes());
  muted_[node] = muted ? 1 : 0;
}

void HeartbeatChannel::SetClientOffline(int client, bool offline) {
  SLP_DCHECK(client >= 0 && client < static_cast<int>(offline_.size()));
  offline_[client] = offline ? 1 : 0;
}

bool HeartbeatChannel::BrokerHeartbeatDelivered(int v) const {
  SLP_DCHECK(v > net::BrokerTree::kPublisher && v < tree_->num_nodes());
  // The sender itself: a down broker emits nothing, a muted one loses the
  // first hop of everything it emits.
  if (down_[v] != 0 || muted_[v] != 0) return false;
  // First believed hop: the overlay parent for a believed-live broker, the
  // splice target (nearest believed-live ancestor) for a believed-dead one
  // announcing its recovery.
  for (int a = tree_->NearestLiveAncestor(v);
       a != net::BrokerTree::kPublisher; a = tree_->live_parent(a)) {
    if (down_[a] != 0 || muted_[a] != 0) return false;
  }
  return true;
}

bool HeartbeatChannel::ClientRefreshDelivered(int client, int leaf) const {
  SLP_DCHECK(client >= 0 && client < static_cast<int>(offline_.size()));
  if (offline_[client] != 0) return false;
  if (leaf < 0) return false;  // unplaced: nothing to refresh through
  return BrokerHeartbeatDelivered(leaf);
}

void HeartbeatChannel::UplinkVerdicts(std::vector<char>* delivered) const {
  const int n = tree_->num_nodes();
  delivered->resize(n);
  (*delivered)[net::BrokerTree::kPublisher] = 1;
  for (int v = 1; v < n; ++v) {
    if (down_[v] != 0 || muted_[v] != 0) {
      (*delivered)[v] = 0;
      continue;
    }
    // The first believed hop, as in BrokerHeartbeatDelivered; it precedes
    // v, so its verdict is already written.
    const int hop = tree_->is_failed(v) ? tree_->NearestLiveAncestor(v)
                                        : tree_->live_parent(v);
    (*delivered)[v] = (*delivered)[hop];
  }
}

}  // namespace slp::liveness
