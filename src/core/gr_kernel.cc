#include "src/core/gr_kernel.h"

#include <algorithm>
#include <limits>

namespace slp::core {

double LeastEnlargement(const std::vector<geo::Rectangle>& rects,
                        const geo::Rectangle& sub, double sub_volume,
                        int alpha) {
  double best = std::numeric_limits<double>::infinity();
  for (const auto& r : rects) best = std::min(best, r.EnlargementTo(sub));
  if (static_cast<int>(rects.size()) < alpha) {
    best = std::min(best, sub_volume);
  }
  return best;
}

Status Incorporate(const geo::Rectangle& sub, int alpha,
                   std::vector<geo::Rectangle>* rects) {
  double best = std::numeric_limits<double>::infinity();
  int arg = -1;
  for (size_t i = 0; i < rects->size(); ++i) {
    const double c = (*rects)[i].EnlargementTo(sub);
    if (c < best) {
      best = c;
      arg = static_cast<int>(i);
    }
  }
  if (static_cast<int>(rects->size()) < alpha && sub.Volume() < best) {
    rects->push_back(sub);
    return Status::OK();
  }
  if (arg < 0) {
    // Only reachable with a non-positive α (no rectangle may exist, none
    // does): a config error reported as a status, not an abort.
    return Status::Infeasible("filter complexity alpha must be >= 1");
  }
  (*rects)[arg].Enclose(sub);
  return Status::OK();
}

Status GrowLivePath(const net::BrokerTree& tree, int leaf,
                    const geo::Rectangle& sub, int alpha,
                    FilterTable* filters) {
  for (int v = leaf; v != net::BrokerTree::kPublisher;
       v = tree.live_parent(v)) {
    SLP_RETURN_IF_ERROR(Incorporate(sub, alpha, &(*filters)[v]));
  }
  return Status::OK();
}

void GrKernel::Start(const net::BrokerTree& tree, const FilterTable& filters,
                     int alpha, const geo::Rectangle& sub) {
  tree_ = &tree;
  filters_ = &filters;
  sub_ = &sub;
  alpha_ = alpha;
  sub_volume_ = sub.Volume();
  const size_t n = tree.num_nodes();
  if (priced_in_.size() != n) {
    priced_in_.assign(n, 0);
    cost_.resize(n);
    dist_.resize(n);
  }
  ++session_;  // sessions start at 1, so no stale stamp matches
}

double GrKernel::Cost(int leaf) {
  if (priced_in_[leaf] != session_) ++leaf_costs_;
  return NodeCost(leaf);
}

double GrKernel::NodeCost(int node) {
  if (node == net::BrokerTree::kPublisher) return 0;
  if (priced_in_[node] == session_) return cost_[node];
  // The same left-to-right sum as `cost += c_v` walking root to leaf.
  cost_[node] = NodeCost(tree_->live_parent(node)) +
                LeastEnlargement((*filters_)[node], *sub_, sub_volume_,
                                 alpha_);
  priced_in_[node] = session_;
  return cost_[node];
}

void GrKernel::MeasureLatency(const SaConfig& config,
                              const geo::Point& location) {
  last_hop_ = config.latency_mode == LatencyMode::kLastHop;
  // Δ as BrokerTree::ShortestLatency (kPath) or SaProblem (kLastHop)
  // computes it: the same terms, minimized in static leaf order.
  double best = std::numeric_limits<double>::infinity();
  for (int leaf : tree_->leaf_brokers()) {
    dist_[leaf] = geo::Distance(tree_->location(leaf), location);
    best = std::min(best, last_hop_ ? dist_[leaf]
                                    : tree_->PathLatencyFromRoot(leaf) +
                                          dist_[leaf]);
  }
  bound_ = (1.0 + config.max_delay) * best;
}

}  // namespace slp::core
