#include "src/network/broker_tree.h"

#include <algorithm>
#include <limits>

#include "src/common/invariant.h"
#include "src/common/status.h"

namespace slp::net {

BrokerTree::BrokerTree(geo::Point publisher_location) {
  parent_.push_back(-1);
  children_.emplace_back();
  location_.push_back(std::move(publisher_location));
}

int BrokerTree::AddBroker(geo::Point location, int parent) {
  SLP_DCHECK(!finalized_);
  SLP_DCHECK(parent >= 0 && parent < num_nodes());
  SLP_DCHECK(location.size() == location_[0].size());
  const int id = num_nodes();
  parent_.push_back(parent);
  children_.emplace_back();
  location_.push_back(std::move(location));
  children_[parent].push_back(id);
  return id;
}

void BrokerTree::Finalize() {
  SLP_DCHECK(!finalized_);
  SLP_DCHECK(num_brokers() > 0);
  finalized_ = true;
  root_latency_.assign(num_nodes(), 0.0);
  // Nodes are created parent-before-child, so a forward pass suffices.
  for (int v = 1; v < num_nodes(); ++v) {
    const int p = parent_[v];
    SLP_DCHECK(p < v);
    root_latency_[v] =
        root_latency_[p] + geo::Distance(location_[p], location_[v]);
  }
  leaves_.clear();
  for (int v = 1; v < num_nodes(); ++v) {
    if (children_[v].empty()) leaves_.push_back(v);
  }
  // Flat subtree-leaf table. One global DFS in the order the historical
  // per-node walk used (explicit stack, children pushed in order and
  // popped last-first) makes every subtree's leaves a contiguous slice of
  // subtree_leaves_ with the same within-subtree order the old per-call
  // enumeration produced — the order downstream FP capacity sums depend
  // on. Spans are then closed bottom-up (children have larger ids than
  // their parent, so a reverse id pass visits children first).
  subtree_leaves_.clear();
  subtree_leaves_.reserve(leaves_.size());
  subtree_leaf_begin_.assign(num_nodes(), 0);
  subtree_leaf_end_.assign(num_nodes(), 0);
  {
    std::vector<int> stack = {kPublisher};
    while (!stack.empty()) {
      const int v = stack.back();
      stack.pop_back();
      if (is_leaf(v)) {
        subtree_leaf_begin_[v] = static_cast<int>(subtree_leaves_.size());
        subtree_leaves_.push_back(v);
        subtree_leaf_end_[v] = static_cast<int>(subtree_leaves_.size());
      } else {
        for (int c : children_[v]) stack.push_back(c);
      }
    }
    SLP_DCHECK(subtree_leaves_.size() == leaves_.size());
    for (int v = num_nodes() - 1; v >= 0; --v) {
      if (is_leaf(v)) continue;
      int begin = static_cast<int>(subtree_leaves_.size());
      int end = 0;
      int total = 0;
      for (int c : children_[v]) {
        begin = std::min(begin, subtree_leaf_begin_[c]);
        end = std::max(end, subtree_leaf_end_[c]);
        total += subtree_leaf_end_[c] - subtree_leaf_begin_[c];
      }
      subtree_leaf_begin_[v] = begin;
      subtree_leaf_end_[v] = end;
      SLP_DCHECK(end - begin == total);  // subtree slices are contiguous
    }
  }
  failed_.assign(num_nodes(), false);
  RebuildLiveOverlay();
}

Status BrokerTree::FailBroker(int node) {
  SLP_DCHECK(finalized_);
  if (node <= kPublisher || node >= num_nodes()) {
    return Status::InvalidArgument("FailBroker: node " + std::to_string(node) +
                                   " is not a broker");
  }
  if (failed_[node]) {
    return Status::InvalidArgument("FailBroker: node " + std::to_string(node) +
                                   " already failed");
  }
  failed_[node] = true;
  ++num_failed_;
  RebuildLiveOverlay();
  return Status::OK();
}

Status BrokerTree::RecoverBroker(int node) {
  SLP_DCHECK(finalized_);
  if (node <= kPublisher || node >= num_nodes() || !failed_[node]) {
    return Status::InvalidArgument("RecoverBroker: node " +
                                   std::to_string(node) + " is not failed");
  }
  failed_[node] = false;
  --num_failed_;
  RebuildLiveOverlay();
  return Status::OK();
}

void BrokerTree::RebuildLiveOverlay() {
  live_parent_.assign(num_nodes(), -1);
  live_children_.assign(num_nodes(), {});
  live_root_latency_.assign(num_nodes(), 0.0);
  live_leaves_.clear();
  // Nodes are created parent-before-child and splicing only moves a node
  // upward, so live_parent_[v] < v and a forward pass suffices.
  for (int v = 1; v < num_nodes(); ++v) {
    if (failed_[v]) continue;
    int p = parent_[v];
    while (p != kPublisher && failed_[p]) p = parent_[p];
    live_parent_[v] = p;
    live_children_[p].push_back(v);
    live_root_latency_[v] =
        live_root_latency_[p] + geo::Distance(location_[p], location_[v]);
  }
  for (int leaf : leaves_) {
    if (!failed_[leaf]) live_leaves_.push_back(leaf);
  }
}

int BrokerTree::NearestLiveAncestor(int node) const {
  SLP_DCHECK(finalized_);
  SLP_DCHECK(node > kPublisher && node < num_nodes());
  int p = parent_[node];
  while (p != kPublisher && failed_[p]) p = parent_[p];
  return p;
}

std::vector<int> BrokerTree::LivePathFromRoot(int node) const {
  SLP_DCHECK(finalized_);
  SLP_DCHECK(!failed_[node]);
  std::vector<int> path;
  for (int v = node; v != -1; v = live_parent_[v]) path.push_back(v);
  std::reverse(path.begin(), path.end());
  return path;
}

std::vector<int> BrokerTree::broker_nodes() const {
  std::vector<int> out;
  out.reserve(num_brokers());
  for (int v = 1; v < num_nodes(); ++v) out.push_back(v);
  return out;
}

std::vector<int> BrokerTree::PathFromRoot(int node) const {
  std::vector<int> path;
  for (int v = node; v != -1; v = parent_[v]) path.push_back(v);
  std::reverse(path.begin(), path.end());
  return path;
}

double BrokerTree::LatencyVia(int leaf, const geo::Point& sub_location) const {
  SLP_DCHECK(finalized_);
  return root_latency_[leaf] + geo::Distance(location_[leaf], sub_location);
}

double BrokerTree::ShortestLatency(const geo::Point& sub_location) const {
  SLP_DCHECK(finalized_);
  double best = std::numeric_limits<double>::infinity();
  for (int leaf : leaves_) best = std::min(best, LatencyVia(leaf, sub_location));
  return best;
}

int BrokerTree::Depth() const {
  int depth = 0;
  std::vector<int> d(num_nodes(), 0);
  for (int v = 1; v < num_nodes(); ++v) {
    d[v] = d[parent_[v]] + 1;
    depth = std::max(depth, d[v]);
  }
  return depth;
}

}  // namespace slp::net
