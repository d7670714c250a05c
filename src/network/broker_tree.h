// The dissemination network: a tree T of brokers rooted at the publisher,
// embedded in the network space N (Section II).
//
// Node 0 is always the publisher P; nodes 1..n are brokers. Euclidean
// distance between node locations approximates network latency (the paper
// assumes coordinates produced by an Internet embedding such as Vivaldi;
// this library synthesizes the coordinates directly).

#ifndef SLP_NETWORK_BROKER_TREE_H_
#define SLP_NETWORK_BROKER_TREE_H_

#include <span>
#include <vector>

#include "src/common/status.h"
#include "src/geometry/point.h"

namespace slp::net {

// Topology immutable after Finalize(). Provides the latency primitives the
// SA problem needs: root-to-node path latency, root-to-subscriber latency
// via a given leaf, and the shortest publisher-to-subscriber latency
// through the tree (Δ in the paper's delay definition δ/Δ - 1).
//
// After Finalize() the tree additionally supports a crash-stop failure
// overlay (FailBroker / RecoverBroker). A failed broker is spliced out of
// the routing tree: every live node's effective parent becomes its nearest
// live ancestor (the publisher never fails). The static topology accessors
// (parent(), children(), leaf_brokers(), ...) always describe the designed
// tree; the live_* / Live* accessors describe the current overlay. With no
// failures the two views are identical, value for value.
class BrokerTree {
 public:
  static constexpr int kPublisher = 0;

  // Starts a tree whose root (node 0) is the publisher at `location`.
  explicit BrokerTree(geo::Point publisher_location);

  // Adds a broker under `parent` (which must already exist). Returns the
  // new node id. Only valid before Finalize().
  int AddBroker(geo::Point location, int parent);

  // Computes leaf lists and path latencies. Must be called once, after
  // which the tree is immutable. CHECK-fails if the publisher has no
  // brokers.
  void Finalize();

  int num_nodes() const { return static_cast<int>(parent_.size()); }
  int num_brokers() const { return num_nodes() - 1; }
  int parent(int node) const { return parent_[node]; }
  const std::vector<int>& children(int node) const { return children_[node]; }
  const geo::Point& location(int node) const { return location_[node]; }
  bool is_leaf(int node) const {
    return node != kPublisher && children_[node].empty();
  }

  // Leaf brokers in increasing node-id order (computed by Finalize()).
  const std::vector<int>& leaf_brokers() const { return leaves_; }

  // Leaves of the subtree rooted at `node` (the node itself if it is a
  // leaf), as a view into a flat table built once by Finalize() — no tree
  // walk per call. The order is the historical per-node stack-DFS
  // enumeration (children visited last-first); downstream capacity sums
  // add leaf fractions in this order, so it is part of the determinism
  // contract and must not change.
  std::span<const int> subtree_leaves(int node) const {
    return {subtree_leaves_.data() + subtree_leaf_begin_[node],
            subtree_leaves_.data() + subtree_leaf_end_[node]};
  }
  int num_subtree_leaves(int node) const {
    return subtree_leaf_end_[node] - subtree_leaf_begin_[node];
  }

  // Broker nodes (everything except the publisher), in id order.
  std::vector<int> broker_nodes() const;

  // Sum of edge latencies from the publisher to `node` (Finalize() first).
  double PathLatencyFromRoot(int node) const { return root_latency_[node]; }

  // Nodes from the publisher (inclusive) to `node` (inclusive).
  std::vector<int> PathFromRoot(int node) const;

  // Latency from publisher through the tree to `leaf`, plus the last hop to
  // a subscriber at `sub_location`.
  double LatencyVia(int leaf, const geo::Point& sub_location) const;

  // Δ: min over leaf brokers of LatencyVia (the best possible latency for a
  // subscriber at `sub_location`).
  double ShortestLatency(const geo::Point& sub_location) const;

  // Maximum depth (edges) over all nodes.
  int Depth() const;

  // ---- Crash-stop failure overlay (valid after Finalize()) ----
  //
  // Failing an interior broker splices its children up to their nearest
  // live ancestor. This is routing-safe without any filter recomputation:
  // the nesting condition f_child ⊆ f_parent ⊆ f_grandparent makes every
  // child filter already covered by the splice target (proved in
  // tests/repair_test.cc). Failing a leaf merely removes it from the live
  // leaf set — orphaned subscribers are the core layer's concern.

  // Marks a broker failed. INVALID_ARGUMENT if `node` is the publisher,
  // out of range, or already failed.
  Status FailBroker(int node);

  // Brings a failed broker back. INVALID_ARGUMENT if `node` is not
  // currently failed.
  Status RecoverBroker(int node);

  bool is_failed(int node) const { return failed_[node]; }
  int num_failed() const { return num_failed_; }
  bool any_failed() const { return num_failed_ > 0; }

  // Nearest live proper ancestor (the node's parent in the live overlay);
  // -1 for the publisher or a failed node.
  int live_parent(int node) const { return live_parent_[node]; }
  // Nearest live proper ancestor of *any* non-publisher node, failed ones
  // included (live_parent() answers -1 for those). For a live node this
  // equals live_parent(); for a failed node it is the broker its neighbors
  // spliced to — the first live hop a message leaving `node` upward would
  // take, which is what the heartbeat layer (src/liveness) routes along.
  // The publisher (always live) terminates every walk.
  int NearestLiveAncestor(int node) const;
  const std::vector<int>& live_children(int node) const {
    return live_children_[node];
  }
  // Live static leaves (failed leaves excluded), increasing node-id order.
  // An interior broker whose leaves all failed does NOT become a leaf.
  const std::vector<int>& live_leaf_brokers() const { return live_leaves_; }

  // Nodes from the publisher (inclusive) to `node` (inclusive) in the live
  // overlay. `node` must be live.
  std::vector<int> LivePathFromRoot(int node) const;

  // Overlay analogue of PathLatencyFromRoot. Splicing shortens paths: a
  // child's latency contribution becomes the direct distance to its
  // nearest live ancestor.
  double LivePathLatencyFromRoot(int node) const {
    return live_root_latency_[node];
  }

 private:
  void RebuildLiveOverlay();

  std::vector<int> parent_;
  std::vector<std::vector<int>> children_;
  std::vector<geo::Point> location_;
  std::vector<double> root_latency_;
  std::vector<int> leaves_;
  // Flat subtree-leaf table (CSR-style): every node's subtree leaves are
  // the contiguous slice [subtree_leaf_begin_[v], subtree_leaf_end_[v]) of
  // subtree_leaves_. Built once in Finalize().
  std::vector<int> subtree_leaves_;
  std::vector<int> subtree_leaf_begin_;
  std::vector<int> subtree_leaf_end_;
  bool finalized_ = false;

  // Failure overlay; rebuilt in O(n) on each fail/recover event.
  std::vector<bool> failed_;
  int num_failed_ = 0;
  std::vector<int> live_parent_;
  std::vector<std::vector<int>> live_children_;
  std::vector<double> live_root_latency_;
  std::vector<int> live_leaves_;
};

}  // namespace slp::net

#endif  // SLP_NETWORK_BROKER_TREE_H_
