// The subscriber-assignment (SA) problem instance (Section II).

#ifndef SLP_CORE_PROBLEM_H_
#define SLP_CORE_PROBLEM_H_

#include <vector>

#include "src/network/broker_tree.h"
#include "src/workload/workload.h"

namespace slp::core {

// Which latency the constraint bounds (Section II: "Our approach can be
// extended to handle other forms of latency constraints, such as one that
// bounds only the last-hop latency").
enum class LatencyMode {
  // Full publisher-to-subscriber path latency through T ∪ Σ (default).
  kPath,
  // Only the broker-to-subscriber hop.
  kLastHop,
};

// User-facing knobs of the SA problem (Section II).
struct SaConfig {
  // Filter complexity α: max rectangles per final broker filter.
  int alpha = 3;
  // Relative delay cap: subscriber j's constrained latency δ must satisfy
  // δ/Δ_j - 1 <= max_delay, where Δ_j is the best value achievable for j
  // under the chosen latency mode (Section VI, "Problem Settings").
  double max_delay = 0.3;
  LatencyMode latency_mode = LatencyMode::kPath;
  // Desired and maximum load-balance factors (β, β_max).
  double beta = 1.5;
  double beta_max = 1.8;
};

// An immutable SA instance: a finalized broker tree, the subscribers, leaf
// capacity fractions κ, and the constraint configuration. Precomputes the
// per-subscriber shortest latency Δ_j and the absolute latency bound
// δ_j = (1 + max_delay) · Δ_j.
class SaProblem {
 public:
  // Equal capacity fractions across leaf brokers (the paper's default).
  SaProblem(net::BrokerTree tree, std::vector<wl::Subscriber> subscribers,
            SaConfig config);

  // Custom capacity fractions, one per leaf broker (in leaf-index order,
  // i.e., aligned with tree().leaf_brokers()); must sum to 1.
  SaProblem(net::BrokerTree tree, std::vector<wl::Subscriber> subscribers,
            SaConfig config, std::vector<double> capacity_fractions);

  const net::BrokerTree& tree() const { return tree_; }
  const std::vector<wl::Subscriber>& subscribers() const {
    return subscribers_;
  }
  const wl::Subscriber& subscriber(int j) const { return subscribers_[j]; }
  int num_subscribers() const { return static_cast<int>(subscribers_.size()); }
  const SaConfig& config() const { return config_; }

  int num_leaves() const {
    return static_cast<int>(tree_.leaf_brokers().size());
  }
  // Leaf index (0..l-1) of a leaf node id; -1 for non-leaf nodes.
  int leaf_index(int node) const { return leaf_index_[node]; }
  // Node id of leaf index i.
  int leaf_node(int i) const { return tree_.leaf_brokers()[i]; }
  // κ_i by leaf index.
  double capacity_fraction(int leaf_idx) const { return kappa_[leaf_idx]; }
  // Σ κ over the leaves of the subtree rooted at `node` — precomputed once
  // in Init() by summing in the tree's subtree-leaf enumeration order, so
  // the value is bit-identical to the historical per-call accumulation.
  double subtree_capacity_fraction(int node) const {
    return subtree_kappa_[node];
  }

  // Δ_j: the best possible publisher-to-subscriber latency through T
  // (always path-based; used by the reported delay metric).
  double shortest_latency(int j) const { return delta_path_[j]; }
  // δ_j: the absolute bound on the mode-dependent latency implied by
  // config().max_delay.
  double latency_bound(int j) const { return latency_bound_[j]; }

  // The latency quantity the constraint bounds when j is assigned to
  // `leaf_node`: full path latency (kPath) or last-hop distance (kLastHop).
  double AssignmentLatency(int j, int leaf_node) const {
    if (config_.latency_mode == LatencyMode::kLastHop) {
      return geo::Distance(tree_.location(leaf_node),
                           subscribers_[j].location);
    }
    return tree_.LatencyVia(leaf_node, subscribers_[j].location);
  }

  // True iff assigning subscriber j to `leaf_node` meets j's latency bound.
  bool LatencyOk(int j, int leaf_node) const {
    return AssignmentLatency(j, leaf_node) <= latency_bound_[j] + 1e-12;
  }

  // Relative path delay (δ/Δ - 1) experienced by j when assigned to
  // `leaf_node` — reported metric, always path-based.
  double RelativeDelay(int j, int leaf_node) const;

 private:
  void Init();

  net::BrokerTree tree_;
  std::vector<wl::Subscriber> subscribers_;
  SaConfig config_;
  std::vector<double> kappa_;          // by leaf index
  std::vector<double> subtree_kappa_;  // by node id; Σ κ over subtree leaves
  std::vector<int> leaf_index_;        // by node id
  std::vector<double> delta_path_;     // path-based Δ_j (metric baseline)
  std::vector<double> latency_bound_;  // δ_j (mode-dependent)
};

}  // namespace slp::core

#endif  // SLP_CORE_PROBLEM_H_
