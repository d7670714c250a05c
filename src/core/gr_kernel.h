// The Gr placement kernel (Section III): the least filter enlargement along
// a publisher-to-leaf path, priced for every Gr caller — online admission
// (DynamicAssigner::Add and AddBatch), the repair ladder
// (DynamicAssigner::Repair) and offline Gr/Gr* (greedy.cc).
//
// A session prices one subscriber. Each node's least enlargement is
// computed at most once per session and summed root to leaf in path order,
// so a leaf cost is bit-identical to a walk down its path, however many
// leaves and ladder rungs ask for it. The latency pass takes one distance
// per static leaf; the subscriber's bound, (1 + max_delay) · Δ over the
// designed tree, and every live leaf's latency both come from those
// distances, under the config's latency mode.
//
// Pricing allocates nothing once the kernel's scratch has grown to the
// tree's size; only Incorporate opening a new rectangle does.

#ifndef SLP_CORE_GR_KERNEL_H_
#define SLP_CORE_GR_KERNEL_H_

#include <cstdint>
#include <vector>

#include "src/common/status.h"
#include "src/core/problem.h"
#include "src/geometry/rectangle.h"
#include "src/network/broker_tree.h"

namespace slp::core {

// Broker filter rectangles by node id (empty for the publisher).
using FilterTable = std::vector<std::vector<geo::Rectangle>>;

// Least added volume to incorporate `sub` (of volume `sub_volume`) into
// `rects`: enlarge an existing rectangle, or open a new one (Vol(sub))
// while fewer than `alpha` exist.
double LeastEnlargement(const std::vector<geo::Rectangle>& rects,
                        const geo::Rectangle& sub, double sub_volume,
                        int alpha);

// Grows `rects` by `sub` as LeastEnlargement prices it: encloses the first
// cheapest rectangle, unless opening a new one is strictly cheaper.
// kInfeasible only when alpha < 1 leaves no rectangle to grow.
Status Incorporate(const geo::Rectangle& sub, int alpha,
                   std::vector<geo::Rectangle>* rects);

// Incorporates `sub` at every node on the live path to `leaf`.
Status GrowLivePath(const net::BrokerTree& tree, int leaf,
                    const geo::Rectangle& sub, int alpha,
                    FilterTable* filters);

class GrKernel {
 public:
  // Starts a session for `sub` against `filters` over `tree`'s live
  // overlay and drops every memoized cost. Both must stay unchanged, and
  // alive, until the next Start.
  void Start(const net::BrokerTree& tree, const FilterTable& filters,
             int alpha, const geo::Rectangle& sub);

  // Gr cost of placing the session's subscription at live leaf `leaf`.
  double Cost(int leaf);

  // Latency pass for a subscriber at `location` over the session's tree.
  void MeasureLatency(const SaConfig& config, const geo::Point& location);
  // The subscriber's bound, relative to the designed tree: failures never
  // relax a promise.
  double bound() const { return bound_; }
  // The bounded latency of serving the subscriber via live `leaf`.
  double latency(int leaf) const {
    return last_hop_ ? dist_[leaf]
                     : tree_->LivePathLatencyFromRoot(leaf) + dist_[leaf];
  }

  // Leaf costs computed (memo misses) since construction.
  int64_t leaf_costs() const { return leaf_costs_; }

 private:
  double NodeCost(int node);

  const net::BrokerTree* tree_ = nullptr;
  const FilterTable* filters_ = nullptr;
  const geo::Rectangle* sub_ = nullptr;
  int alpha_ = 0;
  double sub_volume_ = 0;
  uint64_t session_ = 0;
  std::vector<uint64_t> priced_in_;  // by node: session of cost_[v]
  std::vector<double> cost_;         // by node: root-to-node cost sum
  std::vector<double> dist_;         // by leaf node: distance to location
  double bound_ = 0;
  bool last_hop_ = false;
  int64_t leaf_costs_ = 0;
};

}  // namespace slp::core

#endif  // SLP_CORE_GR_KERNEL_H_
