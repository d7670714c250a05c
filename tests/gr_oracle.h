// A brute-force Gr ladder: the online placement rule of Section III applied
// rung by rung, the way DynamicAssigner placed arrivals before it priced
// them through one GrKernel session. It reads only public assigner state
// (tree(), filter(v), load_of, LoadCap, leaf_vetoed, config()), walks each
// live path node by node, and measures enclosures with its own loop, so it
// shares no code with src/core/gr_kernel.h.
//
//  * GrOracleRung scans one rung: the least-cost latency-feasible live leaf
//    with room under a load-balance factor (+inf: no cap).
//  * GrOracleLadder runs β → β_max → ∞ and then the degraded fallback
//    (smallest latency excess, ties by cost), scanning every rung it
//    reaches: the leaf an arrival must land on, and the rung scans the
//    always-scan ladder makes to find it.

#ifndef SLP_TESTS_GR_ORACLE_H_
#define SLP_TESTS_GR_ORACLE_H_

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "src/core/dynamic.h"
#include "src/core/problem.h"
#include "src/geometry/point.h"
#include "src/geometry/rectangle.h"
#include "src/network/broker_tree.h"
#include "src/workload/workload.h"

namespace slp::core {

struct GrOracleChoice {
  int leaf = -1;
  int scans = 0;
};

inline double OracleEnclosureVolume(const geo::Rectangle& a,
                                    const geo::Rectangle& b) {
  double v = 1;
  for (int i = 0; i < a.dim(); ++i) {
    v *= std::max(a.hi(i), b.hi(i)) - std::min(a.lo(i), b.lo(i));
  }
  return v;
}

// Σ over the live path to `leaf` of each node's least enlargement.
inline double OraclePathCost(const DynamicAssigner& dyn,
                             const geo::Rectangle& sub, int leaf) {
  const std::vector<int> path = dyn.tree().LivePathFromRoot(leaf);
  double cost = 0;
  for (size_t k = 1; k < path.size(); ++k) {
    const std::vector<geo::Rectangle>& rects = dyn.filter(path[k]);
    double best = std::numeric_limits<double>::infinity();
    for (const geo::Rectangle& r : rects) {
      best = std::min(best, OracleEnclosureVolume(r, sub) - r.Volume());
    }
    if (static_cast<int>(rects.size()) < dyn.config().alpha) {
      best = std::min(best, sub.Volume());
    }
    cost += best;
  }
  return cost;
}

// The latency the constraint bounds, via a live leaf.
inline double OracleLatency(const DynamicAssigner& dyn,
                            const wl::Subscriber& s, int leaf) {
  const double hop = geo::Distance(dyn.tree().location(leaf), s.location);
  return dyn.config().latency_mode == LatencyMode::kLastHop
             ? hop
             : dyn.tree().LivePathLatencyFromRoot(leaf) + hop;
}

// (1 + max_delay) · Δ over the designed tree's leaves.
inline double OracleBound(const DynamicAssigner& dyn,
                          const wl::Subscriber& s) {
  double best = std::numeric_limits<double>::infinity();
  for (int leaf : dyn.tree().leaf_brokers()) {
    const double hop = geo::Distance(dyn.tree().location(leaf), s.location);
    best = std::min(best,
                    dyn.config().latency_mode == LatencyMode::kLastHop
                        ? hop
                        : dyn.tree().PathLatencyFromRoot(leaf) + hop);
  }
  return (1.0 + dyn.config().max_delay) * best;
}

// The advisory veto: honored only while some live leaf is not vetoed.
inline bool OracleUseVeto(const DynamicAssigner& dyn) {
  for (int leaf : dyn.tree().live_leaf_brokers()) {
    if (!dyn.leaf_vetoed(leaf)) return true;
  }
  return false;
}

inline int GrOracleRung(const DynamicAssigner& dyn, const wl::Subscriber& s,
                        double lbf) {
  const bool use_veto = OracleUseVeto(dyn);
  const double bound = OracleBound(dyn, s);
  int best = -1;
  double best_cost = std::numeric_limits<double>::infinity();
  for (int leaf : dyn.tree().live_leaf_brokers()) {
    if (use_veto && dyn.leaf_vetoed(leaf)) continue;
    if (OracleLatency(dyn, s, leaf) > bound + 1e-12) continue;
    if (std::isfinite(lbf) &&
        dyn.load_of(leaf) + 1 > dyn.LoadCap(lbf) + 1e-9) {
      continue;
    }
    const double cost = OraclePathCost(dyn, s.subscription, leaf);
    if (cost < best_cost) {
      best_cost = cost;
      best = leaf;
    }
  }
  return best;
}

inline GrOracleChoice GrOracleLadder(const DynamicAssigner& dyn,
                                     const wl::Subscriber& s) {
  GrOracleChoice out;
  if (dyn.tree().live_leaf_brokers().empty()) return out;
  for (double lbf : {dyn.config().beta, dyn.config().beta_max,
                     std::numeric_limits<double>::infinity()}) {
    ++out.scans;
    out.leaf = GrOracleRung(dyn, s, lbf);
    if (out.leaf >= 0) return out;
  }
  ++out.scans;
  const bool use_veto = OracleUseVeto(dyn);
  const double bound = OracleBound(dyn, s);
  double best_excess = std::numeric_limits<double>::infinity();
  double best_cost = std::numeric_limits<double>::infinity();
  for (int leaf : dyn.tree().live_leaf_brokers()) {
    if (use_veto && dyn.leaf_vetoed(leaf)) continue;
    const double excess = OracleLatency(dyn, s, leaf) - bound;
    const double cost = OraclePathCost(dyn, s.subscription, leaf);
    if (excess < best_excess - 1e-12 ||
        (excess < best_excess + 1e-12 && cost < best_cost)) {
      best_excess = excess;
      best_cost = cost;
      out.leaf = leaf;
    }
  }
  return out;
}

}  // namespace slp::core

#endif  // SLP_TESTS_GR_ORACLE_H_
