// Test oracle for the assignment-flow kernel (src/core/assignment_flow.h):
// a general Dinic max-flow over an explicit linked-list graph, and the
// SLP1 step-2 flow run (cover computation, cohesion seeding, β
// escalation) written against it.
//
// MaxFlow is a plain resumable Dinic on any directed graph. RunFlow
// builds the assignment network in a fixed edge order — source → target
// edges by target id, then per row its sink edge and one target → row
// edge per cover, in cover order — so MaxFlow's arc order (the reverse of
// insertion at every node) is the order the kernel must reproduce. The
// differential suite (tests/assignment_flow_test.cc) requires the
// kernel's per-row targets, flow and achieved β to equal these exactly.

#ifndef SLP_TESTS_FLOW_ORACLE_H_
#define SLP_TESTS_FLOW_ORACLE_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "src/common/invariant.h"
#include "src/core/candidates.h"
#include "src/core/problem.h"
#include "src/core/subscription_assign.h"
#include "src/geometry/filter.h"

namespace slp::flow {

class MaxFlow;
inline void AuditFlowConservation(const MaxFlow& flow, int s, int t);

// A directed flow network over nodes 0..num_nodes-1 with integer edge
// capacities. Capacities may be raised and the flow resumed; a flow may
// be seeded along explicit paths before solving.
class MaxFlow {
 public:
  explicit MaxFlow(int num_nodes) : head_(num_nodes, -1) {
    SLP_DCHECK(num_nodes >= 2);
  }

  // Adds a directed edge u -> v and returns its id. A reverse edge with
  // zero capacity is created internally.
  int AddEdge(int u, int v, int64_t capacity) {
    SLP_DCHECK(u >= 0 && u < num_nodes());
    SLP_DCHECK(v >= 0 && v < num_nodes());
    SLP_DCHECK(capacity >= 0);
    const int fwd = static_cast<int>(to_.size());
    to_.push_back(v);
    cap_.push_back(capacity);
    next_.push_back(head_[u]);
    head_[u] = fwd;
    const int rev = fwd + 1;
    to_.push_back(u);
    cap_.push_back(0);
    next_.push_back(head_[v]);
    head_[v] = rev;
    original_cap_.push_back(capacity);
    return fwd / 2;
  }

  // Raises the capacity of edge `id` (never below its current flow).
  void SetCapacity(int id, int64_t capacity) {
    SLP_DCHECK(id >= 0 && id < num_edges());
    const int fwd = 2 * id;
    const int64_t current_flow = cap_[fwd + 1];
    SLP_DCHECK(capacity >= current_flow);
    cap_[fwd] = capacity - current_flow;
    original_cap_[id] = capacity;
  }

  // Routes `amount` units along the given edges, which must have that
  // much residual capacity (debug-checked).
  void PushPath(const std::vector<int>& edge_ids, int64_t amount) {
    SLP_DCHECK(amount >= 0);
    for (int id : edge_ids) {
      SLP_DCHECK(id >= 0 && id < num_edges());
      SLP_DCHECK(cap_[2 * id] >= amount);
    }
    for (int id : edge_ids) {
      cap_[2 * id] -= amount;
      cap_[2 * id + 1] += amount;
    }
    total_flow_ += amount;
  }

  // Computes (or, after capacity raises, augments) the maximum s-t flow
  // and returns the total routed so far.
  int64_t Solve(int s, int t) {
    SLP_DCHECK(s != t);
    if (last_s_ >= 0) SLP_DCHECK(s == last_s_ && t == last_t_);
    last_s_ = s;
    last_t_ = t;
    while (Bfs(s, t)) {
      iter_ = head_;
      total_flow_ += Dfs(s, t, std::numeric_limits<int64_t>::max());
    }
#if SLP_AUDITS_ENABLED
    AuditFlowConservation(*this, s, t);
#endif
    return total_flow_;
  }

  int64_t flow(int id) const {
    SLP_DCHECK(id >= 0 && id < num_edges());
    return cap_[2 * id + 1];  // reverse residual == flow pushed forward
  }
  int edge_tail(int id) const { return to_[2 * id + 1]; }
  int edge_head(int id) const { return to_[2 * id]; }
  int64_t capacity(int id) const { return original_cap_[id]; }
  int num_nodes() const { return static_cast<int>(head_.size()); }
  int num_edges() const { return static_cast<int>(to_.size()) / 2; }

  // Nodes reachable from s in the residual graph after the last Solve().
  std::vector<bool> MinCutSourceSide(int s) const {
    std::vector<bool> side(num_nodes(), false);
    std::queue<int> q;
    side[s] = true;
    q.push(s);
    while (!q.empty()) {
      const int u = q.front();
      q.pop();
      for (int a = head_[u]; a != -1; a = next_[a]) {
        if (cap_[a] > 0 && !side[to_[a]]) {
          side[to_[a]] = true;
          q.push(to_[a]);
        }
      }
    }
    return side;
  }

 private:
  bool Bfs(int s, int t) {
    level_.assign(num_nodes(), -1);
    std::queue<int> q;
    level_[s] = 0;
    q.push(s);
    while (!q.empty()) {
      const int u = q.front();
      q.pop();
      for (int a = head_[u]; a != -1; a = next_[a]) {
        if (cap_[a] > 0 && level_[to_[a]] < 0) {
          level_[to_[a]] = level_[u] + 1;
          q.push(to_[a]);
        }
      }
    }
    return level_[t] >= 0;
  }

  int64_t Dfs(int u, int t, int64_t limit) {
    if (u == t) return limit;
    int64_t pushed = 0;
    for (int& a = iter_[u]; a != -1; a = next_[a]) {
      const int v = to_[a];
      if (cap_[a] <= 0 || level_[v] != level_[u] + 1) continue;
      const int64_t got = Dfs(v, t, std::min(limit - pushed, cap_[a]));
      if (got > 0) {
        cap_[a] -= got;
        cap_[a ^ 1] += got;
        pushed += got;
        if (pushed == limit) return pushed;
      }
    }
    level_[u] = -1;  // dead end; prune for this phase
    return pushed;
  }

  // Adjacency: head_[u] -> first arc id, next_[a] -> next arc. Arc 2k is
  // the forward direction of edge k; arc 2k+1 its reverse.
  std::vector<int> head_;
  std::vector<int> next_;
  std::vector<int> to_;
  std::vector<int64_t> cap_;  // residual capacity per arc
  std::vector<int64_t> original_cap_;
  std::vector<int> level_;
  std::vector<int> iter_;
  int64_t total_flow_ = 0;
  int last_s_ = -1, last_t_ = -1;
};

// Per-node flow conservation and capacity bounds, reported through
// slp::audit::Fail with Category::kFlow: 0 <= flow <= capacity per edge,
// zero net flow at every non-terminal, net(s) = -net(t) >= 0.
inline void AuditFlowConservation(const MaxFlow& flow, int s, int t) {
  constexpr auto kCat = audit::Category::kFlow;
  const int n = flow.num_nodes();
  SLP_AUDIT_CHECK(kCat, s >= 0 && s < n && t >= 0 && t < n && s != t,
                  "bad terminals s=" + std::to_string(s) +
                      " t=" + std::to_string(t));
  std::vector<int64_t> net(n, 0);  // outflow - inflow per node
  for (int e = 0; e < flow.num_edges(); ++e) {
    const int64_t f = flow.flow(e);
    SLP_AUDIT_CHECK(kCat, f >= 0,
                    "edge " + std::to_string(e) + ": negative flow");
    SLP_AUDIT_CHECK(kCat, f <= flow.capacity(e),
                    "edge " + std::to_string(e) + ": flow " +
                        std::to_string(f) + " exceeds capacity " +
                        std::to_string(flow.capacity(e)));
    net[flow.edge_tail(e)] += f;
    net[flow.edge_head(e)] -= f;
  }
  for (int v = 0; v < n; ++v) {
    if (v == s || v == t) continue;
    SLP_AUDIT_CHECK(kCat, net[v] == 0,
                    "node " + std::to_string(v) + ": imbalance " +
                        std::to_string(net[v]));
  }
  SLP_AUDIT_CHECK(kCat, net[s] >= 0 && net[s] == -net[t],
                  "terminal imbalance: net(s)=" + std::to_string(net[s]) +
                      " net(t)=" + std::to_string(net[t]));
}

// ---------------------------------------------------------------------------
// The SLP1 step-2 flow run over MaxFlow.
// ---------------------------------------------------------------------------

// Multiplicative β escalation per retry (β_max is always tried last).
inline constexpr double kEscalation = 1.05;

// A (row, target) covering edge with its cohesion cost: the volume of the
// smallest filter rectangle at the target containing the row's
// subscription.
struct CoverEdge {
  int target;
  double cost;
};

// One max-flow attempt with β escalation: `target_of` is -1 for rows the
// flow could not route.
struct FlowAttempt {
  std::vector<int> target_of;
  double achieved_beta = 0;
  int64_t flow = 0;
};

inline FlowAttempt RunFlow(const core::SaProblem& problem,
                           const core::Targets& targets,
                           const std::vector<std::vector<CoverEdge>>& covers,
                           const core::SubscriptionAssignOptions& options) {
  const int rows = static_cast<int>(covers.size());
  const int nt = targets.count;
  MaxFlow mf(2 + nt + rows);
  const int s = 0, t_node = 1;
  const auto cap_at = [&](int t, double beta) {
    return static_cast<int64_t>(std::floor(targets.AbsCap(t, beta) + 1e-9));
  };
  double beta = problem.config().beta;
  std::vector<int> target_edge(nt);
  for (int t = 0; t < nt; ++t) {
    target_edge[t] = mf.AddEdge(s, 2 + t, cap_at(t, beta));
  }
  // Every row is one unit of supply, routed whole to one target.
  const int64_t supply = rows;
  std::vector<int> sink_edge(rows);
  std::vector<std::vector<std::pair<int, int>>> row_edges(rows);
  for (int r = 0; r < rows; ++r) {
    sink_edge[r] = mf.AddEdge(2 + nt + r, t_node, 1);
    for (const CoverEdge& e : covers[r]) {
      row_edges[r].push_back({mf.AddEdge(2 + e.target, 2 + nt + r, 1),
                              e.target});
    }
  }

  // Cohesion seeding: a cost-ordered greedy pre-assignment pushed as
  // initial flow; Solve() then only reroutes where load balance demands.
  if (options.cohesion_seeding) {
    struct Item {
      double cost;
      int row;
      int cover_idx;
    };
    std::vector<Item> items;
    for (int r = 0; r < rows; ++r) {
      for (size_t c = 0; c < covers[r].size(); ++c) {
        items.push_back({covers[r][c].cost, r, static_cast<int>(c)});
      }
    }
    std::sort(items.begin(), items.end(), [](const Item& a, const Item& b) {
      return a.cost < b.cost;
    });
    std::vector<int64_t> used(nt, 0);
    std::vector<bool> seeded(rows, false);
    for (const Item& item : items) {
      if (seeded[item.row]) continue;
      const int t = covers[item.row][item.cover_idx].target;
      if (used[t] + 1 > cap_at(t, beta)) continue;
      seeded[item.row] = true;
      ++used[t];
      mf.PushPath({target_edge[t], row_edges[item.row][item.cover_idx].first,
                   sink_edge[item.row]},
                  1);
    }
  }

  int64_t flow = mf.Solve(s, t_node);
  while (flow < supply && beta < problem.config().beta_max - 1e-12) {
    beta = std::min(beta * kEscalation, problem.config().beta_max);
    for (int t = 0; t < nt; ++t) {
      mf.SetCapacity(target_edge[t], cap_at(t, beta));
    }
    flow = mf.Solve(s, t_node);  // resumes from the current flow
  }
  FlowAttempt out;
  out.achieved_beta = beta;
  out.flow = flow;
  out.target_of.assign(rows, -1);
  for (int r = 0; r < rows; ++r) {
    // A routed row's unit flows over exactly one of its edges.
    for (const auto& [edge, t] : row_edges[r]) {
      if (mf.flow(edge) > 0) {
        out.target_of[r] = t;
        break;
      }
    }
  }
  return out;
}

// A row's covers walked candidate-first: B_j in order, each target kept
// when one of its filter's rectangles contains the subscription, at the
// least containing volume. core::ComputeCovers finds the same covers
// filter-first, so this stays an independent reference for it.
inline std::vector<std::vector<CoverEdge>> ComputeCovers(
    const core::SaProblem& problem, const core::Targets& targets,
    const std::vector<geo::Filter>& filters) {
  const int rows = static_cast<int>(targets.subscribers.size());
  std::vector<std::vector<CoverEdge>> covers(rows);
  for (int r = 0; r < rows; ++r) {
    const auto& sub = problem.subscriber(targets.subscribers[r]).subscription;
    for (int t : core::Candidates(problem, targets, r)) {
      double best = std::numeric_limits<double>::infinity();
      for (const auto& rect : filters[t].rects()) {
        if (rect.Contains(sub)) best = std::min(best, rect.Volume());
      }
      if (std::isfinite(best)) covers[r].push_back({t, best});
    }
  }
  return covers;
}

}  // namespace slp::flow

#endif  // SLP_TESTS_FLOW_ORACLE_H_
