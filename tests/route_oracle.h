// Engine-independent references for event routing, plus a random
// deployment generator in any event dimension d.
//
//  * BruteForceSimulate routes every event rectangle by rectangle: a DFS
//    that enters a broker iff its filter contains the event, a scan of
//    each reached leaf's subscribers, and a walk up every matching
//    subscriber's filter chain for the misses. It shares no code with the
//    routing kernel (src/sim/route.h), so a kernel bug shows up as a
//    difference in some DisseminationStats field.
//  * BruteForceMatcher answers the kernel's probes by linear scan over
//    what was indexed; run through sim::detail::Simulate (broker filters
//    and subscriptions) or sim::detail::ReplayWithFaults (subscriptions
//    only: the replay tests broker filters directly) it checks the grid
//    indexes inside the production loops.
//  * RandomDeployment builds a deployment of random d-dimensional
//    subscriptions on a random tree whose filters are the bounding boxes
//    of their subtrees' subscriptions, some shrunk so that misses occur.
//  * ReshapeRectangle carries a rectangle of a 2-d workload to d axes.

#ifndef SLP_TESTS_ROUTE_ORACLE_H_
#define SLP_TESTS_ROUTE_ORACLE_H_

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "src/common/random.h"
#include "src/core/assignment.h"
#include "src/core/problem.h"
#include "src/geometry/filter.h"
#include "src/geometry/rectangle.h"
#include "src/match/bitset.h"
#include "src/match/match_index.h"
#include "src/network/broker_tree.h"
#include "src/sim/dissemination.h"
#include "src/sim/route.h"

namespace slp::test {

inline sim::DisseminationStats BruteForceSimulate(
    const core::SaProblem& problem, const core::SaSolution& solution,
    const std::vector<geo::Point>& events) {
  const net::BrokerTree& tree = problem.tree();
  sim::DisseminationStats stats;
  stats.broker_hits.assign(tree.num_nodes(), 0);
  std::vector<std::vector<int>> subs_of_leaf(tree.num_nodes());
  for (int j = 0; j < problem.num_subscribers(); ++j) {
    const int leaf = solution.assignment[j];
    if (leaf < 0) {
      ++stats.unplaced_subscribers;
    } else {
      subs_of_leaf[leaf].push_back(j);
    }
  }
  for (const geo::Point& e : events) {
    ++stats.events;
    std::vector<int> stack(tree.children(net::BrokerTree::kPublisher));
    while (!stack.empty()) {
      const int v = stack.back();
      stack.pop_back();
      if (!solution.filters[v].ContainsPoint(e)) continue;
      ++stats.broker_hits[v];
      ++stats.total_messages;
      if (!tree.is_leaf(v)) {
        stack.insert(stack.end(), tree.children(v).begin(),
                     tree.children(v).end());
        continue;
      }
      bool delivered_any = false;
      for (const int j : subs_of_leaf[v]) {
        if (problem.subscriber(j).subscription.ContainsPoint(e)) {
          ++stats.deliveries;
          delivered_any = true;
        }
      }
      if (!delivered_any) ++stats.wasted_leaf_hits;
    }
    // A matching placed subscriber was reached iff every filter on its
    // leaf's path contains the event.
    for (int j = 0; j < problem.num_subscribers(); ++j) {
      if (solution.assignment[j] < 0) continue;
      if (!problem.subscriber(j).subscription.ContainsPoint(e)) continue;
      for (int v = solution.assignment[j]; v != net::BrokerTree::kPublisher;
           v = tree.parent(v)) {
        if (!solution.filters[v].ContainsPoint(e)) {
          ++stats.missed_deliveries;
          break;
        }
      }
    }
  }
  return stats;
}

class BruteForceMatcher : public sim::detail::Matcher {
 public:
  void IndexBrokers(const std::vector<match::OwnedRect>& rects,
                    int /*num_nodes*/) override {
    brokers_ = rects;
  }
  void IndexSubscriptions(const std::vector<match::OwnedRect>& rects,
                          int /*num_subscribers*/) override {
    subscriptions_ = rects;
  }
  void ProbeBrokers(const geo::Point& e, match::BitSet* brokers,
                    std::vector<int32_t>* hits) const override {
    for (const match::OwnedRect& r : brokers_) {
      if (r.rect.ContainsPoint(e) && !brokers->Test(r.owner)) {
        brokers->Set(r.owner);
        hits->push_back(r.owner);
      }
    }
  }
  void AppendSubscriptions(const geo::Point& e,
                           std::vector<int32_t>* out) const override {
    for (const match::OwnedRect& r : subscriptions_) {
      if (r.rect.ContainsPoint(e)) out->push_back(r.owner);
    }
  }

 private:
  std::vector<match::OwnedRect> brokers_;
  std::vector<match::OwnedRect> subscriptions_;
};

// sim::Simulate's loop over brute-force probes.
inline sim::DisseminationStats SimulateWithBruteForceProbes(
    const core::SaProblem& problem, const core::SaSolution& solution,
    const std::vector<geo::Point>& events, int num_shards = 1) {
  BruteForceMatcher matcher;
  return sim::detail::Simulate(problem, solution, events, {num_shards},
                               &matcher);
}

struct Deployment {
  core::SaProblem problem;
  core::SaSolution solution;
};

// `num_brokers` brokers on a random recursive tree (each broker's parent
// is uniform over the publisher and the brokers before it), and `m`
// random d-dimensional subscriptions in [0, 1]^d, a tenth of them flat on
// one axis, each on a uniformly random leaf. Every filter is the bounding
// box of its subtree's subscriptions (empty if it has none); with
// probability `shrink` a filter then loses a quarter of its extent on
// every axis, so the events it no longer forwards become misses.
inline Deployment RandomDeployment(int d, int m, int num_brokers,
                                   double shrink, uint64_t seed) {
  Rng rng(seed);
  net::BrokerTree tree({0.0, 0.0});
  for (int b = 1; b <= num_brokers; ++b) {
    const int parent = static_cast<int>(rng.UniformInt(0, b - 1));
    tree.AddBroker({rng.Uniform(-1, 1), rng.Uniform(-1, 1)}, parent);
  }
  tree.Finalize();
  const std::vector<int>& leaves = tree.leaf_brokers();

  std::vector<wl::Subscriber> subs(m);
  std::vector<int> assignment(m);
  for (int j = 0; j < m; ++j) {
    geo::Point center(d);
    std::vector<double> widths(d);
    const int flat_axis =
        rng.Bernoulli(0.1) ? static_cast<int>(rng.UniformInt(0, d - 1)) : -1;
    for (int a = 0; a < d; ++a) {
      center[a] = rng.Uniform(0, 1);
      widths[a] = a == flat_axis ? 0 : rng.Uniform(0, 0.5);
    }
    subs[j].location = {rng.Uniform(-1, 1), rng.Uniform(-1, 1)};
    subs[j].subscription = geo::Rectangle::FromCenter(center, widths);
    assignment[j] = leaves[rng.UniformInt(
        0, static_cast<int64_t>(leaves.size()) - 1)];
  }

  const int n = tree.num_nodes();
  std::vector<std::optional<geo::Rectangle>> box(n);
  const auto enclose = [&](int v, const geo::Rectangle& r) {
    if (box[v]) {
      box[v]->Enclose(r);
    } else {
      box[v] = r;
    }
  };
  for (int j = 0; j < m; ++j) enclose(assignment[j], subs[j].subscription);
  // A broker's parent has a smaller id, so a descending sweep folds every
  // subtree into its parent after the subtree is complete.
  for (int v = n - 1; v > net::BrokerTree::kPublisher; --v) {
    if (box[v] && tree.parent(v) != net::BrokerTree::kPublisher) {
      enclose(tree.parent(v), *box[v]);
    }
  }

  core::SaSolution solution;
  solution.algorithm = "random";
  solution.assignment = assignment;
  solution.filters.assign(n, geo::Filter());
  for (int v = 1; v < n; ++v) {
    if (!box[v]) continue;
    geo::Rectangle r = *box[v];
    if (rng.Bernoulli(shrink)) {
      std::vector<double> lo = r.lo(), hi = r.hi();
      for (int a = 0; a < d; ++a) {
        lo[a] += 0.125 * r.length(a);
        hi[a] -= 0.125 * r.length(a);
      }
      r = geo::Rectangle(std::move(lo), std::move(hi));
    }
    solution.filters[v] = geo::Filter({r});
  }
  return {core::SaProblem(std::move(tree), std::move(subs), core::SaConfig{}),
          std::move(solution)};
}

// `r` on d axes: its first min(d, r.dim()) axes are kept, and each
// further axis gets an interval of length in [0.2, 0.6] inside [0, 1], so
// uniform events still match a good share of the reshaped rectangles.
inline geo::Rectangle ReshapeRectangle(const geo::Rectangle& r, int d,
                                       Rng& rng) {
  std::vector<double> lo(d), hi(d);
  for (int a = 0; a < d; ++a) {
    if (a < r.dim()) {
      lo[a] = r.lo(a);
      hi[a] = r.hi(a);
    } else {
      const double width = rng.Uniform(0.2, 0.6);
      lo[a] = rng.Uniform(0, 1 - width);
      hi[a] = lo[a] + width;
    }
  }
  return geo::Rectangle(std::move(lo), std::move(hi));
}

// `count` events uniform over [-0.1, 1.1]^d plus every corner of every
// filter rectangle of `solution`: boundary events sit exactly where a
// closed-vs-half-open or cell off-by-one mismatch would show.
inline std::vector<geo::Point> RandomEvents(
    int d, int count, const core::SaSolution& solution, uint64_t seed) {
  Rng rng(seed);
  std::vector<geo::Point> events;
  for (int i = 0; i < count; ++i) {
    geo::Point p(d);
    for (int a = 0; a < d; ++a) p[a] = rng.Uniform(-0.1, 1.1);
    events.push_back(std::move(p));
  }
  for (const geo::Filter& f : solution.filters) {
    for (const geo::Rectangle& r : f.rects()) {
      for (unsigned mask = 0; mask < (1u << d); ++mask) {
        events.push_back(r.Corner(mask));
      }
    }
  }
  return events;
}

}  // namespace slp::test

#endif  // SLP_TESTS_ROUTE_ORACLE_H_
