#include "src/sim/dissemination.h"

#include <algorithm>
#include <utility>

#include "src/common/invariant.h"
#include "src/common/parallel.h"
#include "src/match/match_index.h"
#include "src/sim/route.h"

namespace slp::sim {

void DisseminationStats::CheckInvariants() const {
  using audit::Category;
  SLP_AUDIT_CHECK(Category::kDissemination,
                  events >= 0 && total_messages >= 0 && deliveries >= 0 &&
                      wasted_leaf_hits >= 0 && missed_deliveries >= 0 &&
                      unplaced_subscribers >= 0,
                  "negative dissemination counter");
  int64_t hit_sum = 0;
  for (int64_t h : broker_hits) {
    SLP_AUDIT_CHECK(Category::kDissemination, h >= 0,
                    "negative broker hit counter");
    hit_sum += h;
  }
  SLP_AUDIT_CHECK(Category::kDissemination, hit_sum == total_messages,
                  "sum(broker_hits) != total_messages");
  SLP_AUDIT_CHECK(Category::kDissemination,
                  wasted_leaf_hits <= total_messages,
                  "wasted_leaf_hits > total_messages");
}

namespace detail {

DisseminationStats Simulate(const core::SaProblem& problem,
                            const core::SaSolution& solution,
                            const std::vector<geo::Point>& events,
                            const SimulateOptions& options, Matcher* matcher) {
  const net::BrokerTree& tree = problem.tree();
  const int num_nodes = tree.num_nodes();
  SLP_DCHECK(static_cast<int>(solution.filters.size()) == num_nodes);

  std::vector<match::OwnedRect> broker_rects;
  for (int v = 1; v < num_nodes; ++v) {
    for (const geo::Rectangle& r : solution.filters[v].rects()) {
      broker_rects.push_back({v, r});
    }
  }
  matcher->IndexBrokers(broker_rects, num_nodes);

  // Placed subscriptions only: a subscriber with assignment[j] < 0 (parked
  // or orphaned in a dynamic snapshot) has no leaf to reach, so it is
  // counted once and kept out of the miss walk.
  int unplaced = 0;
  std::vector<match::OwnedRect> sub_rects;
  sub_rects.reserve(problem.num_subscribers());
  for (int j = 0; j < problem.num_subscribers(); ++j) {
    if (solution.assignment[j] < 0) {
      ++unplaced;
      continue;
    }
    SLP_DCHECK(solution.assignment[j] < num_nodes);
    sub_rects.push_back({j, problem.subscriber(j).subscription});
  }
  matcher->IndexSubscriptions(sub_rects, problem.num_subscribers());

  const int num_events = static_cast<int>(events.size());
  const int shards =
      std::clamp(options.num_shards, 1, std::max(1, num_events));

  auto route_range = [&](int begin, int end, DisseminationStats* stats) {
    stats->broker_hits.assign(num_nodes, 0);
    Router router(*matcher, num_nodes);
    // One broker-index probe per event answers every entry test of its DFS.
    match::BitSet entered(num_nodes);
    std::vector<int32_t> hits;
    const auto children = [&](int v) -> const std::vector<int>& {
      return tree.children(v);
    };
    const auto enters = [&](int v) { return entered.Test(v); };
    const auto forwards = [](int) { return true; };
    const auto leaf_of = [&](int32_t j) { return solution.assignment[j]; };
    // A matching placed subscriber is delivered iff the DFS reached its
    // leaf (the filter chain containing e is exactly the DFS entry
    // condition), and missed otherwise.
    const auto on_match = [&](int32_t, int, bool reached) {
      ++(reached ? stats->deliveries : stats->missed_deliveries);
    };
    for (int i = begin; i < end; ++i) {
      ++stats->events;
      for (const int32_t v : hits) entered.Reset(v);
      hits.clear();
      matcher->ProbeBrokers(events[i], &entered, &hits);
      router.Route(events[i], tree, children, enters, forwards, leaf_of,
                   on_match, stats);
    }
  };

  DisseminationStats stats;
  if (shards == 1) {
    route_range(0, num_events, &stats);
  } else {
    // Contiguous shards over the shared pool. Every counter is a sum of
    // independent per-event contributions, so the merged stats are
    // bit-identical to serial for any shard count.
    std::vector<DisseminationStats> parts(shards);
    ThreadPool::Global().ParallelFor(shards, [&](int s) {
      const int begin = static_cast<int>(
          static_cast<int64_t>(num_events) * s / shards);
      const int end = static_cast<int>(
          static_cast<int64_t>(num_events) * (s + 1) / shards);
      route_range(begin, end, &parts[s]);
    });
    stats.broker_hits.assign(num_nodes, 0);
    for (const DisseminationStats& p : parts) {
      stats.events += p.events;
      stats.total_messages += p.total_messages;
      stats.deliveries += p.deliveries;
      stats.wasted_leaf_hits += p.wasted_leaf_hits;
      stats.missed_deliveries += p.missed_deliveries;
      for (int v = 0; v < num_nodes; ++v) {
        stats.broker_hits[v] += p.broker_hits[v];
      }
    }
  }
  stats.unplaced_subscribers = unplaced;
  stats.CheckInvariants();
  return stats;
}

}  // namespace detail

DisseminationStats Simulate(const core::SaProblem& problem,
                            const core::SaSolution& solution,
                            const std::vector<geo::Point>& events,
                            const SimulateOptions& options) {
  detail::IndexedMatcher matcher;
  return detail::Simulate(problem, solution, events, options, &matcher);
}

DisseminationStats SimulateUniform(const core::SaProblem& problem,
                                   const core::SaSolution& solution,
                                   const geo::Rectangle& event_box,
                                   int num_events, Rng& rng,
                                   const SimulateOptions& options) {
  std::vector<geo::Point> events;
  events.reserve(num_events);
  for (int e = 0; e < num_events; ++e) {
    geo::Point p(event_box.dim());
    for (int d = 0; d < event_box.dim(); ++d) {
      p[d] = rng.Uniform(event_box.lo(d), event_box.hi(d));
    }
    events.push_back(std::move(p));
  }
  return Simulate(problem, solution, events, options);
}

}  // namespace slp::sim
