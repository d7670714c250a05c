#include "src/core/audit.h"

#include <string>
#include <vector>

#include "src/common/invariant.h"
#include "src/core/assignment.h"
#include "src/core/dynamic.h"
#include "src/core/problem.h"
#include "src/geometry/audit.h"
#include "src/geometry/filter.h"
#include "src/network/broker_tree.h"

namespace slp::core {

namespace {
constexpr auto kCat = audit::Category::kNesting;
}  // namespace

void AuditNesting(const SaProblem& problem, const SaSolution& solution) {
  const net::BrokerTree& tree = problem.tree();
  const int n = tree.num_nodes();
  SLP_AUDIT_CHECK(kCat, static_cast<int>(solution.filters.size()) == n,
                  "solution has " + std::to_string(solution.filters.size()) +
                      " filters for " + std::to_string(n) + " nodes");
  SLP_AUDIT_CHECK(kCat,
                  static_cast<int>(solution.assignment.size()) ==
                      problem.num_subscribers(),
                  "solution assigns " +
                      std::to_string(solution.assignment.size()) + " of " +
                      std::to_string(problem.num_subscribers()) +
                      " subscribers");
  if (static_cast<int>(solution.filters.size()) != n) return;

  // Rectangle sanity of every installed filter.
  for (int v = 0; v < n; ++v) {
    geo::AuditFilter(solution.filters[v], "filter of node " +
                                              std::to_string(v));
  }

  // Coverage: each subscription inside one rectangle of its leaf's filter.
  for (int j = 0; j < problem.num_subscribers() &&
                  j < static_cast<int>(solution.assignment.size());
       ++j) {
    const int leaf = solution.assignment[j];
    const std::string who = "subscriber " + std::to_string(j);
    SLP_AUDIT_CHECK(kCat, leaf >= 0 && leaf < n && tree.is_leaf(leaf),
                    who + ": assigned to non-leaf node " +
                        std::to_string(leaf));
    if (leaf < 0 || leaf >= n) continue;
    SLP_AUDIT_CHECK(
        kCat,
        solution.filters[leaf].CoversRect(problem.subscriber(j).subscription),
        who + ": subscription not covered by leaf " + std::to_string(leaf) +
            "'s filter");
  }

  // Nesting: child filter rectangle-wise inside the parent's filter. The
  // publisher (node 0) has no filter; its children are exempt upward.
  for (int v = 0; v < n; ++v) {
    const int p = tree.parent(v);
    if (p == net::BrokerTree::kPublisher || p < 0) continue;
    SLP_AUDIT_CHECK(kCat,
                    solution.filters[p].CoversFilter(solution.filters[v]),
                    "node " + std::to_string(v) +
                        ": filter not nested in parent " +
                        std::to_string(p) + "'s filter");
  }
}

void AuditLiveFilters(const DynamicAssigner& dyn) {
  const net::BrokerTree& tree = dyn.tree();
  const int n = tree.num_nodes();
  for (int h = 0; h < dyn.slot_count(); ++h) {
    if (!dyn.is_occupied(h)) continue;
    const int leaf = dyn.leaf_of(h);
    if (leaf < 0) continue;  // orphaned or parked: nothing placed to check
    const std::string who = "handle " + std::to_string(h);
    SLP_AUDIT_CHECK(kCat, leaf > 0 && leaf < n && !tree.is_failed(leaf),
                    who + ": placed at invalid or failed leaf " +
                        std::to_string(leaf));
    if (leaf <= 0 || leaf >= n || tree.is_failed(leaf)) continue;
    const geo::Rectangle& sub = dyn.subscriber(h).subscription;
    for (int v : tree.LivePathFromRoot(leaf)) {
      if (v == net::BrokerTree::kPublisher) continue;
      const geo::Filter path_filter(dyn.filter(v));
      SLP_AUDIT_CHECK(kCat, path_filter.CoversRect(sub),
                      who + ": subscription not covered at live-path node " +
                          std::to_string(v));
    }
  }
}

}  // namespace slp::core
