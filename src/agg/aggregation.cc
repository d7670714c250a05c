#include "src/agg/aggregation.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>

#include "src/agg/audit.h"
#include "src/common/invariant.h"
#include "src/core/audit.h"
#include "src/core/candidates.h"
#include "src/flow/max_flow.h"
#include "src/geometry/point.h"
#include "src/match/subsumption.h"

namespace slp::agg {

namespace {

// Latency compatibility of `member` against `rep` (condition (L)):
// `feasible_leaves` is rep's memoized latency-feasible leaf-node list,
// consulted only under kExact (pass the memo for the rep in question).
bool CompatAgainst(const core::SaProblem& problem, int member, int rep,
                   const std::vector<int>& feasible_leaves,
                   CompatRule rule) {
  if (member == rep) return true;
  if (rule == CompatRule::kTriangle) {
    const double d = geo::Distance(problem.subscriber(member).location,
                                   problem.subscriber(rep).location);
    return problem.latency_bound(member) + 1e-12 >=
           problem.latency_bound(rep) + d;
  }
  for (int leaf : feasible_leaves) {
    if (!problem.LatencyOk(member, leaf)) return false;
  }
  return true;
}

std::vector<int> FeasibleLeaves(const core::SaProblem& problem, int j) {
  std::vector<int> out;
  for (int i = 0; i < problem.num_leaves(); ++i) {
    const int leaf = problem.leaf_node(i);
    if (problem.LatencyOk(j, leaf)) out.push_back(leaf);
  }
  return out;
}

// Lexicographic comparison key for the dedup phase: two subscribers with
// identical (subscription, location) are interchangeable — same latency
// bound (a function of the location alone), same coverage needs.
bool DedupLess(const core::SaProblem& problem, int a, int b) {
  const auto& sa = problem.subscriber(a);
  const auto& sb = problem.subscriber(b);
  if (sa.subscription.lo() != sb.subscription.lo()) {
    return sa.subscription.lo() < sb.subscription.lo();
  }
  if (sa.subscription.hi() != sb.subscription.hi()) {
    return sa.subscription.hi() < sb.subscription.hi();
  }
  if (sa.location != sb.location) return sa.location < sb.location;
  return a < b;
}

bool DedupEqual(const core::SaProblem& problem, int a, int b) {
  const auto& sa = problem.subscriber(a);
  const auto& sb = problem.subscriber(b);
  return sa.subscription == sb.subscription && sa.location == sb.location;
}

// Max-flow certificate: can the weighted rows be fractionally packed under
// the β_max leaf caps using latency candidates alone? Filters only ever
// shrink a row's options, so "no" here means the instance is
// load-infeasible no matter what FilterAssign produces — the LP's (C3)
// escalation ladder (β, β_max, then unconstrained) would burn several
// infeasible LP solves to learn the same thing.
bool LoadFeasibleAtBetaMax(const core::SaProblem& problem) {
  const core::Targets targets =
      core::BuildLeafTargets(problem, core::AllSubscribers(problem));
  const int rows = static_cast<int>(targets.subscribers.size());
  const int nt = targets.count;
  flow::MaxFlow mf(2 + nt + rows);
  const int s = 0, t_node = 1;
  for (int t = 0; t < nt; ++t) {
    mf.AddEdge(2 + t, t_node,
               static_cast<int64_t>(std::floor(
                   targets.AbsCap(t, problem.config().beta_max) + 1e-9)));
  }
  int64_t supply = 0;
  for (int r = 0; r < rows; ++r) {
    const int64_t units = std::llround(targets.row_weight(r));
    supply += units;
    mf.AddEdge(s, 2 + nt + r, units);
    for (const int t : targets.candidates(r)) {
      mf.AddEdge(2 + nt + r, 2 + t, units);
    }
  }
  return mf.Solve(s, t_node) >= supply;
}

}  // namespace

int RepairExpandedLoad(const core::SaProblem& problem,
                       core::SaSolution* solution) {
  SLP_DCHECK(solution != nullptr);
  const int m = problem.num_subscribers();
  const int nl = problem.num_leaves();
  std::vector<int> leaf_index(solution->filters.size(), -1);
  std::vector<double> load(nl, 0), cap(nl);
  for (int i = 0; i < nl; ++i) {
    leaf_index[problem.leaf_node(i)] = i;
    cap[i] = problem.config().beta_max * problem.capacity_fraction(i) *
             problem.total_weight();
  }
  std::vector<std::vector<int>> at(nl);
  for (int j = 0; j < m; ++j) {
    const int i = leaf_index[solution->assignment[j]];
    load[i] += problem.weight(j);
    at[i].push_back(j);  // ascending j: deterministic shed order
  }
  int moves = 0;
  for (int i = 0; i < nl; ++i) {
    if (load[i] <= cap[i] + 1e-9) continue;
    for (const int j : at[i]) {
      if (load[i] <= cap[i] + 1e-9) break;
      const double w = problem.weight(j);
      const auto& sub = problem.subscriber(j).subscription;
      int best = -1;
      double best_slack = 0;
      for (int k = 0; k < nl; ++k) {
        if (k == i) continue;
        const double slack = cap[k] - load[k] - w;
        if (slack < -1e-9 || (best >= 0 && slack <= best_slack)) continue;
        const int node = problem.leaf_node(k);
        if (!problem.LatencyOk(j, node)) continue;
        if (!solution->filters[node].CoversRect(sub)) continue;
        best = k;
        best_slack = slack;
      }
      if (best < 0) continue;
      solution->assignment[j] = problem.leaf_node(best);
      load[i] -= w;
      load[best] += w;
      ++moves;
    }
  }
  solution->load_feasible = core::LoadBalanceFactor(problem, *solution) <=
                            problem.config().beta_max + 1e-9;
  return moves;
}

AggregationOptions EffectiveAggregationOptions(const core::SaProblem& problem,
                                               AggregationOptions options) {
  if (options.max_members != 0) return options;
  // Derive a load-aware cap: an aggregate's multiplicity is indivisible
  // load, so a group heavier than the tightest leaf's β-budget makes the
  // compressed instance load-infeasible outright and sends the LP ladder
  // through futile escalations. An eighth of the budget keeps the flow
  // rounding's per-leaf overshoot within the β→β_max slack (items of at
  // most C/8 first-fit to within C/8 of any cap), which in practice
  // keeps the compressed solve at one LP call and load-feasible.
  double min_kappa = 1.0;
  for (int i = 0; i < problem.num_leaves(); ++i) {
    min_kappa = std::min(min_kappa, problem.capacity_fraction(i));
  }
  options.max_members = std::max(
      1, static_cast<int>(problem.config().beta * min_kappa *
                          problem.num_subscribers() / 8));
  return options;
}

bool Covers(const core::SaProblem& problem, int coverer, int covered,
            const AggregationOptions& options) {
  if (!problem.subscriber(coverer).subscription.Contains(
          problem.subscriber(covered).subscription)) {
    return false;
  }
  if (options.compat == CompatRule::kTriangle) {
    return CompatAgainst(problem, covered, coverer, {}, CompatRule::kTriangle);
  }
  return CompatAgainst(problem, covered, coverer,
                       FeasibleLeaves(problem, coverer), CompatRule::kExact);
}

Aggregation BuildAggregation(const core::SaProblem& problem,
                             const AggregationOptions& options) {
  const int m = problem.num_subscribers();
  Aggregation out;
  out.num_subscribers = m;
  out.agg_of.assign(m, -1);
  if (m == 0) return out;

  // ---- Phase 0: flatten exact duplicates. ----
  // Identical (subscription, location) pairs have identical latency bounds
  // and identical candidate sets, so attaching a whole group wherever its
  // root goes is exact regardless of eps. The group root is the smallest
  // subscriber index (sort ties break by id).
  std::vector<int> order(m);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    return DedupLess(problem, a, b);
  });
  struct Group {
    int root;
    std::vector<int> members;  // ascending (run order is id-ascending)
  };
  std::vector<Group> groups;
  const int chunk_cap = options.max_members > 0 ? options.max_members : m;
  for (int i = 0; i < m;) {
    int e = i + 1;
    while (e < m && DedupEqual(problem, order[i], order[e])) ++e;
    // A run larger than max_members is split into id-ascending chunks so
    // no single aggregate can exceed the cap even on degenerate
    // all-duplicates workloads.
    for (int c = i; c < e; c += chunk_cap) {
      Group g;
      g.root = order[c];
      for (int k = c; k < std::min(e, c + chunk_cap); ++k) {
        g.members.push_back(order[k]);
      }
      groups.push_back(std::move(g));
    }
    i = e;
  }

  // ---- Phase 1: absorb groups into representatives, big rects first. ----
  // Descending seed volume guarantees a member never precedes a rect that
  // could cover it, and makes the aggregation single-level: every group
  // either joins an existing representative or becomes one.
  std::vector<int> gorder(groups.size());
  std::iota(gorder.begin(), gorder.end(), 0);
  std::sort(gorder.begin(), gorder.end(), [&](int a, int b) {
    const double va =
        problem.subscriber(groups[a].root).subscription.Volume();
    const double vb =
        problem.subscriber(groups[b].root).subscription.Volume();
    if (va != vb) return va > vb;
    return groups[a].root < groups[b].root;
  });

  match::SubsumptionIndex index;
  std::vector<double> seed_vol;                  // per aggregate
  std::vector<std::vector<int>> feasible_memo;   // per aggregate (kExact)
  std::vector<char> feasible_built;
  std::vector<int32_t> cands;

  for (int gi : gorder) {
    const Group& g = groups[gi];
    const geo::Rectangle& r = problem.subscriber(g.root).subscription;

    // Candidate representatives: aggregates whose *seed* rect contains r's
    // lo corner (a rect containing r must contain its corners; for eps
    // merges this is the documented discovery heuristic).
    cands.clear();
    index.AppendCoverers(geo::Rectangle::FromPoint(r.lo()), &cands);

    int best = -1;
    double best_vol = -1;
    for (const int32_t a : cands) {
      Aggregate& agg = out.aggregates[a];
      if (options.max_members > 0 &&
          agg.members.size() + g.members.size() >
              static_cast<size_t>(options.max_members)) {
        continue;
      }
      // Rect admission: exact cover, or eps-bounded growth of the
      // aggregate rect relative to the representative's own subscription.
      bool rect_ok = agg.rect.Contains(r);
      if (!rect_ok && options.eps > 0) {
        rect_ok = agg.rect.EnclosureVolume(r) <=
                  (1.0 + options.eps) * seed_vol[a] + 1e-12;
      }
      if (!rect_ok) continue;
      if (options.compat == CompatRule::kExact && !feasible_built[a]) {
        feasible_memo[a] = FeasibleLeaves(problem, agg.rep);
        feasible_built[a] = 1;
      }
      if (!CompatAgainst(problem, g.root, agg.rep, feasible_memo[a],
                         options.compat)) {
        continue;
      }
      // Prefer the largest seed (ties to the earliest-created aggregate —
      // candidates arrive in ascending id order, so strict > keeps it).
      if (seed_vol[a] > best_vol) {
        best_vol = seed_vol[a];
        best = a;
      }
    }

    if (best >= 0) {
      Aggregate& agg = out.aggregates[best];
      if (!agg.rect.Contains(r)) agg.rect.Enclose(r);
      for (int j : g.members) {
        agg.members.push_back(j);
        out.agg_of[j] = best;
      }
    } else {
      const int a = static_cast<int>(out.aggregates.size());
      Aggregate agg;
      agg.rep = g.root;
      agg.rect = r;
      agg.members = g.members;
      for (int j : g.members) out.agg_of[j] = a;
      out.aggregates.push_back(std::move(agg));
      seed_vol.push_back(r.Volume());
      feasible_memo.emplace_back();
      feasible_built.push_back(0);
      index.Insert(a, r);
    }
  }

  // ---- Normalize to the determinism contract. ----
  // Aggregates ascending by representative, members ascending within each;
  // the compressed problem's row order then depends only on the input.
  std::vector<int> aorder(out.aggregates.size());
  std::iota(aorder.begin(), aorder.end(), 0);
  std::sort(aorder.begin(), aorder.end(), [&](int a, int b) {
    return out.aggregates[a].rep < out.aggregates[b].rep;
  });
  std::vector<Aggregate> sorted;
  sorted.reserve(out.aggregates.size());
  for (int a : aorder) sorted.push_back(std::move(out.aggregates[a]));
  out.aggregates = std::move(sorted);
  for (size_t a = 0; a < out.aggregates.size(); ++a) {
    std::sort(out.aggregates[a].members.begin(),
              out.aggregates[a].members.end());
    for (int j : out.aggregates[a].members) {
      out.agg_of[j] = static_cast<int>(a);
    }
  }
  return out;
}

core::SaProblem BuildCompressedProblem(const core::SaProblem& problem,
                                       const Aggregation& aggregation) {
  std::vector<wl::Subscriber> subs;
  std::vector<double> weights;
  subs.reserve(aggregation.aggregates.size());
  weights.reserve(aggregation.aggregates.size());
  for (const Aggregate& a : aggregation.aggregates) {
    subs.push_back({problem.subscriber(a.rep).location, a.rect});
    weights.push_back(static_cast<double>(a.members.size()));
  }
  std::vector<double> kappa(problem.num_leaves());
  for (int i = 0; i < problem.num_leaves(); ++i) {
    kappa[i] = problem.capacity_fraction(i);
  }
  core::SaProblem out(problem.tree(), std::move(subs), problem.config(),
                      std::move(kappa));
  out.SetWeights(std::move(weights));
  return out;
}

core::SaSolution ExpandSolution(const core::SaProblem& problem,
                                const Aggregation& aggregation,
                                const core::SaSolution& compressed) {
  SLP_DCHECK(compressed.assignment.size() == aggregation.aggregates.size());
  core::SaSolution out;
  out.algorithm = compressed.algorithm + "+agg";
  out.filters = compressed.filters;
  out.fractional_lower_bound = compressed.fractional_lower_bound;
  out.assignment.assign(problem.num_subscribers(), -1);
  for (size_t a = 0; a < aggregation.aggregates.size(); ++a) {
    const int leaf = compressed.assignment[a];
    for (int j : aggregation.aggregates[a].members) {
      out.assignment[j] = leaf;
    }
  }
  // Honest flags against the ORIGINAL problem. The covering rule makes
  // latency feasibility follow from the compressed solution's, but the
  // flag is measured, never assumed; the load flag is exactly the
  // compressed (weighted) one because member counts are the weights.
  out.latency_feasible = true;
  for (int j = 0; j < problem.num_subscribers(); ++j) {
    out.latency_feasible &= problem.LatencyOk(j, out.assignment[j]);
  }
  out.load_feasible = core::LoadBalanceFactor(problem, out) <=
                      problem.config().beta_max + 1e-9;
  return out;
}

Result<core::SaSolution> AggregateSolve(const core::SaProblem& problem,
                                        const AggregateSolveOptions& options,
                                        Rng& rng,
                                        AggregateSolveStats* stats) {
  const Aggregation aggregation = BuildAggregation(
      problem, EffectiveAggregationOptions(problem, options.agg));
#if SLP_AUDITS_ENABLED
  AuditAggregation(problem, aggregation);
#endif
  const core::SaProblem compressed =
      BuildCompressedProblem(problem, aggregation);
  // Certify load feasibility before solving: a structurally infeasible
  // compressed instance (weight concentrated beyond its latency
  // neighborhood's caps) would drag FilterAssign through its whole
  // infeasible-LP escalation ladder. One max-flow proves it upfront; the
  // solve then goes straight to the coverage-only LP and the expansion
  // repair below restores load feasibility at member granularity.
  core::SlpOptions slp_options = options.slp;
  const bool certificate_infeasible = !LoadFeasibleAtBetaMax(compressed);
  if (certificate_infeasible) {
    slp_options.slp1.filter_assign.lp.enforce_load = false;
  }
  core::SlpStats slp_stats;
  Result<core::SaSolution> solved =
      core::RunSlp(compressed, slp_options, rng, &slp_stats);
  if (stats != nullptr) {
    stats->slp = slp_stats;
    stats->aggregates = static_cast<int>(aggregation.aggregates.size());
    stats->compression_ratio = aggregation.CompressionRatio();
    stats->compressed_load_infeasible = certificate_infeasible;
  }
  if (!solved.ok()) return solved.status();
  core::SaSolution expanded =
      ExpandSolution(problem, aggregation, solved.value());
  if (!expanded.load_feasible) {
    const int moves = RepairExpandedLoad(problem, &expanded);
    if (stats != nullptr) stats->repair_moves = moves;
  }
#if SLP_AUDITS_ENABLED
  core::AuditNesting(problem, expanded);
#endif
  return expanded;
}

}  // namespace slp::agg
