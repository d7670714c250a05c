// Differential gate for the aggregation layer (DESIGN.md §14): the
// aggregate-solve-then-expand pipeline must agree with the direct solve on
// every workload family — identical feasibility, honest validation of the
// expanded solution, verbatim filter transfer (expanded Q(T) == compressed
// Q(T)), and bit-identical dissemination statistics from both matching
// engines on the SAME expanded solution. Plus property tests that the
// covering relation is a preorder (reflexive, transitive, antisymmetric up
// to rect equality) and that expansion is lossless at exact-cover.

#include <cstdint>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/agg/aggregation.h"
#include "src/agg/audit.h"
#include "src/common/random.h"
#include "src/core/metrics.h"
#include "src/network/tree_builder.h"
#include "src/sim/dissemination.h"
#include "src/workload/coverable.h"
#include "src/workload/googlegroups.h"
#include "src/workload/grid.h"
#include "src/workload/rss.h"
#include "tests/route_oracle.h"
#include "tests/test_util.h"

namespace slp::agg {
namespace {

enum class Family { kGrid, kGg, kRss };

core::SaProblem CoverableProblem(Family family, int subs, int brokers,
                                 uint64_t seed,
                                 core::SaConfig config = {}) {
  wl::Workload w;
  switch (family) {
    case Family::kGrid: {
      wl::GridParams p;
      p.num_subscribers = subs;
      p.num_brokers = brokers;
      p.seed = seed;
      w = wl::GenerateGrid(p);
      break;
    }
    case Family::kGg:
      w = wl::GenerateGoogleGroupsVariant(wl::Level::kHigh, wl::Level::kLow,
                                          subs, brokers, seed);
      break;
    case Family::kRss: {
      wl::RssParams p;
      p.num_subscribers = subs;
      p.num_brokers = brokers;
      p.seed = seed;
      w = wl::GenerateRss(p);
      break;
    }
  }
  wl::CoverableOptions cover;
  cover.fraction = 0.6;
  cover.dup_fraction = 0.5;
  Rng rng(seed ^ 0x9e3779b97f4a7c15ull);
  wl::MakeCoverable(&w, cover, rng);
  net::BrokerTree tree =
      net::BuildOneLevelTree(w.publisher, w.broker_locations);
  return core::SaProblem(std::move(tree), std::move(w.subscribers), config);
}

// The gate proper, per family: solve directly and through aggregation,
// then compare everything the expansion guarantees.
void RunDifferential(Family family, uint64_t seed) {
  const core::SaProblem problem = CoverableProblem(family, 700, 10, seed);

  AggregateSolveOptions options;  // eps = 0: exact covers only
  Rng rng_direct(7), rng_agg(7);
  const auto direct =
      core::RunSlp(problem, options.slp, rng_direct);
  ASSERT_TRUE(direct.ok()) << direct.status().message();

  AggregateSolveStats stats;
  const auto expanded_or = AggregateSolve(problem, options, rng_agg, &stats);
  ASSERT_TRUE(expanded_or.ok()) << expanded_or.status().message();
  const core::SaSolution& expanded = expanded_or.value();

  // The coverable transform must give the layer something to compress.
  EXPECT_GT(stats.compression_ratio, 1.3);
  EXPECT_LT(stats.aggregates, problem.num_subscribers());

  // Identical feasibility verdicts, and the expanded solution validates
  // against the ORIGINAL problem under the same guarantees it claims.
  EXPECT_EQ(expanded.latency_feasible, direct.value().latency_feasible);
  EXPECT_TRUE(expanded.latency_feasible);
  core::ValidationOptions validate;
  validate.check_load = expanded.load_feasible;
  const Status status = core::ValidateSolution(problem, expanded, validate);
  EXPECT_TRUE(status.ok()) << status.message();

  // Reproduce the compressed run AggregateSolve performed (BuildAggregation
  // is rng-free and the solve mirrors the effective max_members and the
  // certificate's enforce_load decision, so the same seed replays it
  // exactly).
  const Aggregation aggregation = BuildAggregation(
      problem, EffectiveAggregationOptions(problem, options.agg));
  const core::SaProblem compressed =
      BuildCompressedProblem(problem, aggregation);
  core::SlpOptions mirrored = options.slp;
  if (stats.compressed_load_infeasible) {
    mirrored.slp1.filter_assign.lp.enforce_load = false;
  }
  Rng rng_repeat(7);
  const auto compact = core::RunSlp(compressed, mirrored, rng_repeat);
  ASSERT_TRUE(compact.ok());

  // Every subscriber landed on its aggregate's leaf, except the exactly
  // repair_moves subscribers the post-expansion load repair shed from
  // overloaded leaves (each moves once, always off the aggregate's leaf).
  ASSERT_EQ(static_cast<int>(expanded.assignment.size()),
            problem.num_subscribers());
  int off_aggregate_leaf = 0;
  for (size_t a = 0; a < aggregation.aggregates.size(); ++a) {
    const int leaf = compact.value().assignment[a];
    for (int member : aggregation.aggregates[a].members) {
      off_aggregate_leaf += expanded.assignment[member] != leaf ? 1 : 0;
    }
  }
  EXPECT_EQ(off_aggregate_leaf, stats.repair_moves);

  // Filters transfer verbatim (the repair moves subscribers, never touches
  // filters), so the expanded Q(T) must equal the compressed run's Q(T)
  // exactly (same filters, same union volumes).
  EXPECT_DOUBLE_EQ(core::ComputeMetrics(problem, expanded).total_bandwidth,
                   core::ComputeMetrics(compressed, compact.value())
                       .total_bandwidth);

  // Dissemination differential: the SAME expanded solution routed by the
  // brute-force router (tests/route_oracle.h) and by Simulate yields
  // bit-identical statistics.
  Rng rng_events(99);
  std::vector<geo::Point> events;
  events.reserve(2000);
  geo::Rectangle space = problem.subscriber(0).subscription;
  for (int j = 1; j < problem.num_subscribers(); ++j) {
    space = space.EnclosureWith(problem.subscriber(j).subscription);
  }
  for (int e = 0; e < 2000; ++e) {
    geo::Point p(space.dim());
    for (int d = 0; d < space.dim(); ++d) {
      p[d] = rng_events.Uniform(space.lo(d), space.hi(d));
    }
    events.push_back(std::move(p));
  }
  const sim::DisseminationStats a =
      test::BruteForceSimulate(problem, expanded, events);
  const sim::DisseminationStats b = sim::Simulate(problem, expanded, events);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.total_messages, b.total_messages);
  EXPECT_EQ(a.deliveries, b.deliveries);
  EXPECT_EQ(a.wasted_leaf_hits, b.wasted_leaf_hits);
  EXPECT_EQ(a.missed_deliveries, b.missed_deliveries);
  EXPECT_EQ(a.unplaced_subscribers, b.unplaced_subscribers);
  ASSERT_EQ(a.broker_hits.size(), b.broker_hits.size());
  for (size_t v = 0; v < a.broker_hits.size(); ++v) {
    EXPECT_EQ(a.broker_hits[v], b.broker_hits[v]) << "node " << v;
  }
  // Coverage + nesting of the expanded solution imply no false negatives.
  EXPECT_EQ(a.missed_deliveries, 0);
}

TEST(AggDifferentialTest, GridGate) { RunDifferential(Family::kGrid, 11); }
TEST(AggDifferentialTest, GoogleGroupsGate) {
  RunDifferential(Family::kGg, 12);
}
TEST(AggDifferentialTest, RssGate) { RunDifferential(Family::kRss, 13); }

TEST(AggDifferentialTest, AuditAcceptsEveryFamily) {
  for (Family family : {Family::kGrid, Family::kGg, Family::kRss}) {
    const core::SaProblem problem =
        CoverableProblem(family, 500, 8, 21 + static_cast<int>(family));
    for (double eps : {0.0, 0.25}) {
      AggregationOptions options;
      options.eps = eps;
      AuditAggregation(problem, BuildAggregation(problem, options));
    }
  }
}

TEST(AggDifferentialTest, EpsZeroNeverGrowsTheRect) {
  const core::SaProblem problem = CoverableProblem(Family::kGrid, 600, 10, 5);
  AggregationOptions options;  // eps = 0
  const Aggregation aggregation = BuildAggregation(problem, options);
  for (const Aggregate& agg : aggregation.aggregates) {
    const geo::Rectangle& own = problem.subscriber(agg.rep).subscription;
    EXPECT_EQ(agg.rect.lo(), own.lo());
    EXPECT_EQ(agg.rect.hi(), own.hi());
  }
}

TEST(AggDifferentialTest, EpsBoundsRectGrowth) {
  const double eps = 0.25;
  for (uint64_t seed : {5u, 6u, 7u}) {
    const core::SaProblem problem =
        CoverableProblem(Family::kGrid, 600, 10, seed);
    AggregationOptions options;
    options.eps = eps;
    const Aggregation aggregation = BuildAggregation(problem, options);
    for (const Aggregate& agg : aggregation.aggregates) {
      const double own_vol =
          problem.subscriber(agg.rep).subscription.Volume();
      EXPECT_LE(agg.rect.Volume(), (1 + eps) * own_vol + 1e-9);
      // The rect still contains every member (growth, never drift).
      for (int member : agg.members) {
        EXPECT_TRUE(
            agg.rect.Contains(problem.subscriber(member).subscription));
      }
    }
  }
}

TEST(AggDifferentialTest, EpsAdmitsAtLeastAsManyMerges) {
  const core::SaProblem problem = CoverableProblem(Family::kGg, 700, 10, 9);
  AggregationOptions exact, slack;
  slack.eps = 0.5;
  const size_t exact_aggs =
      BuildAggregation(problem, exact).aggregates.size();
  const size_t slack_aggs =
      BuildAggregation(problem, slack).aggregates.size();
  EXPECT_LE(slack_aggs, exact_aggs);
}

TEST(AggDifferentialTest, MaxMembersCapsAggregates) {
  const core::SaProblem problem = CoverableProblem(Family::kGrid, 600, 10, 3);
  AggregationOptions options;
  options.max_members = 4;
  const Aggregation aggregation = BuildAggregation(problem, options);
  for (const Aggregate& agg : aggregation.aggregates) {
    EXPECT_LE(static_cast<int>(agg.members.size()), 4);
  }
  AuditAggregation(problem, aggregation);
}

// Covering is a preorder: reflexive, transitive on sampled triples, and
// antisymmetric up to rectangle equality (so strict covering is acyclic).
// >= 1000 seeded cases across families, rules, and seeds.
TEST(AggDifferentialTest, CoveringIsAPreorder) {
  int cases = 0;
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    for (CompatRule rule : {CompatRule::kExact, CompatRule::kTriangle}) {
      const core::SaProblem problem = CoverableProblem(
          seed % 2 == 0 ? Family::kGrid : Family::kGg, 400, 8, seed);
      AggregationOptions options;
      options.compat = rule;
      const int m = problem.num_subscribers();
      Rng rng(seed * 1000 + static_cast<int>(rule));
      for (int t = 0; t < 120; ++t, ++cases) {
        const int a = static_cast<int>(rng.UniformInt(0, m - 1));
        const int b = static_cast<int>(rng.UniformInt(0, m - 1));
        const int c = static_cast<int>(rng.UniformInt(0, m - 1));
        ASSERT_TRUE(Covers(problem, a, a, options)) << "not reflexive";
        if (Covers(problem, a, b, options) &&
            Covers(problem, b, c, options)) {
          EXPECT_TRUE(Covers(problem, a, c, options))
              << "not transitive: " << a << " -> " << b << " -> " << c;
        }
        if (Covers(problem, a, b, options) &&
            Covers(problem, b, a, options)) {
          // Mutual covering forces equal rectangles — no strict cycle.
          EXPECT_TRUE(
              problem.subscriber(a).subscription.Contains(
                  problem.subscriber(b).subscription) &&
              problem.subscriber(b).subscription.Contains(
                  problem.subscriber(a).subscription));
        }
      }
    }
  }
  EXPECT_GE(cases, 1000);
}

// At exact-cover every membership is justified by the covering relation:
// expansion is lossless (member feasibility is implied, never assumed).
TEST(AggDifferentialTest, ExactCoverMembershipIsJustified) {
  for (Family family : {Family::kGrid, Family::kGg, Family::kRss}) {
    const core::SaProblem problem =
        CoverableProblem(family, 500, 8, 31 + static_cast<int>(family));
    AggregationOptions options;  // eps = 0
    const Aggregation aggregation = BuildAggregation(problem, options);
    int members_total = 0;
    for (const Aggregate& agg : aggregation.aggregates) {
      for (int member : agg.members) {
        ++members_total;
        EXPECT_TRUE(Covers(problem, agg.rep, member, options))
            << "rep " << agg.rep << " member " << member;
      }
    }
    EXPECT_EQ(members_total, problem.num_subscribers());
  }
}

// Aggregation is a pure function of (problem, options).
TEST(AggDifferentialTest, BuildIsDeterministic) {
  const core::SaProblem problem = CoverableProblem(Family::kRss, 600, 10, 17);
  AggregationOptions options;
  options.eps = 0.2;
  const Aggregation x = BuildAggregation(problem, options);
  const Aggregation y = BuildAggregation(problem, options);
  ASSERT_EQ(x.aggregates.size(), y.aggregates.size());
  for (size_t a = 0; a < x.aggregates.size(); ++a) {
    EXPECT_EQ(x.aggregates[a].rep, y.aggregates[a].rep);
    EXPECT_EQ(x.aggregates[a].members, y.aggregates[a].members);
  }
  EXPECT_EQ(x.agg_of, y.agg_of);
}

// All-ones weights must be bit-identical to the unweighted path — the
// compressed solve relies on the weighted core degrading exactly to the
// historical behaviour when every multiplicity is 1.
TEST(AggDifferentialTest, UnitWeightsAreBitIdenticalToUnweighted) {
  const core::SaProblem plain = test::SmallGridProblem(500, 10);
  core::SaProblem weighted = test::SmallGridProblem(500, 10);
  weighted.SetWeights(
      std::vector<double>(weighted.num_subscribers(), 1.0));
  core::SlpOptions options;
  Rng rng_a(3), rng_b(3);
  const auto a = core::RunSlp(plain, options, rng_a);
  const auto b = core::RunSlp(weighted, options, rng_b);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.value().assignment, b.value().assignment);
  EXPECT_EQ(a.value().load_feasible, b.value().load_feasible);
  EXPECT_EQ(a.value().latency_feasible, b.value().latency_feasible);
  ASSERT_EQ(a.value().filters.size(), b.value().filters.size());
  for (size_t v = 0; v < a.value().filters.size(); ++v) {
    const auto& fa = a.value().filters[v].rects();
    const auto& fb = b.value().filters[v].rects();
    ASSERT_EQ(fa.size(), fb.size()) << "node " << v;
    for (size_t r = 0; r < fa.size(); ++r) {
      EXPECT_EQ(fa[r].lo(), fb[r].lo());
      EXPECT_EQ(fa[r].hi(), fb[r].hi());
    }
  }
}

}  // namespace
}  // namespace slp::agg
