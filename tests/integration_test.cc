// Cross-module integration sweeps: every algorithm on every workload
// family, with the full invariant battery. These are the regression nets
// for the end-to-end pipeline (workload -> tree -> problem -> algorithm ->
// validation/metrics/simulation).

#include <cmath>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/balance.h"
#include "src/core/closest.h"
#include "src/core/greedy.h"
#include "src/core/metrics.h"
#include "src/core/slp.h"
#include "src/network/tree_builder.h"
#include "src/sim/dissemination.h"
#include "src/workload/googlegroups.h"
#include "src/workload/grid.h"
#include "src/workload/rss.h"

namespace slp {
namespace {

enum class WorkloadKind { kGoogleGroups, kRss, kGrid };
enum class AlgoKind { kGr, kGrStar, kGrNoLat, kClosest, kClosestNb, kBalance };

const char* Name(WorkloadKind w) {
  switch (w) {
    case WorkloadKind::kGoogleGroups: return "googlegroups";
    case WorkloadKind::kRss: return "rss";
    case WorkloadKind::kGrid: return "grid";
  }
  return "?";
}

const char* Name(AlgoKind a) {
  switch (a) {
    case AlgoKind::kGr: return "Gr";
    case AlgoKind::kGrStar: return "Gr*";
    case AlgoKind::kGrNoLat: return "Gr-l";
    case AlgoKind::kClosest: return "Closest";
    case AlgoKind::kClosestNb: return "Closest-b";
    case AlgoKind::kBalance: return "Balance";
  }
  return "?";
}

core::SaProblem MakeProblem(WorkloadKind kind, bool multi_level,
                            uint64_t seed) {
  wl::Workload w;
  core::SaConfig config;
  switch (kind) {
    case WorkloadKind::kGoogleGroups:
      w = wl::GenerateGoogleGroupsVariant(wl::Level::kHigh, wl::Level::kLow,
                                          600, 10, seed);
      break;
    case WorkloadKind::kRss: {
      wl::RssParams p;
      p.num_subscribers = 600;
      p.num_brokers = 10;
      p.seed = seed;
      w = wl::GenerateRss(p);
      config.beta = 2.3;
      config.beta_max = 2.5;
      break;
    }
    case WorkloadKind::kGrid: {
      wl::GridParams p;
      p.num_subscribers = 600;
      p.num_brokers = 10;
      p.seed = seed;
      w = wl::GenerateGrid(p);
      break;
    }
  }
  if (multi_level) {
    Rng rng(seed);
    net::BrokerTree tree =
        net::BuildMultiLevelTree(w.publisher, w.broker_locations, 4, rng);
    return core::SaProblem(std::move(tree), std::move(w.subscribers), config);
  }
  net::BrokerTree tree = net::BuildOneLevelTree(w.publisher, w.broker_locations);
  return core::SaProblem(std::move(tree), std::move(w.subscribers), config);
}

core::SaSolution RunAlgo(AlgoKind algo, const core::SaProblem& p, Rng& rng) {
  switch (algo) {
    case AlgoKind::kGr: return core::RunGr(p, rng);
    case AlgoKind::kGrStar: return core::RunGrStar(p, rng);
    case AlgoKind::kGrNoLat: return core::RunGrNoLatency(p, rng);
    case AlgoKind::kClosest: return core::RunClosest(p, rng);
    case AlgoKind::kClosestNb: return core::RunClosestNoBalance(p, rng);
    case AlgoKind::kBalance: return core::RunBalance(p, rng);
  }
  SLP_CHECK(false);
  return {};
}

using Combo = std::tuple<int /*WorkloadKind*/, int /*AlgoKind*/, bool>;

class AlgorithmWorkloadSweep : public ::testing::TestWithParam<Combo> {};

TEST_P(AlgorithmWorkloadSweep, InvariantsHold) {
  const auto [wk, ak, multi_level] = GetParam();
  const auto workload = static_cast<WorkloadKind>(wk);
  const auto algo = static_cast<AlgoKind>(ak);
  SCOPED_TRACE(std::string(Name(workload)) + " / " + Name(algo) +
               (multi_level ? " / multi-level" : " / one-level"));

  core::SaProblem problem = MakeProblem(workload, multi_level, 5);
  Rng rng(5);
  const core::SaSolution solution = RunAlgo(algo, problem, rng);

  // Structure (assignment, coverage, nesting, complexity) always holds.
  core::ValidationOptions opts;
  opts.check_latency = false;
  opts.check_load = false;
  const Status st = ValidateSolution(problem, solution, opts);
  EXPECT_TRUE(st.ok()) << st.ToString();

  // Latency: guaranteed unless the algorithm drops the constraint.
  const bool latency_guaranteed =
      algo == AlgoKind::kGr || algo == AlgoKind::kGrStar ||
      algo == AlgoKind::kBalance;
  if (latency_guaranteed) {
    for (int j = 0; j < problem.num_subscribers(); ++j) {
      ASSERT_TRUE(problem.LatencyOk(j, solution.assignment[j]))
          << "subscriber " << j;
    }
    EXPECT_TRUE(solution.latency_feasible);
  }

  // Load: within cap whenever the algorithm claims it.
  if (solution.load_feasible &&
      (algo == AlgoKind::kGr || algo == AlgoKind::kGrStar ||
       algo == AlgoKind::kGrNoLat || algo == AlgoKind::kClosest)) {
    EXPECT_LE(core::LoadBalanceFactor(problem, solution),
              problem.config().beta_max + 1e-6);
  }

  // Metrics self-consistency.
  const core::SolutionMetrics m = core::ComputeMetrics(problem, solution);
  EXPECT_NEAR(m.lbf, core::LoadBalanceFactor(problem, solution), 1e-12);
  EXPECT_LE(m.total_bandwidth, m.total_bandwidth_sum + 1e-9);
  EXPECT_GE(m.rms_delay, m.mean_delay - 1e-9);  // RMS >= mean for >=0 data
  int total_load = 0;
  for (int l : m.loads) total_load += l;
  EXPECT_EQ(total_load, problem.num_subscribers());

  // End-to-end dissemination: never a false negative.
  Rng ev_rng(6);
  geo::Rectangle event_box({0, 0}, {1, 1});
  if (workload == WorkloadKind::kRss) {
    event_box = geo::Rectangle({0, 0}, {10, 10});
  }
  const sim::DisseminationStats stats =
      sim::SimulateUniform(problem, solution, event_box, 2000, ev_rng);
  EXPECT_EQ(stats.missed_deliveries, 0);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AlgorithmWorkloadSweep,
    ::testing::Combine(::testing::Range(0, 3), ::testing::Range(0, 6),
                       ::testing::Bool()),
    [](const ::testing::TestParamInfo<Combo>& info) {
      // No structured bindings here: commas inside [] are not protected
      // from the macro preprocessor.
      std::string name =
          std::string(Name(static_cast<WorkloadKind>(std::get<0>(info.param)))) +
          "_" + Name(static_cast<AlgoKind>(std::get<1>(info.param))) +
          (std::get<2>(info.param) ? "_multi" : "_one");
      for (char& c : name) {
        if (c == '*') c = 'S';
        if (c == '-') c = '_';
      }
      return name;
    });

// Balance provides the lbf floor for every latency-respecting algorithm.
class BalanceFloorSweep : public ::testing::TestWithParam<int> {};

TEST_P(BalanceFloorSweep, BalanceLbfIsFloor) {
  core::SaProblem problem =
      MakeProblem(static_cast<WorkloadKind>(GetParam()), false, 11);
  Rng rng(11);
  const double floor_lbf =
      core::LoadBalanceFactor(problem, core::RunBalance(problem, rng));
  for (AlgoKind algo : {AlgoKind::kGr, AlgoKind::kGrStar}) {
    Rng r2(11);
    const double lbf =
        core::LoadBalanceFactor(problem, RunAlgo(algo, problem, r2));
    EXPECT_LE(floor_lbf, lbf + 1e-6) << Name(algo);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, BalanceFloorSweep, ::testing::Range(0, 3));

// SLP1 (RunSlp on a one-level tree) end-to-end on each workload family
// (slower; one seed each).
class Slp1WorkloadSweep : public ::testing::TestWithParam<int> {};

TEST_P(Slp1WorkloadSweep, ProducesValidYardstick) {
  core::SaProblem problem =
      MakeProblem(static_cast<WorkloadKind>(GetParam()), false, 21);
  Rng rng(21);
  auto result = core::RunSlp(problem, core::SlpOptions{}, rng);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const core::SaSolution& s = result.value();
  core::ValidationOptions opts;
  opts.check_load = s.load_feasible;
  EXPECT_TRUE(ValidateSolution(problem, s, opts).ok())
      << ValidateSolution(problem, s, opts).ToString();
  EXPECT_GT(s.fractional_lower_bound, 0);
  // The bound must sit below the trivial everything-everywhere solution.
  double trivial = 0;
  std::vector<geo::Rectangle> all;
  for (int j = 0; j < problem.num_subscribers(); ++j) {
    all.push_back(problem.subscriber(j).subscription);
  }
  trivial = geo::Rectangle::Meb(all).Volume() * problem.num_leaves();
  EXPECT_LT(s.fractional_lower_bound, trivial + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Sweep, Slp1WorkloadSweep, ::testing::Range(0, 3));

}  // namespace
}  // namespace slp
