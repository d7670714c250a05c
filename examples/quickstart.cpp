// Quickstart: build a small content-based pub/sub deployment, assign
// subscribers with Gr* and with SLP, and compare the solutions.
//
//   $ ./quickstart
//
// Walks through the full public API: workload generation, broker-tree
// construction, SaProblem setup, running algorithms, validating the
// solution, and reading the metrics.

#include <cstdio>

#include "src/core/assignment.h"
#include "src/core/greedy.h"
#include "src/core/metrics.h"
#include "src/core/slp.h"
#include "src/network/tree_builder.h"
#include "src/workload/googlegroups.h"

int main() {
  using namespace slp;

  // 1. A workload: 2,000 subscribers with rectangular interests in [0,1]^2
  //    and network locations in R^5 (three continents), plus 12 broker
  //    sites following the subscriber distribution.
  wl::Workload workload = wl::GenerateGoogleGroupsVariant(
      wl::Level::kHigh, wl::Level::kLow, /*num_subscribers=*/2000,
      /*num_brokers=*/12, /*seed=*/7);
  std::printf("workload: %s, %zu subscribers, %zu brokers\n",
              workload.name.c_str(), workload.subscribers.size(),
              workload.broker_locations.size());

  // 2. A dissemination tree: all brokers attached to the publisher.
  net::BrokerTree tree =
      net::BuildOneLevelTree(workload.publisher, workload.broker_locations);

  // 3. The SA problem: filter complexity α=3, relative delay cap 0.3,
  //    desired/maximum load-balance factors 1.5/1.8 (the paper's defaults).
  core::SaConfig config;
  core::SaProblem problem(std::move(tree), std::move(workload.subscribers),
                          config);

  // 4a. The offline greedy algorithm Gr*.
  Rng rng(7);
  core::SaSolution greedy = core::RunGrStar(problem, rng);

  // 4b. SLP — LP relaxation + rounding + max-flow. Slower, but it also
  //     yields the fractional lower bound used as an optimality yardstick.
  //     On this one-level tree it is the paper's SLP1.
  Rng rng2(7);
  auto slp = core::RunSlp(problem, core::SlpOptions{}, rng2);
  if (!slp.ok()) {
    std::printf("SLP failed: %s\n", slp.status().ToString().c_str());
    return 1;
  }

  // 5. Validate and compare.
  for (const core::SaSolution* s : {&greedy, &slp.value()}) {
    const Status st = ValidateSolution(problem, *s);
    const core::SolutionMetrics m = core::ComputeMetrics(problem, *s);
    std::printf(
        "\n%-5s bandwidth=%.4f  rms_delay=%.3f  lbf=%.2f  validation=%s\n",
        s->algorithm.c_str(), m.total_bandwidth, m.rms_delay, m.lbf,
        st.ok() ? "OK" : st.ToString().c_str());
  }
  std::printf(
      "\nLP fractional lower bound (yardstick): %.4f\n"
      "=> Gr* is within %.1fx of the bound on this workload.\n",
      slp.value().fractional_lower_bound,
      core::ComputeMetrics(problem, greedy).total_bandwidth /
          slp.value().fractional_lower_bound);
  return 0;
}
