// Table I — bandwidth comparison on workload set #1 (one-level network):
// the LP fractional solution (the yardstick lower bound) vs SLP1, Gr*, Gr
// for each of the four (IS, BI) workloads. SLP1 is RunSlp on the one-level
// tree; the fractional solution is its root-stage LP objective.
//
// Expected shape (paper): SLP1 and Gr* land within a small factor
// (paper: 1.3—2.7x) of the fractional solution; Gr is consistently worse.

#include "bench/bench_util.h"

int main() {
  using namespace slp;
  using namespace slp::bench;

  const int subs = EnvInt("SLP_SUBS", 3000);
  const int brokers = EnvInt("SLP_BROKERS", 20);
  const uint64_t seed = EnvSeed();
  core::SaConfig config;

  PrintHeader("Table I: bandwidth comparison (workload set #1), " +
              std::to_string(subs) + " subscribers, " +
              std::to_string(brokers) + " brokers");
  std::printf("%-14s %12s %10s %10s %10s %12s %12s\n", "workload",
              "fractional", "SLP", "Gr*", "Gr", "SLP/frac", "Gr*/frac");

  for (const auto& [wname, levels] : Set1Variants()) {
    wl::Workload w = wl::GenerateGoogleGroupsVariant(
        levels.first, levels.second, subs, brokers, seed);
    core::SaProblem problem = MakeOneLevelProblem(std::move(w), config);

    RunResult slp = RunAlgorithm("SLP", &RunSlpAdapter, problem, seed);
    RunResult gr_star = RunAlgorithm("Gr*", &core::RunGrStar, problem, seed);
    RunResult gr = RunAlgorithm("Gr", &core::RunGr, problem, seed);
    const double frac = slp.solution.fractional_lower_bound;

    std::printf("%-14s %12.4f %10.4f %10.4f %10.4f %12.2f %12.2f\n",
                wname.c_str(), frac, slp.metrics.total_bandwidth,
                gr_star.metrics.total_bandwidth, gr.metrics.total_bandwidth,
                frac > 0 ? slp.metrics.total_bandwidth / frac : 0.0,
                frac > 0 ? gr_star.metrics.total_bandwidth / frac : 0.0);
  }
  std::printf(
      "\nNote: the fractional solution is the optimal LP objective over the\n"
      "sampled coreset and candidate rectangles (Section IV-D); ratios in\n"
      "the paper fall between 1.3 and 2.7 for SLP1/Gr*.\n");
  return 0;
}
