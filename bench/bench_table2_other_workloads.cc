// Table II — bandwidth comparison on workload sets #2 (RSS) and #3 (grid):
// the LP fractional solution vs SLP1, Gr*, and Gr¬l (one-level network).
// SLP1 is RunSlp on the one-level tree; the fractional solution is its
// root-stage LP objective.
//
// Expected shape (paper): on set #2 Gr* can even undercut the fractional
// solution (the bound is over the sampled candidate set), while Gr¬l's
// bandwidth is absurdly low because it ignores latency — too good to be a
// meaningful yardstick. On set #3 all three land close together.

#include "bench/bench_util.h"

int main() {
  using namespace slp;
  using namespace slp::bench;

  const int subs = EnvInt("SLP_SUBS", 3000);
  const int brokers = EnvInt("SLP_BROKERS", 20);
  const uint64_t seed = EnvSeed();

  PrintHeader("Table II: bandwidth comparison (workload sets #2 and #3), " +
              std::to_string(subs) + " subscribers, " +
              std::to_string(brokers) + " brokers");
  std::printf("%-10s %12s %10s %10s %10s\n", "set", "fractional", "SLP",
              "Gr*", "Gr-l");

  // Set #2: RSS. Paper settings: β=2.3, βmax=2.5 (subscriber locations are
  // skewed onto a few network points).
  {
    wl::RssParams params;
    params.num_subscribers = subs;
    params.num_brokers = brokers;
    params.seed = seed;
    core::SaConfig config;
    config.beta = 2.3;
    config.beta_max = 2.5;
    core::SaProblem problem =
        MakeOneLevelProblem(wl::GenerateRss(params), config);
    RunResult slp = RunAlgorithm("SLP", &RunSlpAdapter, problem, seed);
    RunResult gr_star = RunAlgorithm("Gr*", &core::RunGrStar, problem, seed);
    RunResult gr_nl = RunAlgorithm("Gr-l", &core::RunGrNoLatency, problem, seed);
    std::printf("%-10s %12.4f %10.4f %10.4f %10.4f\n", "#2 (rss)",
                slp.solution.fractional_lower_bound,
                slp.metrics.total_bandwidth, gr_star.metrics.total_bandwidth,
                gr_nl.metrics.total_bandwidth);
  }

  // Set #3: grid. Paper settings: β=1.3, βmax=1.5 (locations uniform).
  {
    wl::GridParams params;
    params.num_subscribers = subs;
    params.num_brokers = brokers;
    params.seed = seed;
    core::SaConfig config;
    config.beta = 1.3;
    config.beta_max = 1.5;
    core::SaProblem problem =
        MakeOneLevelProblem(wl::GenerateGrid(params), config);
    RunResult slp = RunAlgorithm("SLP", &RunSlpAdapter, problem, seed);
    RunResult gr_star = RunAlgorithm("Gr*", &core::RunGrStar, problem, seed);
    RunResult gr_nl = RunAlgorithm("Gr-l", &core::RunGrNoLatency, problem, seed);
    std::printf("%-10s %12.4f %10.4f %10.4f %10.4f\n", "#3 (grid)",
                slp.solution.fractional_lower_bound,
                slp.metrics.total_bandwidth, gr_star.metrics.total_bandwidth,
                gr_nl.metrics.total_bandwidth);
  }
  return 0;
}
