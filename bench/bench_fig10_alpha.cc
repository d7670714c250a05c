// Figure 10 — effect of filter complexity α on total bandwidth (one-level
// network, workload (IS:H, BI:H)) for SLP1, Gr*, Gr with α = 1..6. SLP1 is
// RunSlp on the one-level tree.
//
// Expected shape (paper): bandwidth decreases with α for all three
// algorithms, with diminishing returns past α≈3; SLP1 is the most
// vulnerable at α = 1-2 (rounded filters may pick faraway rectangles that
// one MEB must then swallow).

#include "bench/bench_util.h"

int main() {
  using namespace slp;
  using namespace slp::bench;

  const int subs = EnvInt("SLP_SUBS", 2500);
  const int brokers = EnvInt("SLP_BROKERS", 16);
  const uint64_t seed = EnvSeed();

  PrintHeader("Figure 10: bandwidth vs filter complexity alpha (one-level, "
              "(IS:H, BI:H)); " + std::to_string(subs) + " subscribers, " +
              std::to_string(brokers) + " brokers");
  std::printf("%-6s %12s %12s %12s\n", "alpha", "SLP", "Gr*", "Gr");

  // Calibrate β once (α does not affect achievable load balance).
  core::SaConfig base;
  {
    wl::Workload w = wl::GenerateGoogleGroupsVariant(
        wl::Level::kHigh, wl::Level::kHigh, subs, brokers, seed);
    core::SaProblem probe = MakeOneLevelProblem(std::move(w), base);
    const double floor_lbf = std::max(1.0, MinAchievableLbf(probe, seed));
    base.beta = 1.2 * floor_lbf;
    base.beta_max = 1.4 * floor_lbf;
    std::printf("[calibration] min achievable lbf=%.2f -> beta=%.2f, "
                "beta_max=%.2f\n",
                floor_lbf, base.beta, base.beta_max);
  }

  for (int alpha = 1; alpha <= 6; ++alpha) {
    core::SaConfig config = base;
    config.alpha = alpha;
    wl::Workload w = wl::GenerateGoogleGroupsVariant(
        wl::Level::kHigh, wl::Level::kHigh, subs, brokers, seed);
    core::SaProblem problem = MakeOneLevelProblem(std::move(w), config);
    const double slp = RunAlgorithm("SLP", &RunSlpAdapter, problem, seed)
                           .metrics.total_bandwidth;
    const double gr_star =
        RunAlgorithm("Gr*", &core::RunGrStar, problem, seed).metrics.total_bandwidth;
    const double gr =
        RunAlgorithm("Gr", &core::RunGr, problem, seed).metrics.total_bandwidth;
    std::printf("%-6d %12.4f %12.4f %12.4f\n", alpha, slp, gr_star, gr);
  }
  return 0;
}
