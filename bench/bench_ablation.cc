// Ablations of the design choices DESIGN.md §5 calls out, on the one-level
// (IS:H, BI:H) workload:
//   A. cohesion seeding of the max-flow assignment (on/off);
//   B. enrichment rounds in the assignment step (3/0);
//   C. ε of the coreset/expansion machinery (0.1/0.2/0.4);
//   D. load-balance sample size |Sb| (3·|B| / 5·|B| / 10·|B|).
// Each row reports bandwidth, lbf, LP calls, and wall time for SLP1, which
// is RunSlp on the one-level tree; each variant changes one field of
// SlpOptions::slp1.

#include "bench/bench_util.h"

int main() {
  using namespace slp;
  using namespace slp::bench;

  const int subs = EnvInt("SLP_SUBS", 2500);
  const int brokers = EnvInt("SLP_BROKERS", 16);
  const uint64_t seed = EnvSeed();

  wl::Workload w = wl::GenerateGoogleGroupsVariant(
      wl::Level::kHigh, wl::Level::kHigh, subs, brokers, seed);
  // Calibrate β to the achievable minimum so the ablation compares design
  // choices on a feasible instance (see bench_fig8_multilevel.cc).
  core::SaConfig config;
  {
    core::SaProblem probe = MakeOneLevelProblem(w, config);
    const double floor_lbf = std::max(1.0, MinAchievableLbf(probe, seed));
    config.beta = 1.2 * floor_lbf;
    config.beta_max = 1.4 * floor_lbf;
    std::printf("[calibration] min achievable lbf=%.2f -> beta=%.2f, "
                "beta_max=%.2f\n",
                floor_lbf, config.beta, config.beta_max);
  }
  core::SaProblem problem = MakeOneLevelProblem(std::move(w), config);

  PrintHeader("Ablations of SLP1 design choices ((IS:H, BI:H), " +
              std::to_string(subs) + " subscribers, " +
              std::to_string(brokers) + " brokers)");
  std::printf("%-28s %10s %6s %9s %8s %8s\n", "variant", "bandwidth", "lbf",
              "fractional", "lp_calls", "seconds");

  // A failed solve is reported and the remaining variants still run, but
  // the exit status is nonzero so a smoke run catches it.
  bool any_failed = false;
  auto run = [&](const std::string& name, const core::SlpOptions& options) {
    Rng rng(seed);
    WallTimer timer;
    core::SlpStats stats;
    auto r = core::RunSlp(problem, options, rng, &stats);
    if (!r.ok()) {
      std::printf("%-28s FAILED: %s\n", name.c_str(),
                  r.status().ToString().c_str());
      any_failed = true;
      return;
    }
    const auto m = core::ComputeMetrics(problem, r.value());
    std::printf("%-28s %10.4f %6.2f %9.4f %8d %8.1f\n", name.c_str(),
                m.total_bandwidth, m.lbf, r.value().fractional_lower_bound,
                stats.lp_calls, timer.Seconds());
  };

  run("baseline", core::SlpOptions{});

  {
    core::SlpOptions o;
    o.slp1.subscription_assign.cohesion_seeding = false;
    run("no cohesion seeding", o);
  }
  {
    core::SlpOptions o;
    o.slp1.subscription_assign.enrichment_rounds = 0;
    run("no enrichment", o);
  }
  for (double eps : {0.1, 0.4}) {
    core::SlpOptions o;
    o.slp1.filter_assign.eps = eps;
    run("eps = " + std::to_string(eps).substr(0, 3), o);
  }
  for (int sb : {3, 10}) {
    core::SlpOptions o;
    o.slp1.filter_assign.sb_factor = sb;
    run("|Sb| = " + std::to_string(sb) + "x brokers", o);
  }
  return any_failed ? 1 : 0;
}
