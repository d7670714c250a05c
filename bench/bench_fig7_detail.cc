// Figure 7 — detailed one-level comparison on workload set #1:
//   7(a) per-workload total bandwidth for every algorithm;
//   7(b) delay-vs-shortest-path scatter (sampled) on (IS:H, BI:H);
//   7(c) broker-load five-number summaries with the β / βmax lines;
//   7(d) broker-load CDF for selected algorithms.
//
// The SLP rows are the paper's SLP1: RunSlp on a one-level tree.
//
// Expected shape (paper): SLP1/Gr* bound delay at 0.3 while Gr¬l produces
// unacceptable delays (worst near the publisher); Balance/Closest balance
// load at huge bandwidth; Gr leaves >10% of brokers overloaded.

#include "bench/bench_util.h"

int main() {
  using namespace slp;
  using namespace slp::bench;

  const int subs = EnvInt("SLP_SUBS", 3000);
  const int brokers = EnvInt("SLP_BROKERS", 20);
  const uint64_t seed = EnvSeed();
  core::SaConfig config;

  // ---- 7(a): bandwidth per workload ----
  PrintHeader("Figure 7(a): total bandwidth per workload (one-level, set #1)");
  std::printf("%-10s", "algorithm");
  for (const auto& [wname, _] : Set1Variants()) {
    std::printf(" %14s", wname.c_str());
  }
  std::printf("\n");
  std::vector<std::vector<RunResult>> all_runs;  // [workload][algorithm]
  for (const auto& [wname, levels] : Set1Variants()) {
    wl::Workload w = wl::GenerateGoogleGroupsVariant(
        levels.first, levels.second, subs, brokers, seed);
    core::SaProblem problem = MakeOneLevelProblem(std::move(w), config);
    std::vector<RunResult> runs;
    for (const auto& [name, algo] : AllAlgorithms()) {
      runs.push_back(RunAlgorithm(name, algo, problem, seed));
    }
    all_runs.push_back(std::move(runs));
  }
  for (size_t a = 0; a < all_runs[0].size(); ++a) {
    std::printf("%-10s", all_runs[0][a].name.c_str());
    for (size_t w = 0; w < all_runs.size(); ++w) {
      std::printf(" %14.4f", all_runs[w][a].metrics.total_bandwidth);
    }
    std::printf("\n");
  }

  // The remaining panels use (IS:H, BI:H) — index 3.
  wl::Workload w = wl::GenerateGoogleGroupsVariant(
      wl::Level::kHigh, wl::Level::kHigh, subs, brokers, seed);
  core::SaProblem problem = MakeOneLevelProblem(std::move(w), config);
  const std::vector<RunResult>& runs = all_runs[3];

  // ---- 7(b): delay vs shortest-path distance scatter (sampled) ----
  PrintHeader(
      "Figure 7(b): relative delay vs shortest-path latency, (IS:H, BI:H)\n"
      "(sampled subscribers; SLP/Gr* must stay at/below the 0.3 bound)");
  std::printf("%-10s %10s %10s\n", "algorithm", "Delta", "delay");
  for (const char* pick : {"SLP", "Gr*", "Gr-l", "Closest-b"}) {
    for (const RunResult& r : runs) {
      if (r.name != pick) continue;
      for (int j = 0; j < problem.num_subscribers(); j += subs / 25) {
        std::printf("%-10s %10.4f %10.4f\n", pick,
                    problem.shortest_latency(j),
                    problem.RelativeDelay(j, r.solution.assignment[j]));
      }
    }
  }

  // ---- 7(c): broker-load boxplots ----
  PrintHeader("Figure 7(c): broker load distribution, (IS:H, BI:H)");
  const double desired = config.beta * subs / static_cast<double>(brokers);
  const double cap = config.beta_max * subs / static_cast<double>(brokers);
  std::printf("desired load (beta)  = %.0f subscribers/broker\n", desired);
  std::printf("maximum load (bmax)  = %.0f subscribers/broker\n", cap);
  std::printf("%-10s %6s %6s %8s %6s %6s %8s\n", "algorithm", "min", "q1",
              "median", "q3", "max", "overload");
  for (const RunResult& r : runs) {
    const core::LoadSummary s = core::SummarizeLoads(r.metrics.loads);
    int overloaded = 0;
    for (int load : r.metrics.loads) overloaded += (load > cap + 1e-9);
    std::printf("%-10s %6d %6d %8d %6d %6d %7.1f%%\n", r.name.c_str(), s.min,
                s.q1, s.median, s.q3, s.max,
                100.0 * overloaded / r.metrics.loads.size());
  }

  // ---- 7(d): broker-load CDF ----
  PrintHeader("Figure 7(d): broker load CDF, (IS:H, BI:H)");
  std::vector<int> probes;
  for (int frac = 0; frac <= 12; ++frac) {
    probes.push_back(static_cast<int>(frac * cap / 8));
  }
  std::printf("%-10s", "load<=");
  for (int p : probes) std::printf(" %6d", p);
  std::printf("\n");
  for (const char* pick : {"SLP", "Gr*", "Gr", "Balance"}) {
    for (const RunResult& r : runs) {
      if (r.name != pick) continue;
      const auto cdf = core::LoadCdf(r.metrics.loads, probes);
      std::printf("%-10s", pick);
      for (double v : cdf) std::printf(" %6.2f", v);
      std::printf("\n");
    }
  }
  return 0;
}
