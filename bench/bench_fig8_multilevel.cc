// Figure 8 — overall comparison on a multi-level network (workload set #1)
// under the paper's tight and loose latency settings:
//   tight: maxdelay 0.2, β/βmax = 7/8  (latency leaves few broker choices);
//   loose: maxdelay 1.0, β/βmax = 1.3/1.5.
//
// Expected shape (paper): event-space-blind algorithms blow up bandwidth;
// Gr¬l blows up delay; under tight latency Gr and Gr* fail the load
// constraints while SLP satisfies them; under loose latency Gr*/Gr are
// comparable to SLP.

#include <map>

#include "bench/bench_util.h"

int main() {
  using namespace slp;
  using namespace slp::bench;

  const int subs = EnvInt("SLP_SUBS", 3000);
  const int brokers = EnvInt("SLP_BROKERS", 60);
  const int out_degree = EnvInt("SLP_OUT_DEGREE", 15);
  const uint64_t seed = EnvSeed();

  struct Setting {
    const char* name;
    core::SaConfig config;
  };
  std::vector<Setting> settings(2);
  settings[0].name = "tight";
  settings[0].config.max_delay = 0.2;
  settings[1].name = "loose";
  settings[1].config.max_delay = 1.0;

  // The paper picks β relative to the minimum achievable lbf (≈6 in its
  // tight setting, hence β/βmax = 7/8). Calibrate the same way here, on the
  // baseline (IS:H, BI:L) workload per setting.
  for (Setting& setting : settings) {
    wl::Workload w = wl::GenerateGoogleGroupsVariant(
        wl::Level::kHigh, wl::Level::kLow, subs, brokers, seed);
    core::SaProblem probe =
        MakeMultiLevelProblem(std::move(w), setting.config, out_degree, seed);
    const double floor_lbf = std::max(1.0, MinAchievableLbf(probe, seed));
    setting.config.beta = 1.2 * floor_lbf;
    setting.config.beta_max = 1.4 * floor_lbf;
    std::printf("[calibration] %s: min achievable lbf=%.2f -> beta=%.2f, "
                "beta_max=%.2f\n",
                setting.name, floor_lbf, setting.config.beta,
                setting.config.beta_max);
  }

  for (const Setting& setting : settings) {
    PrintHeader(std::string("Figure 8(") +
                (setting.name[0] == 't' ? "a" : "b") + "): multi-level, " +
                setting.name + " latency setting (set #1, averaged over 4 "
                "workloads); " + std::to_string(subs) + " subscribers, " +
                std::to_string(brokers) + " brokers, out-degree <= " +
                std::to_string(out_degree));
    struct Acc {
      double bandwidth = 0, rms = 0, stdev = 0, lbf = 0;
      int load_ok = 0;
    };
    std::map<std::string, Acc> acc;
    std::vector<std::string> order;
    const auto variants = Set1Variants();
    for (const auto& [wname, levels] : variants) {
      wl::Workload w = wl::GenerateGoogleGroupsVariant(
          levels.first, levels.second, subs, brokers, seed);
      core::SaProblem problem = MakeMultiLevelProblem(
          std::move(w), setting.config, out_degree, seed);
      for (const auto& [name, algo] : AllAlgorithms()) {
        RunResult r = RunAlgorithm(name, algo, problem, seed);
        if (acc.find(name) == acc.end()) order.push_back(name);
        Acc& a = acc[name];
        a.bandwidth += r.metrics.total_bandwidth / variants.size();
        a.rms += r.metrics.rms_delay / variants.size();
        a.stdev += r.metrics.load_stdev / variants.size();
        a.lbf += r.metrics.lbf / variants.size();
        a.load_ok += r.solution.load_feasible;
      }
    }
    std::printf("%-10s %12s %10s %12s %6s %9s\n", "algorithm", "bandwidth",
                "rms_delay", "stdev_load", "lbf", "load_ok/4");
    for (const std::string& name : order) {
      const Acc& a = acc[name];
      std::printf("%-10s %12.4f %10.3f %12.1f %6.2f %9d\n", name.c_str(),
                  a.bandwidth, a.rms, a.stdev, a.lbf, a.load_ok);
    }
  }
  return 0;
}
