// Figure 6 — overall comparison on a one-level network, workload set #1.
//
// The paper plots, per algorithm, a triangle whose vertices are total
// bandwidth, RMS delay, and STDEV of broker load, averaged over the four
// (IS, BI) workloads. This harness prints those three series (plus the lbf
// and feasibility flags the figure discusses in text). The SLP row is the
// paper's SLP1: RunSlp on a one-level tree.
//
// Expected shape (paper): SLP1 and Gr* minimize bandwidth while staying
// within the delay bound and the lbf cap; Gr is worse on bandwidth and
// badly unbalanced; Gr¬l undercuts everyone's bandwidth but blows up
// delay; Closest/Closest¬b/Balance keep delay/load in check at huge
// bandwidth cost.

#include <map>

#include "bench/bench_util.h"

int main() {
  using namespace slp;
  using namespace slp::bench;

  const int subs = EnvInt("SLP_SUBS", 3000);
  const int brokers = EnvInt("SLP_BROKERS", 20);
  const uint64_t seed = EnvSeed();

  core::SaConfig config;  // α=3, maxdelay=0.3, β=1.5, βmax=1.8 (paper)

  PrintHeader(
      "Figure 6: overall comparison (one-level network, workload set #1)\n"
      "averaged over (IS:L,BI:L) (IS:H,BI:L) (IS:L,BI:H) (IS:H,BI:H); " +
      std::to_string(subs) + " subscribers, " + std::to_string(brokers) +
      " brokers");

  struct Acc {
    double bandwidth = 0, rms = 0, stdev = 0, lbf = 0, secs = 0;
    int load_ok = 0, lat_ok = 0;
  };
  std::map<std::string, Acc> acc;
  std::vector<std::string> order;

  const auto variants = Set1Variants();
  for (const auto& [wname, levels] : variants) {
    wl::Workload w = wl::GenerateGoogleGroupsVariant(
        levels.first, levels.second, subs, brokers, seed);
    core::SaProblem problem = MakeOneLevelProblem(std::move(w), config);
    for (const auto& [name, algo] : AllAlgorithms()) {
      RunResult r = RunAlgorithm(name, algo, problem, seed);
      if (acc.find(name) == acc.end()) order.push_back(name);
      Acc& a = acc[name];
      a.bandwidth += r.metrics.total_bandwidth / variants.size();
      a.rms += r.metrics.rms_delay / variants.size();
      a.stdev += r.metrics.load_stdev / variants.size();
      a.lbf += r.metrics.lbf / variants.size();
      a.secs += r.seconds;
      a.load_ok += r.solution.load_feasible;
      a.lat_ok += r.solution.latency_feasible;
      std::printf("  [%s] %-10s bw=%8.4f rms_delay=%6.3f stdev_load=%7.1f "
                  "lbf=%5.2f (%s, %.1fs)\n",
                  wname.c_str(), name.c_str(), r.metrics.total_bandwidth,
                  r.metrics.rms_delay, r.metrics.load_stdev, r.metrics.lbf,
                  Feasibility(r.solution), r.seconds);
    }
  }

  std::printf("\n%-10s %12s %10s %12s %6s %9s %9s\n", "algorithm",
              "bandwidth", "rms_delay", "stdev_load", "lbf", "load_ok/4",
              "lat_ok/4");
  for (const std::string& name : order) {
    const Acc& a = acc[name];
    std::printf("%-10s %12.4f %10.3f %12.1f %6.2f %9d %9d\n", name.c_str(),
                a.bandwidth, a.rms, a.stdev, a.lbf, a.load_ok, a.lat_ok);
  }
  return 0;
}
