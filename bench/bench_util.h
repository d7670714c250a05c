// Shared plumbing for the paper-reproduction benchmark harness.
//
// Every bench binary reproduces one table or figure of the paper. Scales
// default to laptop-friendly sizes (the paper used CPLEX and hours of
// runtime; see DESIGN.md §4) and can be overridden with environment
// variables:
//   SLP_SUBS    — number of subscribers
//   SLP_BROKERS — number of brokers
//   SLP_SEED    — workload/algorithm seed

#ifndef SLP_BENCH_BENCH_UTIL_H_
#define SLP_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "src/common/random.h"
#include "src/common/timer.h"
#include "src/core/balance.h"
#include "src/core/closest.h"
#include "src/core/greedy.h"
#include "src/core/metrics.h"
#include "src/core/problem.h"
#include "src/core/slp.h"
#include "src/network/tree_builder.h"
#include "src/workload/googlegroups.h"
#include "src/workload/grid.h"
#include "src/workload/rss.h"

namespace slp::bench {

inline int EnvInt(const char* name, int fallback) {
  const char* v = std::getenv(name);
  return v != nullptr ? std::atoi(v) : fallback;
}

inline uint64_t EnvSeed() {
  return static_cast<uint64_t>(EnvInt("SLP_SEED", 1));
}

// One algorithm run: solution + metrics + wall time.
struct RunResult {
  std::string name;
  core::SaSolution solution;
  core::SolutionMetrics metrics;
  double seconds = 0;
};

using Algorithm = core::SaSolution (*)(const core::SaProblem&, Rng&);

inline core::SaSolution RunSlpAdapter(const core::SaProblem& p, Rng& rng) {
  auto r = core::RunSlp(p, core::SlpOptions{}, rng);
  if (!r.ok()) {
    std::fprintf(stderr, "SLP failed: %s\n", r.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(r).value();
}

inline RunResult RunAlgorithm(const std::string& name, Algorithm algo,
                              const core::SaProblem& problem, uint64_t seed) {
  RunResult out;
  out.name = name;
  Rng rng(seed);
  WallTimer timer;
  out.solution = algo(problem, rng);
  out.seconds = timer.Seconds();
  out.metrics = core::ComputeMetrics(problem, out.solution);
  return out;
}

// The named algorithm set of Section VI. On a one-level tree the "SLP" row
// is the paper's SLP1 (see src/core/slp.h).
inline std::vector<std::pair<std::string, Algorithm>> AllAlgorithms() {
  return {
      {"SLP", &RunSlpAdapter},
      {"Gr", &core::RunGr},
      {"Gr*", &core::RunGrStar},
      {"Gr-l", &core::RunGrNoLatency},
      {"Closest", &core::RunClosest},
      {"Closest-b", &core::RunClosestNoBalance},
      {"Balance", &core::RunBalance},
  };
}

// Builds a one-level problem for a generated workload.
inline core::SaProblem MakeOneLevelProblem(wl::Workload w,
                                           core::SaConfig config) {
  net::BrokerTree tree =
      net::BuildOneLevelTree(w.publisher, w.broker_locations);
  return core::SaProblem(std::move(tree), std::move(w.subscribers), config);
}

// Builds a multi-level problem (paper: max out-degree 15).
inline core::SaProblem MakeMultiLevelProblem(wl::Workload w,
                                             core::SaConfig config,
                                             int out_degree, uint64_t seed) {
  Rng rng(seed);
  net::BrokerTree tree = net::BuildMultiLevelTree(
      w.publisher, w.broker_locations, out_degree, rng);
  return core::SaProblem(std::move(tree), std::move(w.subscribers), config);
}

// The paper's four set-#1 workloads in presentation order.
inline std::vector<std::pair<std::string, std::pair<wl::Level, wl::Level>>>
Set1Variants() {
  using L = wl::Level;
  return {
      {"(IS:L, BI:L)", {L::kLow, L::kLow}},
      {"(IS:H, BI:L)", {L::kHigh, L::kLow}},
      {"(IS:L, BI:H)", {L::kLow, L::kHigh}},
      {"(IS:H, BI:H)", {L::kHigh, L::kHigh}},
  };
}

// Minimum achievable load-balance factor under the latency constraint,
// computed with the Balance baseline (binary search + max-flow). The paper
// calibrates its multi-level β settings to this quantity ("the minimum
// possible lbf is around 6" for its tight setting).
inline double MinAchievableLbf(const core::SaProblem& problem,
                               uint64_t seed) {
  Rng rng(seed);
  core::SaSolution s = core::RunBalance(problem, rng);
  return core::LoadBalanceFactor(problem, s);
}

inline void PrintHeader(const std::string& title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("================================================================\n");
}

inline const char* Feasibility(const core::SaSolution& s) {
  if (s.load_feasible && s.latency_feasible) return "ok";
  if (!s.load_feasible && !s.latency_feasible) return "load+lat!";
  return s.load_feasible ? "lat!" : "load!";
}

}  // namespace slp::bench

#endif  // SLP_BENCH_BENCH_UTIL_H_
