#include "src/core/metrics.h"

#include <algorithm>
#include <cmath>

#include "src/common/invariant.h"
#include "src/common/status.h"

namespace slp::core {

SolutionMetrics ComputeMetrics(const SaProblem& problem,
                               const SaSolution& solution) {
  const auto& tree = problem.tree();
  SolutionMetrics out;

  for (int v = 1; v < tree.num_nodes(); ++v) {
    out.total_bandwidth += solution.filters[v].UnionVolume();
    out.total_bandwidth_sum += solution.filters[v].SumVolume();
  }

  const int m = problem.num_subscribers();
  double sum = 0, sum2 = 0;
  for (int j = 0; j < m; ++j) {
    const double d = problem.RelativeDelay(j, solution.assignment[j]);
    sum += d;
    sum2 += d * d;
    out.max_delay = std::max(out.max_delay, d);
  }
  out.mean_delay = sum / m;
  out.rms_delay = std::sqrt(sum2 / m);

  out.loads = LeafLoads(problem, solution);
  double lsum = 0, lsum2 = 0;
  for (int load : out.loads) {
    lsum += load;
    lsum2 += static_cast<double>(load) * load;
  }
  const double n = out.loads.size();
  const double mean = lsum / n;
  out.load_stdev = std::sqrt(std::max(0.0, lsum2 / n - mean * mean));
  out.lbf = LoadBalanceFactor(problem, solution);
  return out;
}

LoadSummary SummarizeLoads(const std::vector<int>& loads) {
  SLP_DCHECK(!loads.empty());
  std::vector<int> s = loads;
  // Only five order statistics are consumed, so place them with successive
  // nth_element passes (O(n) total) instead of fully sorting. Each pass
  // works on the tail [prev, end): the previous partition already pushed
  // everything smaller in front of `prev`.
  const auto qidx = [&](double q) {
    const size_t idx = static_cast<size_t>(q * (s.size() - 1) + 0.5);
    return std::min(idx, s.size() - 1);
  };
  size_t prev = 0;
  const auto pick = [&](size_t idx) {
    std::nth_element(s.begin() + prev, s.begin() + idx, s.end());
    prev = idx;
    return s[idx];
  };
  LoadSummary out;
  out.min = pick(0);
  out.q1 = pick(qidx(0.25));
  out.median = pick(qidx(0.5));
  out.q3 = pick(qidx(0.75));
  out.max = pick(s.size() - 1);
  return out;
}

std::vector<double> LoadCdf(const std::vector<int>& loads,
                            const std::vector<int>& probes) {
  std::vector<double> out;
  out.reserve(probes.size());
  for (int p : probes) {
    int count = 0;
    for (int load : loads) count += (load <= p);
    out.push_back(count / static_cast<double>(loads.size()));
  }
  return out;
}

}  // namespace slp::core
