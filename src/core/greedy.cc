#include "src/core/greedy.h"

#include <algorithm>
#include <limits>
#include <queue>

#include "src/common/invariant.h"
#include "src/common/status.h"
#include "src/core/filter_adjust.h"
#include "src/core/gr_kernel.h"

namespace slp::core {

namespace {

// Multiplicative lbf escalation step when a subscriber runs out of
// candidates (clamped at β_max).
constexpr double kLbfEscalation = 1.1;

class GreedyRunner {
 public:
  GreedyRunner(const SaProblem& problem, const GreedyOptions& options,
               Rng& rng)
      : problem_(problem),
        options_(options),
        rng_(rng),
        tree_(problem.tree()),
        m_(problem.num_subscribers()),
        filters_(tree_.num_nodes()),
        loads_(problem.num_leaves(), 0) {
    // The kernel walks the live overlay, which is the designed tree here.
    SLP_DCHECK(!tree_.any_failed());
    BuildCandidates();
  }

  SaSolution Run() {
    SaSolution solution;
    solution.algorithm = options_.ignore_latency ? "Gr-l"
                         : options_.offline      ? "Gr*"
                                                 : "Gr";
    solution.assignment.assign(m_, -1);

    if (options_.offline) {
      RunOffline(&solution);
    } else {
      for (int j = 0; j < m_; ++j) AssignOne(j, &solution);
    }

    solution.filters.assign(tree_.num_nodes(), geo::Filter());
    for (int leaf : tree_.leaf_brokers()) {
      solution.filters[leaf] = geo::Filter(filters_[leaf]);
    }
    // Greedy also maintained internal filters for its cost function, but a
    // grown rectangle at a child may straddle two parent rectangles; the
    // bottom-up pass re-derives interior filters with guaranteed nesting.
    BuildInternalFilters(problem_, &solution, rng_);
    SetFeasibilityFlags(problem_, &solution);
    return solution;
  }

 private:
  void BuildCandidates() {
    candidates_.resize(m_);
    const auto& leaves = tree_.leaf_brokers();
    for (int j = 0; j < m_; ++j) {
      for (int leaf : leaves) {
        if (options_.ignore_latency || problem_.LatencyOk(j, leaf)) {
          candidates_[j].push_back(leaf);
        }
      }
      // With latency considered, the Δ-achieving leaf always qualifies.
      SLP_DCHECK(!candidates_[j].empty());
    }
  }

  double Cap(int leaf_idx, double lbf) const {
    return lbf * problem_.capacity_fraction(leaf_idx) * m_;
  }

  bool IsFull(int leaf, double lbf) const {
    const int idx = problem_.leaf_index(leaf);
    return loads_[idx] + 1 > Cap(idx, lbf) + 1e-9;
  }

  double LoadRatio(int leaf) const {
    const int idx = problem_.leaf_index(leaf);
    const double kappa = problem_.capacity_fraction(idx);
    return kappa > 0 ? loads_[idx] / (kappa * m_)
                     : std::numeric_limits<double>::infinity();
  }

  // Assigns subscriber j to the best candidate under the desired lbf; if
  // none is available the cap is escalated toward β_max *for this
  // subscriber only* (subsequent subscribers start from β again), and as a
  // last resort the cap is dropped: the least-cost candidate takes j, with
  // load breaking cost ties only. One kernel session prices every
  // escalation step.
  void AssignOne(int j, SaSolution* solution) {
    gr_.Start(tree_, filters_, problem_.config().alpha,
              problem_.subscriber(j).subscription);
    double lbf = problem_.config().beta;
    while (true) {
      int best = PickBest(j, lbf);
      if (best >= 0) {
        Commit(j, best, solution);
        return;
      }
      if (lbf < problem_.config().beta_max - 1e-12) {
        lbf = std::min(lbf * kLbfEscalation, problem_.config().beta_max);
        continue;  // cap loosened for this subscriber; retry
      }
      // Best effort: no cap, so the least-cost candidate is overloaded.
      best = PickBest(j, std::numeric_limits<double>::infinity());
      SLP_DCHECK(best >= 0);
      Commit(j, best, solution);
      return;
    }
  }

  int PickBest(int j, double lbf) {
    double best_cost = std::numeric_limits<double>::infinity();
    double best_load = std::numeric_limits<double>::infinity();
    int best = -1;
    for (int leaf : candidates_[j]) {
      if (std::isfinite(lbf) && IsFull(leaf, lbf)) continue;
      const double cost = gr_.Cost(leaf);
      const double load = LoadRatio(leaf);
      if (cost < best_cost - 1e-15 ||
          (cost <= best_cost + 1e-15 && load < best_load)) {
        best_cost = cost;
        best_load = load;
        best = leaf;
      }
    }
    return best;
  }

  void Commit(int j, int leaf, SaSolution* solution) {
    solution->assignment[j] = leaf;
    ++loads_[problem_.leaf_index(leaf)];
    const Status grown =
        GrowLivePath(tree_, leaf, problem_.subscriber(j).subscription,
                     problem_.config().alpha, &filters_);
    SLP_DCHECK(grown.ok());
  }

  // Gr*: subscribers with the fewest usable candidates first, with lazy
  // re-prioritization when a broker reaches the desired-β cap.
  void RunOffline(SaSolution* solution) {
    const double beta = problem_.config().beta;
    std::vector<int> alive(m_, 0);
    std::vector<std::vector<int>> subs_with_candidate(tree_.num_nodes());
    for (int j = 0; j < m_; ++j) {
      for (int leaf : candidates_[j]) {
        subs_with_candidate[leaf].push_back(j);
        if (!IsFull(leaf, beta)) ++alive[j];
      }
    }
    using Entry = std::pair<int, int>;  // (alive count, subscriber)
    std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> heap;
    for (int j = 0; j < m_; ++j) heap.emplace(alive[j], j);
    std::vector<bool> done(m_, false);
    std::vector<bool> was_full(tree_.num_nodes(), false);
    for (int leaf : tree_.leaf_brokers()) was_full[leaf] = IsFull(leaf, beta);

    int processed = 0;
    while (processed < m_) {
      SLP_DCHECK(!heap.empty());
      auto [count, j] = heap.top();
      heap.pop();
      if (done[j]) continue;
      if (count != alive[j]) {
        heap.emplace(alive[j], j);  // stale entry; reinsert with fresh key
        continue;
      }
      AssignOne(j, solution);
      done[j] = true;
      ++processed;
      const int leaf = solution->assignment[j];
      if (!was_full[leaf] && IsFull(leaf, beta)) {
        was_full[leaf] = true;
        for (int other : subs_with_candidate[leaf]) {
          if (!done[other]) {
            --alive[other];
            heap.emplace(alive[other], other);
          }
        }
      }
    }
  }

  const SaProblem& problem_;
  const GreedyOptions options_;
  Rng& rng_;
  const net::BrokerTree& tree_;
  const int m_;

  // R-tree-style filters grown as subscriptions route through each node.
  FilterTable filters_;
  GrKernel gr_;
  std::vector<std::vector<int>> candidates_;  // per subscriber: leaf nodes
  std::vector<int> loads_;                    // per leaf index
};

}  // namespace

SaSolution RunGreedy(const SaProblem& problem, const GreedyOptions& options,
                     Rng& rng) {
  GreedyRunner runner(problem, options, rng);
  return runner.Run();
}

SaSolution RunGr(const SaProblem& problem, Rng& rng) {
  return RunGreedy(problem, GreedyOptions{}, rng);
}

SaSolution RunGrStar(const SaProblem& problem, Rng& rng) {
  GreedyOptions o;
  o.offline = true;
  return RunGreedy(problem, o, rng);
}

SaSolution RunGrNoLatency(const SaProblem& problem, Rng& rng) {
  GreedyOptions o;
  o.ignore_latency = true;
  return RunGreedy(problem, o, rng);
}

}  // namespace slp::core
