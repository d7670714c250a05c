#include "src/core/problem.h"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <limits>
#include <sstream>
#include <string>

#include "src/common/invariant.h"
#include "src/common/status.h"

namespace slp::core {

namespace {

// One "<field> = <value>" clause of the audit context for a rejected input.
std::string Field(const std::string& name, double value) {
  std::ostringstream os;
  os << std::setprecision(12) << name << " = " << value;
  return os.str();
}

}  // namespace

SaProblem::SaProblem(net::BrokerTree tree,
                     std::vector<wl::Subscriber> subscribers, SaConfig config)
    : tree_(std::move(tree)),
      subscribers_(std::move(subscribers)),
      config_(config) {
  const int l = static_cast<int>(tree_.leaf_brokers().size());
  kappa_.assign(l, 1.0 / l);
  Init();
}

SaProblem::SaProblem(net::BrokerTree tree,
                     std::vector<wl::Subscriber> subscribers, SaConfig config,
                     std::vector<double> capacity_fractions)
    : tree_(std::move(tree)),
      subscribers_(std::move(subscribers)),
      config_(config),
      kappa_(std::move(capacity_fractions)) {
  Init();
}

void SaProblem::Init() {
  // The inputs are checked in every build type, before anything is indexed
  // by them: a κ vector shorter than the leaf list would be read past its
  // end by the subtree sums below.
  constexpr auto kCat = audit::Category::kDcheck;
  const auto& leaves = tree_.leaf_brokers();
  SLP_AUDIT_CHECK(kCat, kappa_.size() == leaves.size(),
                  "SaProblem: " + Field("capacity_fractions.size()",
                                        kappa_.size()) +
                      ", " + Field("leaves", leaves.size()));
  double total = 0;
  for (size_t i = 0; i < kappa_.size(); ++i) {
    SLP_AUDIT_CHECK(kCat, kappa_[i] >= 0,
                    "SaProblem: " + Field("capacity_fractions[" +
                                              std::to_string(i) + "]",
                                          kappa_[i]));
    total += kappa_[i];
  }
  SLP_AUDIT_CHECK(kCat, std::abs(total - 1.0) < 1e-9,
                  "SaProblem: " + Field("sum of capacity_fractions", total));
  SLP_AUDIT_CHECK(kCat, !subscribers_.empty(),
                  "SaProblem: " + Field("subscribers.size()", 0));
  SLP_AUDIT_CHECK(kCat, config_.alpha >= 1,
                  "SaProblem: " + Field("config.alpha", config_.alpha));
  SLP_AUDIT_CHECK(kCat, config_.max_delay >= 0,
                  "SaProblem: " + Field("config.max_delay", config_.max_delay));
  SLP_AUDIT_CHECK(kCat, config_.beta >= 1 && config_.beta <= config_.beta_max,
                  "SaProblem: " + Field("config.beta", config_.beta) + ", " +
                      Field("config.beta_max", config_.beta_max));

  leaf_index_.assign(tree_.num_nodes(), -1);
  for (size_t i = 0; i < leaves.size(); ++i) {
    leaf_index_[leaves[i]] = static_cast<int>(i);
  }

  subtree_kappa_.assign(tree_.num_nodes(), 0.0);
  for (int v = 0; v < tree_.num_nodes(); ++v) {
    double k = 0.0;
    for (int leaf : tree_.subtree_leaves(v)) k += kappa_[leaf_index_[leaf]];
    subtree_kappa_[v] = k;
  }

  const int m = num_subscribers();
  delta_path_.resize(m);
  latency_bound_.resize(m);
  for (int j = 0; j < m; ++j) {
    delta_path_[j] = tree_.ShortestLatency(subscribers_[j].location);
    double best_mode = delta_path_[j];
    if (config_.latency_mode == LatencyMode::kLastHop) {
      best_mode = std::numeric_limits<double>::infinity();
      for (int leaf : tree_.leaf_brokers()) {
        best_mode = std::min(best_mode, geo::Distance(tree_.location(leaf),
                                                      subscribers_[j].location));
      }
    }
    latency_bound_[j] = (1.0 + config_.max_delay) * best_mode;
  }
}

double SaProblem::RelativeDelay(int j, int leaf_node) const {
  const double delta = tree_.LatencyVia(leaf_node, subscribers_[j].location);
  if (delta_path_[j] <= 0) return 0;
  return delta / delta_path_[j] - 1.0;
}

}  // namespace slp::core
