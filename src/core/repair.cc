#include "src/core/repair.h"

#include "src/common/invariant.h"
#include "src/core/audit.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

namespace slp::core {

namespace {

// Exponential growth of a degraded subscriber's retry wait per failed
// retry (capped at RepairOptions::backoff_max).
constexpr double kBackoffFactor = 2.0;

}  // namespace

RepairEngine::RepairEngine(DynamicAssigner* assigner, RepairOptions options)
    : dyn_(assigner), options_(options) {
  SLP_DCHECK(dyn_ != nullptr);
}

SubscriberState RepairEngine::PlaceWithLadder(int handle,
                                              RepairReport* report) {
  const auto& live_leaves = dyn_->tree().live_leaf_brokers();
  if (live_leaves.empty()) {
    // Park: nothing can host the subscriber until a broker recovers.
    const Status parked = dyn_->Park(handle, DegradedViolation{});
    SLP_DCHECK(parked.ok());
    return SubscriberState::kDegraded;
  }
  const bool use_veto = dyn_->UseVeto();
  GrKernel& gr = dyn_->Price(dyn_->subscriber(handle));

  // Rungs 1–2: Gr within constraints, desired cap first.
  for (double lbf : {dyn_->config().beta, dyn_->config().beta_max}) {
    const int leaf = dyn_->BestLeafWithin(dyn_->LoadCap(lbf), use_veto);
    if (leaf >= 0) {
      const Status placed =
          dyn_->PlaceAt(handle, leaf, SubscriberState::kLive);
      SLP_DCHECK(placed.ok());
      return SubscriberState::kLive;
    }
  }

  const double cap_max = dyn_->LoadCap(dyn_->config().beta_max);

  // Rung 3: latency-slack relaxation under the emergency cap — minimize
  // the latency excess, break ties by incorporation cost.
  {
    int best = -1;
    double best_excess = std::numeric_limits<double>::infinity();
    double best_cost = std::numeric_limits<double>::infinity();
    for (int leaf : live_leaves) {
      if (use_veto && dyn_->leaf_vetoed(leaf)) continue;
      if (dyn_->load_of(leaf) + 1 > cap_max + 1e-9) continue;
      const double excess = std::max(0.0, gr.latency(leaf) - gr.bound());
      const double cost = gr.Cost(leaf);
      if (excess < best_excess - 1e-12 ||
          (excess < best_excess + 1e-12 && cost < best_cost)) {
        best_excess = excess;
        best_cost = cost;
        best = leaf;
      }
    }
    if (best >= 0) {
      DegradedViolation v;
      v.latency = best_excess;
      report->max_latency_violation =
          std::max(report->max_latency_violation, v.latency);
      const Status placed =
          dyn_->PlaceAt(handle, best, SubscriberState::kDegraded, v);
      SLP_DCHECK(placed.ok());
      return SubscriberState::kDegraded;
    }
  }

  // Rung 4: every live leaf is at β_max — overload the latency-best one
  // and quantify both violations.
  int best = -1;
  double best_excess = std::numeric_limits<double>::infinity();
  for (int leaf : live_leaves) {
    if (use_veto && dyn_->leaf_vetoed(leaf)) continue;
    const double excess = std::max(0.0, gr.latency(leaf) - gr.bound());
    if (excess < best_excess) {
      best_excess = excess;
      best = leaf;
    }
  }
  DegradedViolation v;
  v.latency = best_excess;
  v.load = dyn_->load_of(best) + 1 - cap_max;
  report->max_latency_violation =
      std::max(report->max_latency_violation, v.latency);
  report->max_load_violation = std::max(report->max_load_violation, v.load);
  const Status placed =
      dyn_->PlaceAt(handle, best, SubscriberState::kDegraded, v);
  SLP_DCHECK(placed.ok());
  return SubscriberState::kDegraded;
}

void RepairEngine::PruneStaleBackoff() {
  for (auto it = backoff_.begin(); it != backoff_.end();) {
    const int handle = it->first;
    if (!dyn_->is_occupied(handle) ||
        dyn_->state(handle) != SubscriberState::kDegraded) {
      it = backoff_.erase(it);
    } else {
      ++it;
    }
  }
}

RepairReport RepairEngine::Repair(int64_t now) {
  RepairReport report;
  // Entries for removed / externally un-degraded / re-orphaned handles are
  // dead weight and — worse — a recycled handle would inherit their clock.
  PruneStaleBackoff();
  // Snapshot the orphan list: placements mutate it.
  const std::vector<int> orphans = dyn_->orphans();
  report.orphans_seen = static_cast<int>(orphans.size());
  for (int handle : orphans) {
    const SubscriberState st = PlaceWithLadder(handle, &report);
    if (st == SubscriberState::kLive) {
      ++report.repaired;
      backoff_.erase(handle);
    } else {
      ++report.degraded;
      backoff_[handle] = Backoff{0, now + options_.backoff_base};
    }
  }

  // Degraded retries (rungs 1–2 only) under per-subscriber backoff.
  for (int handle : dyn_->degraded_handles()) {
    auto [it, inserted] = backoff_.emplace(
        handle, Backoff{0, now + options_.backoff_base});
    if (inserted || now < it->second.next) continue;
    ++report.retried;
    const bool use_veto = dyn_->UseVeto();
    dyn_->Price(dyn_->subscriber(handle));
    int leaf = -1;
    for (double lbf : {dyn_->config().beta, dyn_->config().beta_max}) {
      leaf = dyn_->BestLeafWithin(dyn_->LoadCap(lbf), use_veto);
      if (leaf >= 0) break;
    }
    if (leaf >= 0) {
      const Status placed =
          dyn_->PlaceAt(handle, leaf, SubscriberState::kLive);
      SLP_DCHECK(placed.ok());
      ++report.undegraded;
      backoff_.erase(it);
    } else {
      Backoff& b = it->second;
      ++b.attempts;
      const double wait =
          options_.backoff_base * std::pow(kBackoffFactor, b.attempts);
      b.next = now + static_cast<int64_t>(std::min(
                         wait, static_cast<double>(options_.backoff_max)));
    }
  }
#if SLP_AUDITS_ENABLED
  AuditLiveFilters(*dyn_);
#endif
  return report;
}

}  // namespace slp::core
