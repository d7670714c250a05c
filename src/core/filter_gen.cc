#include "src/core/filter_gen.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <utility>

#include "src/common/invariant.h"
#include "src/common/status.h"
#include "src/geometry/clustering.h"

namespace slp::core {

namespace {

// k = kSuperSubscriptionFactor · num_targets super-subscriptions; the
// clustering step is skipped when the input is already that small.
constexpr int kSuperSubscriptionFactor = 5;
// Maximum overlap fraction η between same-level intervals (>= 1/2).
constexpr double kEta = 0.5;
// Relative weight of network coordinates vs event coordinates in the joint
// clustering space.
constexpr double kNetworkWeight = 1.0;
// Keep-smallest pruning: per subscription, how many containing candidates
// survive (the global MEB is kept unconditionally).
constexpr int kCoversPerSubscription = 8;

struct Interval {
  double lo, hi;
  double length() const { return hi - lo; }
  bool operator<(const Interval& o) const {
    return lo != o.lo ? lo < o.lo : hi < o.hi;
  }
  bool operator==(const Interval& o) const { return lo == o.lo && hi == o.hi; }
};

// Super-subscription step: cluster subscriptions in the joint
// network ⊕ event space and take per-cluster MEBs.
std::vector<geo::Rectangle> SuperSubscriptions(
    const SaProblem& problem, const std::vector<int>& sa_indices, int k,
    Rng& rng) {
  const int n = static_cast<int>(sa_indices.size());
  // Feature scaling: normalize each feature block by its observed extent so
  // neither space dominates.
  const int net_dim =
      static_cast<int>(problem.subscriber(sa_indices[0]).location.size());
  const int ev_dim = problem.subscriber(sa_indices[0]).subscription.dim();

  std::vector<double> net_lo(net_dim, 1e300), net_hi(net_dim, -1e300);
  std::vector<double> ev_lo(ev_dim, 1e300), ev_hi(ev_dim, -1e300);
  for (int idx : sa_indices) {
    const auto& s = problem.subscriber(idx);
    for (int d = 0; d < net_dim; ++d) {
      net_lo[d] = std::min(net_lo[d], s.location[d]);
      net_hi[d] = std::max(net_hi[d], s.location[d]);
    }
    for (int d = 0; d < ev_dim; ++d) {
      ev_lo[d] = std::min(ev_lo[d], s.subscription.lo(d));
      ev_hi[d] = std::max(ev_hi[d], s.subscription.hi(d));
    }
  }
  auto scale = [](double v, double lo, double hi) {
    return hi > lo ? (v - lo) / (hi - lo) : 0.0;
  };

  std::vector<geo::Point> features(n);
  for (int r = 0; r < n; ++r) {
    const auto& s = problem.subscriber(sa_indices[r]);
    geo::Point f;
    f.reserve(net_dim + 2 * ev_dim);
    for (int d = 0; d < net_dim; ++d) {
      f.push_back(kNetworkWeight * scale(s.location[d], net_lo[d], net_hi[d]));
    }
    const auto center = s.subscription.Center();
    for (int d = 0; d < ev_dim; ++d) {
      f.push_back(scale(center[d], ev_lo[d], ev_hi[d]));
    }
    for (int d = 0; d < ev_dim; ++d) {
      // Half-widths, scaled by the event extent of that dimension.
      const double extent = std::max(1e-300, ev_hi[d] - ev_lo[d]);
      f.push_back(s.subscription.length(d) / 2 / extent);
    }
    features[r] = std::move(f);
  }

  const geo::KMeansResult km = geo::KMeans(features, k, rng);
  std::vector<std::vector<geo::Rectangle>> groups(km.num_clusters());
  for (int r = 0; r < n; ++r) {
    groups[km.labels[r]].push_back(problem.subscriber(sa_indices[r]).subscription);
  }
  std::vector<geo::Rectangle> out;
  out.reserve(groups.size());
  for (const auto& g : groups) {
    if (!g.empty()) out.push_back(geo::Rectangle::Meb(g));
  }
  return out;
}

// The hierarchical interval generation of Section IV-A.3 for one dimension.
std::vector<Interval> GenerateIntervals(std::vector<Interval> input) {
  SLP_DCHECK(!input.empty());
  double span_lo = input[0].lo, span_hi = input[0].hi;
  double min_len = input[0].length(), max_len = input[0].length();
  for (const Interval& iv : input) {
    span_lo = std::min(span_lo, iv.lo);
    span_hi = std::max(span_hi, iv.hi);
    min_len = std::min(min_len, iv.length());
    max_len = std::max(max_len, iv.length());
  }
  const double big = span_hi - span_lo;  // ∆
  std::vector<Interval> out;
  if (big <= 0) {
    out.push_back({span_lo, span_hi});
    return out;
  }
  // δ: smallest interval length, clamped so the number of levels stays
  // logarithmic even with degenerate (point) intervals.
  const double delta = std::max(min_len, big / 1024.0);

  std::sort(input.begin(), input.end());
  for (double len = 2 * delta;; len *= 2) {
    // This level's intervals: those of length <= len/2.
    std::vector<const Interval*> level;
    for (const Interval& iv : input) {
      if (iv.length() <= len / 2) level.push_back(&iv);
    }
    if (!level.empty()) {
      // Scan left endpoints (already sorted); place windows of length
      // `len`, skipping starts within (1-eta)*len of the previous window.
      size_t p = 0;
      while (p < level.size()) {
        const double start = level[p]->lo;
        // Members contained in [start, start+len], shrunk to their span.
        double lo = 1e300, hi = -1e300;
        for (const Interval* iv : level) {
          if (iv->lo >= start && iv->hi <= start + len) {
            lo = std::min(lo, iv->lo);
            hi = std::max(hi, iv->hi);
          }
        }
        if (hi >= lo) out.push_back({lo, hi});
        // Advance past all left endpoints within (1-eta)*len of start.
        while (p < level.size() && level[p]->lo < start + (1 - kEta) * len) {
          ++p;
        }
      }
    }
    // Stop once every interval fits in len/2 (this level included all).
    if (len / 2 >= max_len) break;
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

}  // namespace

std::vector<geo::Rectangle> FilterGen(const SaProblem& problem,
                                      const std::vector<int>& sa_indices,
                                      int num_targets, Rng& rng) {
  SLP_DCHECK(!sa_indices.empty());
  SLP_DCHECK(num_targets > 0);
  const int ev_dim = problem.subscriber(sa_indices[0]).subscription.dim();

  // Step 1 (optional): super-subscriptions.
  const int k = kSuperSubscriptionFactor * num_targets;
  std::vector<geo::Rectangle> supers;
  if (static_cast<int>(sa_indices.size()) > k) {
    supers = SuperSubscriptions(problem, sa_indices, k, rng);
  } else {
    supers.reserve(sa_indices.size());
    for (int idx : sa_indices) {
      supers.push_back(problem.subscriber(idx).subscription);
    }
  }

  // Step 2: per-dimension interval sets.
  std::vector<std::vector<Interval>> axes(ev_dim);
  for (int d = 0; d < ev_dim; ++d) {
    std::vector<Interval> proj;
    proj.reserve(supers.size());
    for (const auto& r : supers) proj.push_back({r.lo(d), r.hi(d)});
    axes[d] = GenerateIntervals(std::move(proj));
  }

  // Cartesian products.
  std::vector<geo::Rectangle> products;
  std::vector<size_t> cursor(ev_dim, 0);
  while (true) {
    std::vector<double> lo(ev_dim), hi(ev_dim);
    for (int d = 0; d < ev_dim; ++d) {
      lo[d] = axes[d][cursor[d]].lo;
      hi[d] = axes[d][cursor[d]].hi;
    }
    products.emplace_back(std::move(lo), std::move(hi));
    int d = 0;
    while (d < ev_dim && ++cursor[d] == axes[d].size()) {
      cursor[d] = 0;
      ++d;
    }
    if (d == ev_dim) break;
  }

  // Step 3: shrink each product to the MEB of contained subscriptions,
  // drop empties, dedupe, prune keep-smallest.
  std::vector<geo::Rectangle> subs;
  subs.reserve(sa_indices.size());
  for (int idx : sa_indices) {
    subs.push_back(problem.subscriber(idx).subscription);
  }

  std::map<std::pair<std::vector<double>, std::vector<double>>, int> dedupe;
  std::vector<geo::Rectangle> shrunk;
  for (const auto& prod : products) {
    bool any = false;
    geo::Rectangle meb;
    for (const auto& s : subs) {
      if (!prod.Contains(s)) continue;
      if (!any) {
        meb = s;
        any = true;
      } else {
        meb.Enclose(s);
      }
    }
    if (!any) continue;
    auto key = std::make_pair(meb.lo(), meb.hi());
    if (dedupe.emplace(std::move(key), 1).second) {
      shrunk.push_back(std::move(meb));
    }
  }
  // Global MEB guarantees coverage of every subscription.
  {
    geo::Rectangle global = geo::Rectangle::Meb(subs);
    auto key = std::make_pair(global.lo(), global.hi());
    if (dedupe.emplace(std::move(key), 1).second) {
      shrunk.push_back(std::move(global));
    }
  }

  std::sort(shrunk.begin(), shrunk.end(),
            [](const geo::Rectangle& a, const geo::Rectangle& b) {
              return a.Volume() < b.Volume();
            });

  // Keep-smallest pruning: walking candidates from small to large, keep one
  // if some contained subscription still has fewer than the quota of kept
  // covers, or if it is widely shared (a coarse hierarchical rectangle the
  // LP needs to satisfy the filter-complexity budget). The last candidate
  // (largest; contains everything via the global MEB) is always kept.
  std::vector<int> kept_covers(subs.size(), 0);
  const size_t wide_threshold = std::max<size_t>(4, subs.size() / 8);
  std::vector<geo::Rectangle> result;
  for (size_t c = 0; c < shrunk.size(); ++c) {
    bool keep = false;
    std::vector<int> contained;
    for (size_t s = 0; s < subs.size(); ++s) {
      if (shrunk[c].Contains(subs[s])) {
        contained.push_back(static_cast<int>(s));
        if (kept_covers[s] < kCoversPerSubscription) keep = true;
      }
    }
    if (contained.size() >= wide_threshold) keep = true;
    if (c + 1 == shrunk.size()) keep = true;  // global MEB safety net
    if (!keep) continue;
    for (int s : contained) ++kept_covers[s];
    result.push_back(shrunk[c]);
  }
  SLP_DCHECK(!result.empty());
  return result;
}

}  // namespace slp::core
