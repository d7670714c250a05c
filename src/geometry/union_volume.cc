#include "src/geometry/union_volume.h"

#include <algorithm>
#include <utility>

#include "src/common/invariant.h"
#include "src/common/status.h"

namespace slp::geo {

namespace {

// Largest rectangle count for which UnionVolume() uses inclusion-exclusion
// rather than the sweep.
constexpr size_t kInclusionExclusionMax = 4;

// DFS over subsets of rects[start..] whose running intersection `acc` has
// positive volume, accumulating the inclusion-exclusion sum. `sign` is +1
// for odd subset cardinality, -1 for even. Zero-volume intersections are
// pruned: every deeper subset intersects within them and therefore also has
// zero volume, so the whole subtree contributes nothing.
void InclusionExclusionDfs(const std::vector<Rectangle>& rects, size_t start,
                           const Rectangle& acc, double sign, double* total) {
  for (size_t i = start; i < rects.size(); ++i) {
    std::optional<Rectangle> next = acc.Intersection(rects[i]);
    if (!next.has_value()) continue;
    const double v = next->Volume();
    if (v == 0) continue;
    *total += sign * v;
    InclusionExclusionDfs(rects, i + 1, *next, -sign, total);
  }
}

// Union length of the [lo(d), hi(d)] projections of rects[i] for i in
// `active`, by sort-and-merge.
double IntervalUnionLength(const std::vector<Rectangle>& rects,
                           const std::vector<int>& active, int d) {
  std::vector<std::pair<double, double>> iv;
  iv.reserve(active.size());
  for (int i : active) iv.emplace_back(rects[i].lo(d), rects[i].hi(d));
  std::sort(iv.begin(), iv.end());
  double total = 0;
  double cur_lo = iv[0].first, cur_hi = iv[0].second;
  for (size_t k = 1; k < iv.size(); ++k) {
    if (iv[k].first > cur_hi) {
      total += cur_hi - cur_lo;
      cur_lo = iv[k].first;
      cur_hi = iv[k].second;
    } else {
      cur_hi = std::max(cur_hi, iv[k].second);
    }
  }
  return total + (cur_hi - cur_lo);
}

// Recursive sweep over dimension `d` of the rectangles indexed by `active`
// (all guaranteed to overlap every slab handed down from enclosing
// dimensions). Returns the union volume of the projections onto dims d..end.
double SweepRecurse(const std::vector<Rectangle>& rects,
                    const std::vector<int>& active, int d) {
  if (d == rects[active[0]].dim() - 1) {
    return IntervalUnionLength(rects, active, d);
  }
  // Compressed slab boundaries along dimension d.
  std::vector<double> cuts;
  cuts.reserve(2 * active.size());
  for (int i : active) {
    cuts.push_back(rects[i].lo(d));
    cuts.push_back(rects[i].hi(d));
  }
  std::sort(cuts.begin(), cuts.end());
  cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());

  double total = 0;
  // Adjacent slabs frequently share the same active set; reuse the last
  // recursive result when they do.
  std::vector<int> slab_active, prev_active;
  double prev_volume = 0;
  for (size_t k = 0; k + 1 < cuts.size(); ++k) {
    const double width = cuts[k + 1] - cuts[k];
    if (width <= 0) continue;
    slab_active.clear();
    for (int i : active) {
      if (rects[i].lo(d) <= cuts[k] && rects[i].hi(d) >= cuts[k + 1]) {
        slab_active.push_back(i);
      }
    }
    if (slab_active.empty()) continue;
    if (slab_active != prev_active) {
      prev_volume = SweepRecurse(rects, slab_active, d + 1);
      prev_active = slab_active;
    }
    total += width * prev_volume;
  }
  return total;
}

}  // namespace

double UnionVolume(const std::vector<Rectangle>& rects) {
  // Inclusion-exclusion wins on tiny inputs (no compression overhead); the
  // polynomial sweep wins as soon as subset blowup becomes possible.
  if (rects.size() <= kInclusionExclusionMax) {
    return InclusionExclusionUnionVolume(rects);
  }
  return SweepUnionVolume(rects);
}

double InclusionExclusionUnionVolume(const std::vector<Rectangle>& rects) {
  double total = 0;
  for (size_t i = 0; i < rects.size(); ++i) {
    const double v = rects[i].Volume();
    if (v == 0) continue;
    total += v;
    InclusionExclusionDfs(rects, i + 1, rects[i], -1.0, &total);
  }
  return total;
}

double SweepUnionVolume(const std::vector<Rectangle>& rects) {
  if (rects.empty()) return 0;
  const int dim = rects[0].dim();
  std::vector<int> active;
  active.reserve(rects.size());
  for (size_t i = 0; i < rects.size(); ++i) {
    SLP_DCHECK(rects[i].dim() == dim);
    // Zero-volume (degenerate) rectangles are measure-zero in the union.
    if (rects[i].Volume() > 0) active.push_back(static_cast<int>(i));
  }
  if (active.empty()) return 0;
  return SweepRecurse(rects, active, 0);
}

}  // namespace slp::geo
