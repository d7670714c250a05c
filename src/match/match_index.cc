#include "src/match/match_index.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "src/common/invariant.h"

namespace slp::match {

namespace {

// At most this many grid cells per mean rectangle side on an axis.
constexpr double kCellsPerMeanSide = 6;

// Grid resolution of one axis. ~sqrt(n) cells keeps the expected
// candidates per cell O(1) for small rectangles. A broad rectangle would
// cover ~sqrt(n) * side / extent cells of the axis, so the resolution is
// also capped at kCellsPerMeanSide cells per mean side: a typical
// rectangle then fills ~(k + 1)^2 cells (build time and memory), while a
// probe tests ~(1 + 1/k)^2 times as many candidates as it matches.
int GridResolution(int num_rects, double extent, double mean_side) {
  double g = std::ceil(std::sqrt(static_cast<double>(std::max(num_rects, 1))));
  if (mean_side > 0) {
    g = std::min(g, std::ceil(kCellsPerMeanSide * extent / mean_side));
  }
  return static_cast<int>(std::clamp(g, 1.0, 512.0));
}

// Cell of coordinate offset `c` (already in cell units) on an axis of `g`
// cells: floor(c) clamped to [0, g - 1], with the clamp done in floating
// point so the int conversion never sees a NaN or out-of-range value.
int ClampedCell(double c, int g) {
  if (!(c > 0)) return 0;
  return c < g ? static_cast<int>(c) : g - 1;
}

}  // namespace

int MatchIndex::CellX(double x) const {
  // inv_wx_ == 0 (flat axis or empty index) maps everything to cell 0.
  return ClampedCell((x - min_x_) * inv_wx_, gx_);
}

int MatchIndex::CellY(double y) const {
  return ClampedCell((y - min_y_) * inv_wy_, gy_);
}

geo::Rectangle MatchIndex::rect(int k) const {
  SLP_DCHECK(k >= 0 && k < num_rects());
  std::vector<double> lo(dim_), hi(dim_);
  lo[0] = lo_x_[k];
  hi[0] = hi_x_[k];
  if (dim_ > 1) {
    lo[1] = lo_y_[k];
    hi[1] = hi_y_[k];
  }
  const size_t rest = static_cast<size_t>(dim_ > 2 ? dim_ - 2 : 0);
  for (size_t a = 0; a < rest; ++a) {
    lo[a + 2] = lo_rest_[k * rest + a];
    hi[a + 2] = hi_rest_[k * rest + a];
  }
  return geo::Rectangle(std::move(lo), std::move(hi));
}

bool MatchIndex::ContainsRest(int k, const double* rest) const {
  const size_t n = static_cast<size_t>(dim_ - 2);
  const double* lo = lo_rest_.data() + k * n;
  const double* hi = hi_rest_.data() + k * n;
  for (size_t a = 0; a < n; ++a) {
    if (!(rest[a] >= lo[a] && rest[a] <= hi[a])) return false;
  }
  return true;
}

template <typename Fn>
void MatchIndex::ForEachContaining(double x, double y, const double* rest,
                                   Fn&& fn) const {
  if (owner_.empty()) return;
  // The positive test rejects a NaN before it reaches the cell functions.
  if (!(x >= min_x_ && x <= max_x_ && y >= min_y_ && y <= max_y_)) return;
  int count = 0;
  const int32_t* ids = CellBegin(CellX(x), CellY(y), &count);
  for (int i = 0; i < count; ++i) {
    const int32_t k = ids[i];
    if (!(x >= lo_x_[k] && x <= hi_x_[k] && y >= lo_y_[k] && y <= hi_y_[k])) {
      continue;
    }
    if (rest != nullptr && !ContainsRest(k, rest)) continue;
    fn(k);
  }
}

template <typename Fn>
void MatchIndex::ForEachContaining(const geo::Point& p, Fn&& fn) const {
  if (owner_.empty()) return;
  SLP_DCHECK(static_cast<int>(p.size()) == dim_);
  ForEachContaining(p[0], dim_ > 1 ? p[1] : 0.0,
                    dim_ > 2 ? p.data() + 2 : nullptr, std::forward<Fn>(fn));
}

void MatchIndex::Probe(const geo::Point& p, BitSet* owners,
                       std::vector<int32_t>* matched) const {
  SLP_DCHECK(owners->size() >= num_owners_);
  ForEachContaining(p, [&](int32_t k) {
    const int32_t o = owner_[k];
    if (!owners->Test(o)) {
      owners->Set(o);
      matched->push_back(o);
    }
  });
}

void MatchIndex::AppendContaining(const geo::Point& p,
                                  std::vector<int32_t>* out) const {
  ForEachContaining(p, [&](int32_t k) { out->push_back(owner_[k]); });
}

void MatchIndex::AppendContaining(double x, double y,
                                  std::vector<int32_t>* out) const {
  SLP_DCHECK(dim_ <= 2);
  ForEachContaining(x, dim_ > 1 ? y : 0.0, nullptr,
                    [&](int32_t k) { out->push_back(owner_[k]); });
}

MatchIndex BuildIndex(const std::vector<OwnedRect>& rects, int num_owners) {
  SLP_DCHECK(num_owners >= 0);
  MatchIndex idx;
  idx.num_owners_ = num_owners;
  const int n = static_cast<int>(rects.size());
  if (n == 0) {
    idx.cell_start_.assign(2, 0);
    return idx;
  }

  const int d = rects[0].rect.dim();
  SLP_DCHECK(d >= 1);
  idx.dim_ = d;
  const size_t rest = static_cast<size_t>(d > 2 ? d - 2 : 0);
  idx.lo_x_.resize(n);
  idx.hi_x_.resize(n);
  idx.lo_y_.assign(n, 0.0);
  idx.hi_y_.assign(n, 0.0);
  idx.lo_rest_.resize(n * rest);
  idx.hi_rest_.resize(n * rest);
  idx.owner_.resize(n);
  for (int k = 0; k < n; ++k) {
    const geo::Rectangle& r = rects[k].rect;
    SLP_DCHECK(r.dim() == d);
    SLP_DCHECK(rects[k].owner >= 0 && rects[k].owner < num_owners);
    idx.lo_x_[k] = r.lo(0);
    idx.hi_x_[k] = r.hi(0);
    if (d > 1) {
      idx.lo_y_[k] = r.lo(1);
      idx.hi_y_[k] = r.hi(1);
    }
    for (size_t a = 0; a < rest; ++a) {
      idx.lo_rest_[k * rest + a] = r.lo(static_cast<int>(a) + 2);
      idx.hi_rest_[k * rest + a] = r.hi(static_cast<int>(a) + 2);
    }
    idx.owner_[k] = rects[k].owner;
  }
  idx.min_x_ = *std::min_element(idx.lo_x_.begin(), idx.lo_x_.end());
  idx.max_x_ = *std::max_element(idx.hi_x_.begin(), idx.hi_x_.end());
  idx.min_y_ = *std::min_element(idx.lo_y_.begin(), idx.lo_y_.end());
  idx.max_y_ = *std::max_element(idx.hi_y_.begin(), idx.hi_y_.end());
  double side_x = 0, side_y = 0;
  for (int k = 0; k < n; ++k) {
    side_x += idx.hi_x_[k] - idx.lo_x_[k];
    side_y += idx.hi_y_[k] - idx.lo_y_[k];
  }

  idx.gx_ = GridResolution(n, idx.max_x_ - idx.min_x_, side_x / n);
  idx.gy_ = GridResolution(n, idx.max_y_ - idx.min_y_, side_y / n);
  idx.inv_wx_ = idx.max_x_ > idx.min_x_
                    ? static_cast<double>(idx.gx_) / (idx.max_x_ - idx.min_x_)
                    : 0;
  idx.inv_wy_ = idx.max_y_ > idx.min_y_
                    ? static_cast<double>(idx.gy_) / (idx.max_y_ - idx.min_y_)
                    : 0;
  if (idx.inv_wx_ == 0) idx.gx_ = 1;
  if (idx.inv_wy_ == 0) idx.gy_ = 1;

  // CSR fill, two passes: count entries per cell, then place rect ids.
  // Rect k covers the cell ranges [CellX(lo), CellX(hi)] x [CellY(lo),
  // CellY(hi)]; CellX/CellY are monotone, so every probe coordinate inside
  // the rectangle maps into that range.
  const size_t num_cells = static_cast<size_t>(idx.gx_) * idx.gy_;
  idx.cell_start_.assign(num_cells + 1, 0);
  for (int k = 0; k < n; ++k) {
    const int cx0 = idx.CellX(idx.lo_x_[k]), cx1 = idx.CellX(idx.hi_x_[k]);
    const int cy0 = idx.CellY(idx.lo_y_[k]), cy1 = idx.CellY(idx.hi_y_[k]);
    for (int cy = cy0; cy <= cy1; ++cy) {
      for (int cx = cx0; cx <= cx1; ++cx) {
        ++idx.cell_start_[static_cast<size_t>(cy) * idx.gx_ + cx + 1];
      }
    }
  }
  for (size_t c = 0; c < num_cells; ++c) {
    idx.cell_start_[c + 1] += idx.cell_start_[c];
  }
  idx.cell_rects_.resize(idx.cell_start_[num_cells]);
  std::vector<uint32_t> fill(idx.cell_start_.begin(),
                             idx.cell_start_.end() - 1);
  for (int k = 0; k < n; ++k) {
    const int cx0 = idx.CellX(idx.lo_x_[k]), cx1 = idx.CellX(idx.hi_x_[k]);
    const int cy0 = idx.CellY(idx.lo_y_[k]), cy1 = idx.CellY(idx.hi_y_[k]);
    for (int cy = cy0; cy <= cy1; ++cy) {
      for (int cx = cx0; cx <= cx1; ++cx) {
        idx.cell_rects_[fill[static_cast<size_t>(cy) * idx.gx_ + cx]++] = k;
      }
    }
  }
  // Ids land in each cell in ascending k already (the fill loop visits k
  // in order), so probe answers are deterministic by construction.
  return idx;
}

}  // namespace slp::match
