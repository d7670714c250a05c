// A broker filter: a union of at most α rectangles in the event space
// (Section II). Provides the coverage test used throughout SLP and the
// exact union-volume computation used for bandwidth accounting
// (Q(B_i) = Vol(f_i) under uniform event distribution).

#ifndef SLP_GEOMETRY_FILTER_H_
#define SLP_GEOMETRY_FILTER_H_

#include <optional>
#include <vector>

#include "src/geometry/rectangle.h"

namespace slp::geo {

// A (possibly empty) union of rectangles. The filter-complexity cap α is a
// property of the problem configuration, not of this class; FilterAdjust
// (src/core) enforces it on final filters. Preliminary filters produced by
// randomized rounding may temporarily exceed α (paper, Section IV-A.1
// remark).
class Filter {
 public:
  Filter() = default;
  explicit Filter(std::vector<Rectangle> rects) : rects_(std::move(rects)) {}

  bool empty() const { return rects_.empty(); }
  int size() const { return static_cast<int>(rects_.size()); }
  const std::vector<Rectangle>& rects() const { return rects_; }
  const Rectangle& rect(int i) const { return rects_[i]; }

  void Add(Rectangle r) { rects_.push_back(std::move(r)); }
  void Clear() { rects_.clear(); }

  // True iff some rectangle of the filter contains `r`. This is the paper's
  // "cover" primitive in the event space: a subscription must be inside a
  // single rectangle, not merely inside the union.
  bool CoversRect(const Rectangle& r) const;

  bool ContainsPoint(const Point& p) const;

  // True iff every rectangle of `other` is contained in some rectangle of
  // this filter — a sufficient (rectangle-wise) check for the nesting
  // condition f_other ⊆ f_this used by the library's validators.
  bool CoversFilter(const Filter& other) const;

  // Sum of rectangle volumes (the LP objective; overlaps counted twice —
  // paper, footnote 2).
  double SumVolume() const;

  // Exact volume of the union: geo::UnionVolume(rects())
  // (src/geometry/union_volume.h), inclusion-exclusion for small filters
  // and the polynomial coordinate-compression sweep above that.
  double UnionVolume() const;

  // ε-expansion applied to each rectangle (Section IV-A.2).
  Filter Expanded(double eps) const;

  // Minimum enclosing box of all rectangles; nullopt for an empty filter.
  std::optional<Rectangle> Meb() const;

 private:
  std::vector<Rectangle> rects_;
};

}  // namespace slp::geo

#endif  // SLP_GEOMETRY_FILTER_H_
