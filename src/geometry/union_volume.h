// Exact union-of-rectangles volume: Vol(f_i), the term of
// Q(T) = Σ_i Vol(f_i) (Section II).
//
// UnionVolume() dispatches between two exact algorithms with very
// different cost profiles:
//
//  - InclusionExclusionUnionVolume: DFS over non-empty subset intersections.
//    Exponential in n in the worst case but allocation-light and fastest for
//    tiny inputs (n <= ~4).
//  - SweepUnionVolume: coordinate compression plus a recursive
//    dimension-by-dimension sweep. O(n log n) in one dimension and
//    O(n^(d-1) * n log n) in d dimensions — polynomial, so large filters
//    (n = 20+) that are intractable under inclusion-exclusion stay cheap.
//
// Both are exact (no sampling); they must agree to floating-point noise on
// every input, a property the geometry test suite checks on randomized
// workloads including abutting and duplicate rectangles.

#ifndef SLP_GEOMETRY_UNION_VOLUME_H_
#define SLP_GEOMETRY_UNION_VOLUME_H_

#include <vector>

#include "src/geometry/rectangle.h"

namespace slp::geo {

// Exact volume of the union of `rects`; 0 when empty. Inclusion-exclusion
// for at most four rectangles, the sweep above that, so arbitrarily large
// inputs stay tractable.
double UnionVolume(const std::vector<Rectangle>& rects);

// Exact union volume by inclusion-exclusion over subset intersections.
// Prunes empty and zero-volume intersections (a zero-volume intersection
// forces every deeper subset term to zero as well, so abutting rectangles
// no longer trigger exponential subset visits). Exponential worst case;
// intended for n <= ~4.
double InclusionExclusionUnionVolume(const std::vector<Rectangle>& rects);

// Exact union volume by coordinate compression and a recursive sweep over
// dimension 0: for each slab between consecutive compressed coordinates,
// the rectangles spanning the slab are projected onto the remaining
// dimensions and the (d-1)-dimensional union volume of the projections is
// multiplied by the slab width. The one-dimensional base case is interval
// merging. Polynomial: O(n^(d-1) * n log n).
double SweepUnionVolume(const std::vector<Rectangle>& rects);

}  // namespace slp::geo

#endif  // SLP_GEOMETRY_UNION_VOLUME_H_
