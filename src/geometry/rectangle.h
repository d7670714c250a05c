// Axis-aligned d-dimensional rectangles (boxes) in the event space E.
//
// Subscriptions, candidate filters, and broker filters are all built from
// Rectangle. The paper's key primitives — minimum enclosing box (MEB),
// ε-expansion, volume, containment, and least-volume enlargement — live
// here.

#ifndef SLP_GEOMETRY_RECTANGLE_H_
#define SLP_GEOMETRY_RECTANGLE_H_

#include <optional>
#include <string>
#include <vector>

#include "src/geometry/point.h"

namespace slp::geo {

// A closed axis-aligned box ∏_i [lo_i, hi_i]. Invariant: lo_i <= hi_i for
// every dimension (degenerate boxes with zero extent are allowed).
//
// Boundary convention — CLOSED containment, everywhere. ContainsPoint(p)
// is lo_i <= p_i <= hi_i in every dimension: a rectangle contains its own
// boundary. Consequences the rest of the library relies on:
//
//  * An event landing exactly on the shared edge of two abutting
//    rectangles is contained in BOTH. Every point-containment path — this
//    class, Filter::ContainsPoint, the brute-force router in tests/, and
//    the grid index in src/match — must agree on such events bit-for-bit;
//    the match differential tests probe shared edges and corners
//    explicitly.
//  * A non-finite coordinate lies outside every rectangle: every path
//    tests lo_i <= p_i && p_i <= hi_i positively, which a NaN fails.
//  * Union volume is measure-theoretic: a shared face has measure zero,
//    so the closed convention never double-counts volume. Realized traffic
//    of abutting filters can exceed the volume sum only on a
//    measure-zero event set (deterministic boundary events, never uniform
//    samples with probability > 0).
//  * Degenerate boxes (lo_i == hi_i somewhere) still contain the points
//    of their face; a point box contains exactly its one point.
class Rectangle {
 public:
  Rectangle() = default;

  // Constructs from per-dimension bounds. CHECK-fails if lo > hi anywhere.
  Rectangle(std::vector<double> lo, std::vector<double> hi);

  // A degenerate box containing exactly one point.
  static Rectangle FromPoint(const Point& p);

  // A box centered at `center` with per-dimension total widths `widths`.
  static Rectangle FromCenter(const Point& center,
                              const std::vector<double>& widths);

  // Minimum enclosing box of a non-empty set of rectangles.
  static Rectangle Meb(const std::vector<Rectangle>& rects);

  int dim() const { return static_cast<int>(lo_.size()); }
  double lo(int i) const { return lo_[i]; }
  double hi(int i) const { return hi_[i]; }
  double length(int i) const { return hi_[i] - lo_[i]; }
  const std::vector<double>& lo() const { return lo_; }
  const std::vector<double>& hi() const { return hi_; }

  Point Center() const;

  // Product of side lengths. Degenerate boxes have volume 0.
  double Volume() const;

  bool ContainsPoint(const Point& p) const;
  bool Contains(const Rectangle& r) const;  // true iff r ⊆ this
  bool Intersects(const Rectangle& r) const;

  // True iff p is contained AND lies on at least one face (p_i == lo_i or
  // p_i == hi_i somewhere). The boundary-semantics helper used by the
  // match auditors to label the probes that distinguish closed from
  // half-open containment.
  bool OnBoundary(const Point& p) const;

  // The corner selected by `mask`: bit i set picks hi_i, clear picks lo_i.
  // mask must be < 2^dim. Corners are the canonical boundary probes.
  Point Corner(unsigned mask) const;

  // Intersection box, or nullopt if disjoint.
  std::optional<Rectangle> Intersection(const Rectangle& r) const;

  // Smallest box containing both this and r.
  Rectangle EnclosureWith(const Rectangle& r) const;

  // Vol(MEB(this, r)), computed in place: bit-identical to
  // EnclosureWith(r).Volume() (the same per-dimension sides multiplied in
  // the same order) without building the enclosure.
  double EnclosureVolume(const Rectangle& r) const;

  // Grows this box (in place) to contain r. Returns *this.
  Rectangle& Enclose(const Rectangle& r);

  // Vol(MEB(this, r)) - Vol(this): the R-tree-style insertion cost used by
  // the greedy algorithms (Section III). Allocates nothing.
  double EnlargementTo(const Rectangle& r) const;

  // The paper's ε-expansion: each side [l,h] becomes
  // [l - ε(h-l)/2, h + ε(h-l)/2] (Section IV-A.2). Note a degenerate side
  // stays degenerate; callers that need slack on degenerate sides should
  // pad widths at generation time.
  Rectangle Expanded(double eps) const;

  bool operator==(const Rectangle& r) const {
    return lo_ == r.lo_ && hi_ == r.hi_;
  }

  std::string ToString() const;

 private:
  std::vector<double> lo_;
  std::vector<double> hi_;
};

}  // namespace slp::geo

#endif  // SLP_GEOMETRY_RECTANGLE_H_
