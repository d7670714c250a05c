#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/random.h"
#include "src/geometry/clustering.h"
#include "src/geometry/filter.h"
#include "src/geometry/point.h"
#include "src/geometry/rectangle.h"
#include "src/geometry/union_volume.h"

namespace slp::geo {
namespace {

Rectangle Box2(double x0, double x1, double y0, double y1) {
  return Rectangle({x0, y0}, {x1, y1});
}

// Random box in [0,1]^d.
Rectangle RandomBox(int d, Rng& rng) {
  std::vector<double> lo(d), hi(d);
  for (int i = 0; i < d; ++i) {
    double a = rng.Uniform(0, 1), b = rng.Uniform(0, 1);
    lo[i] = std::min(a, b);
    hi[i] = std::max(a, b);
  }
  return Rectangle(std::move(lo), std::move(hi));
}

TEST(PointTest, DistanceIsEuclidean) {
  Point a = {0, 0, 0};
  Point b = {1, 2, 2};
  EXPECT_DOUBLE_EQ(Distance(a, b), 3.0);
  EXPECT_DOUBLE_EQ(DistanceSquared(a, b), 9.0);
  EXPECT_DOUBLE_EQ(Distance(a, a), 0.0);
}

TEST(RectangleTest, VolumeAndAccessors) {
  Rectangle r = Box2(0, 2, 1, 4);
  EXPECT_EQ(r.dim(), 2);
  EXPECT_DOUBLE_EQ(r.Volume(), 6.0);
  EXPECT_DOUBLE_EQ(r.length(0), 2.0);
  EXPECT_DOUBLE_EQ(r.length(1), 3.0);
  Point c = r.Center();
  EXPECT_DOUBLE_EQ(c[0], 1.0);
  EXPECT_DOUBLE_EQ(c[1], 2.5);
}

TEST(RectangleTest, DegenerateBoxHasZeroVolume) {
  Rectangle r = Rectangle::FromPoint({3, 4});
  EXPECT_DOUBLE_EQ(r.Volume(), 0.0);
  EXPECT_TRUE(r.ContainsPoint({3, 4}));
  EXPECT_FALSE(r.ContainsPoint({3, 4.001}));
}

TEST(RectangleTest, FromCenterRoundTrips) {
  Rectangle r = Rectangle::FromCenter({1, 2}, {4, 6});
  EXPECT_DOUBLE_EQ(r.lo(0), -1);
  EXPECT_DOUBLE_EQ(r.hi(0), 3);
  EXPECT_DOUBLE_EQ(r.lo(1), -1);
  EXPECT_DOUBLE_EQ(r.hi(1), 5);
}

TEST(RectangleTest, ContainmentSemantics) {
  Rectangle outer = Box2(0, 10, 0, 10);
  Rectangle inner = Box2(2, 3, 2, 3);
  EXPECT_TRUE(outer.Contains(inner));
  EXPECT_FALSE(inner.Contains(outer));
  EXPECT_TRUE(outer.Contains(outer));  // closed containment is reflexive
  // Touching the boundary still counts (closed boxes).
  EXPECT_TRUE(outer.Contains(Box2(0, 10, 0, 10)));
  EXPECT_FALSE(outer.Contains(Box2(-0.001, 1, 0, 1)));
}

// Regression: ContainsPoint used the negated test (p < lo || p > hi),
// which a NaN fails, so NaN counted as inside every rectangle. A
// non-finite coordinate lies outside every rectangle.
TEST(RectangleTest, ContainsPointRejectsNaN) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const Rectangle r = Box2(0, 1, 0, 1);
  EXPECT_TRUE(r.ContainsPoint({0.3, 0.3}));
  EXPECT_FALSE(r.ContainsPoint({nan, 0.3}));
  EXPECT_FALSE(r.ContainsPoint({0.3, nan}));
  EXPECT_FALSE(r.ContainsPoint({nan, nan}));
  EXPECT_FALSE(r.ContainsPoint({inf, 0.3}));
  EXPECT_FALSE(r.ContainsPoint({0.3, -inf}));
  EXPECT_FALSE(r.OnBoundary({nan, 0.0}));
  EXPECT_FALSE(Filter({r, Box2(0.5, 2, 0.5, 2)}).ContainsPoint({nan, 0.7}));
}

TEST(RectangleTest, IntersectionAndDisjointness) {
  Rectangle a = Box2(0, 2, 0, 2);
  Rectangle b = Box2(1, 3, 1, 3);
  ASSERT_TRUE(a.Intersects(b));
  auto inter = a.Intersection(b);
  ASSERT_TRUE(inter.has_value());
  EXPECT_DOUBLE_EQ(inter->Volume(), 1.0);

  Rectangle c = Box2(5, 6, 5, 6);
  EXPECT_FALSE(a.Intersects(c));
  EXPECT_FALSE(a.Intersection(c).has_value());

  // Boundary touch: closed boxes intersect in a degenerate box.
  Rectangle d = Box2(2, 3, 0, 2);
  ASSERT_TRUE(a.Intersects(d));
  EXPECT_DOUBLE_EQ(a.Intersection(d)->Volume(), 0.0);
}

TEST(RectangleTest, EnclosureAndEnlargement) {
  Rectangle a = Box2(0, 1, 0, 1);
  Rectangle b = Box2(2, 3, 0, 1);
  Rectangle e = a.EnclosureWith(b);
  EXPECT_DOUBLE_EQ(e.Volume(), 3.0);
  EXPECT_DOUBLE_EQ(a.EnlargementTo(b), 2.0);
  EXPECT_DOUBLE_EQ(a.EnlargementTo(a), 0.0);
  // Enclose mutates in place.
  Rectangle m = a;
  m.Enclose(b);
  EXPECT_TRUE(m == e);
}

// The in-place enclosure volume and EnlargementTo are pinned bit for bit
// (EXPECT_EQ on the doubles) to building the enclosure: random, nested,
// disjoint and zero-extent boxes in d = 1..4.
TEST(RectangleTest, InPlaceEnclosureVolumeIsBitIdentical) {
  Rng rng(41);
  int checked = 0;
  for (int d = 1; d <= 4; ++d) {
    for (int trial = 0; trial < 200; ++trial) {
      const Rectangle a = RandomBox(d, rng);
      const Rectangle random = RandomBox(d, rng);
      // Nested: a box shrunk inside `a` (and `a` inside its enclosure).
      std::vector<double> lo(d), hi(d), plo(d), phi(d), shift(d);
      for (int i = 0; i < d; ++i) {
        const double t = rng.Uniform(0, 0.5), u = rng.Uniform(0.5, 1);
        lo[i] = a.lo(i) + t * a.length(i);
        hi[i] = a.lo(i) + u * a.length(i);
        // Zero extent in some dimensions: a face, an edge or a point.
        plo[i] = phi[i] = rng.Bernoulli(0.5) ? rng.Uniform(-1, 2)
                                             : a.lo(i);
        if (rng.Bernoulli(0.3)) phi[i] = plo[i] + rng.Uniform(0, 1);
        shift[i] = a.lo(i) + 3 + rng.Uniform(0, 1);  // disjoint from a
      }
      std::vector<double> shift_hi(d);
      for (int i = 0; i < d; ++i) shift_hi[i] = shift[i] + a.length(i);
      const Rectangle nested(lo, hi);
      const Rectangle degenerate(plo, phi);
      const Rectangle disjoint(shift, shift_hi);
      for (const Rectangle* b : {&random, &nested, &degenerate, &disjoint}) {
        for (const auto& [x, y] : {std::pair{&a, b}, std::pair{b, &a}}) {
          EXPECT_EQ(x->EnclosureVolume(*y), x->EnclosureWith(*y).Volume());
          EXPECT_EQ(x->EnlargementTo(*y),
                    x->EnclosureWith(*y).Volume() - x->Volume());
          ++checked;
        }
      }
      EXPECT_EQ(nested.EnlargementTo(nested), 0.0);
      EXPECT_EQ(degenerate.EnclosureVolume(degenerate), degenerate.Volume());
    }
  }
  EXPECT_EQ(checked, 4 * 200 * 8);
}

TEST(RectangleTest, MebOfSet) {
  std::vector<Rectangle> rects = {Box2(0, 1, 0, 1), Box2(4, 5, -1, 0),
                                  Box2(2, 3, 3, 4)};
  Rectangle meb = Rectangle::Meb(rects);
  EXPECT_DOUBLE_EQ(meb.lo(0), 0);
  EXPECT_DOUBLE_EQ(meb.hi(0), 5);
  EXPECT_DOUBLE_EQ(meb.lo(1), -1);
  EXPECT_DOUBLE_EQ(meb.hi(1), 4);
  for (const auto& r : rects) EXPECT_TRUE(meb.Contains(r));
}

TEST(RectangleTest, EpsilonExpansionMatchesPaperDefinition) {
  // (1+eps)R: [l - eps(h-l)/2, h + eps(h-l)/2] per dimension.
  Rectangle r = Box2(0, 2, 1, 2);
  Rectangle e = r.Expanded(0.5);
  EXPECT_DOUBLE_EQ(e.lo(0), -0.5);
  EXPECT_DOUBLE_EQ(e.hi(0), 2.5);
  EXPECT_DOUBLE_EQ(e.lo(1), 0.75);
  EXPECT_DOUBLE_EQ(e.hi(1), 2.25);
  EXPECT_TRUE(e.Contains(r));
  // Zero expansion is identity.
  EXPECT_TRUE(r.Expanded(0.0) == r);
}

// Property: expansion scales each side length by exactly (1+eps).
TEST(RectangleTest, ExpansionScalesSides) {
  Rng rng(17);
  for (int t = 0; t < 100; ++t) {
    Rectangle r = RandomBox(3, rng);
    double eps = rng.Uniform(0, 2);
    Rectangle e = r.Expanded(eps);
    for (int i = 0; i < 3; ++i) {
      EXPECT_NEAR(e.length(i), (1 + eps) * r.length(i), 1e-12);
    }
  }
}

TEST(FilterTest, CoversRectRequiresSingleRectangleContainment) {
  // Union of the two rects covers [0,2]x[0,1] but no single rect does.
  Filter f({Box2(0, 1, 0, 1), Box2(1, 2, 0, 1)});
  EXPECT_TRUE(f.CoversRect(Box2(0.2, 0.8, 0.2, 0.8)));
  EXPECT_TRUE(f.CoversRect(Box2(1.2, 1.8, 0.2, 0.8)));
  EXPECT_FALSE(f.CoversRect(Box2(0.5, 1.5, 0.2, 0.8)))
      << "straddling rect must not count as covered";
}

TEST(FilterTest, ContainsPointOverUnion) {
  Filter f({Box2(0, 1, 0, 1), Box2(5, 6, 5, 6)});
  EXPECT_TRUE(f.ContainsPoint({0.5, 0.5}));
  EXPECT_TRUE(f.ContainsPoint({5.5, 5.5}));
  EXPECT_FALSE(f.ContainsPoint({3, 3}));
}

TEST(FilterTest, SumVsUnionVolumeOnOverlap) {
  Filter f({Box2(0, 2, 0, 2), Box2(1, 3, 0, 2)});
  EXPECT_DOUBLE_EQ(f.SumVolume(), 8.0);
  EXPECT_DOUBLE_EQ(f.UnionVolume(), 6.0);
}

TEST(FilterTest, UnionVolumeDisjoint) {
  Filter f({Box2(0, 1, 0, 1), Box2(2, 3, 2, 3), Box2(4, 5, 0, 1)});
  EXPECT_DOUBLE_EQ(f.UnionVolume(), 3.0);
}

TEST(FilterTest, UnionVolumeNested) {
  Filter f({Box2(0, 4, 0, 4), Box2(1, 2, 1, 2)});
  EXPECT_DOUBLE_EQ(f.UnionVolume(), 16.0);
}

TEST(FilterTest, UnionVolumeEmptyFilter) {
  Filter f;
  EXPECT_DOUBLE_EQ(f.UnionVolume(), 0.0);
  EXPECT_DOUBLE_EQ(f.SumVolume(), 0.0);
  EXPECT_TRUE(f.empty());
}

// Property: inclusion-exclusion union volume matches a Monte-Carlo estimate.
class UnionVolumeMonteCarloTest : public ::testing::TestWithParam<int> {};

TEST_P(UnionVolumeMonteCarloTest, MatchesMonteCarlo) {
  Rng rng(1000 + GetParam());
  const int num_rects = 1 + GetParam() % 7;
  std::vector<Rectangle> rects;
  for (int i = 0; i < num_rects; ++i) rects.push_back(RandomBox(2, rng));
  Filter f(rects);
  const double exact = f.UnionVolume();

  const int samples = 200000;
  int hits = 0;
  for (int s = 0; s < samples; ++s) {
    Point p = {rng.Uniform(0, 1), rng.Uniform(0, 1)};
    hits += f.ContainsPoint(p);
  }
  const double mc = hits / static_cast<double>(samples);
  EXPECT_NEAR(exact, mc, 0.01) << "rects=" << num_rects;
  // Basic sanity: union <= sum, union >= max individual volume.
  EXPECT_LE(exact, f.SumVolume() + 1e-12);
  double max_vol = 0;
  for (const auto& r : rects) max_vol = std::max(max_vol, r.Volume());
  EXPECT_GE(exact, max_vol - 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Sweep, UnionVolumeMonteCarloTest,
                         ::testing::Range(0, 12));

TEST(FilterTest, ExpandedExpandsEveryRect) {
  Filter f({Box2(0, 1, 0, 1), Box2(2, 4, 2, 4)});
  Filter e = f.Expanded(0.1);
  ASSERT_EQ(e.size(), 2);
  for (int i = 0; i < 2; ++i) {
    EXPECT_TRUE(e.rect(i).Contains(f.rect(i)));
    EXPECT_TRUE(e.rect(i) == f.rect(i).Expanded(0.1));
  }
}

TEST(FilterTest, CoversFilterIsRectanglewise) {
  Filter big({Box2(0, 10, 0, 10)});
  Filter small({Box2(1, 2, 1, 2), Box2(3, 4, 3, 4)});
  EXPECT_TRUE(big.CoversFilter(small));
  EXPECT_FALSE(small.CoversFilter(big));
}

TEST(FilterTest, MebEnclosesAllRects) {
  Filter f({Box2(0, 1, 5, 6), Box2(3, 4, 0, 1)});
  std::optional<Rectangle> meb = f.Meb();
  ASSERT_TRUE(meb.has_value());
  for (const auto& r : f.rects()) EXPECT_TRUE(meb->Contains(r));
  EXPECT_DOUBLE_EQ(meb->Volume(), 4 * 6);
}

TEST(FilterTest, MebOfEmptyFilterIsNullopt) {
  Filter f;
  EXPECT_FALSE(f.Meb().has_value());
}

// ---------------------------------------------------------------------------
// Union-volume engines: sweep vs inclusion-exclusion
// ---------------------------------------------------------------------------

// A box whose coordinates are multiples of 1/4 in [0, 2]: abutting faces
// and exact duplicates are common, which is the degenerate-intersection
// regime grid workloads produce.
Rectangle GridAlignedBox(int d, Rng& rng) {
  std::vector<double> lo(d), hi(d);
  for (int i = 0; i < d; ++i) {
    const int a = static_cast<int>(rng.UniformInt(0, 7));
    const int len = static_cast<int>(rng.UniformInt(0, 3));
    lo[i] = a / 4.0;
    hi[i] = (a + len) / 4.0;  // len 0: degenerate (zero-volume) side
  }
  return Rectangle(std::move(lo), std::move(hi));
}

// Randomized agreement property over d in {1,2,3}, n <= 12, mixing random,
// grid-aligned (abutting/degenerate), and duplicated rectangles. Both
// engines are exact, so they must agree to floating-point noise.
TEST(UnionVolumeEngineTest, SweepMatchesInclusionExclusion) {
  Rng rng(20260805);
  for (int t = 0; t < 1200; ++t) {
    const int d = 1 + t % 3;
    const int n = 1 + static_cast<int>(rng.UniformInt(0, 11));
    const int mode = t % 4;  // 0,1: random; 2: grid; 3: grid + duplicates
    std::vector<Rectangle> rects;
    rects.reserve(n);
    for (int i = 0; i < n; ++i) {
      rects.push_back(mode >= 2 ? GridAlignedBox(d, rng) : RandomBox(d, rng));
    }
    if (mode == 3) {
      const int extra = static_cast<int>(rng.UniformInt(1, 3));
      for (int e = 0; e < extra && static_cast<int>(rects.size()) < 12; ++e) {
        rects.push_back(rects[rng.UniformInt(0, rects.size() - 1)]);
      }
    }
    const double ie = InclusionExclusionUnionVolume(rects);
    const double sweep = SweepUnionVolume(rects);
    const double scale = std::max({1.0, std::abs(ie), std::abs(sweep)});
    EXPECT_NEAR(ie, sweep, 1e-9 * scale)
        << "case " << t << " d=" << d << " n=" << rects.size()
        << " mode=" << mode;
  }
}

TEST(UnionVolumeEngineTest, AbuttingRectanglesExact) {
  // A 4x4 grid of unit squares sharing faces: union is exactly 16, and the
  // zero-volume intersection pruning must keep inclusion-exclusion cheap.
  std::vector<Rectangle> rects;
  for (int x = 0; x < 4; ++x) {
    for (int y = 0; y < 4; ++y) {
      rects.push_back(Box2(x, x + 1, y, y + 1));
    }
  }
  EXPECT_DOUBLE_EQ(InclusionExclusionUnionVolume(rects), 16.0);
  EXPECT_DOUBLE_EQ(SweepUnionVolume(rects), 16.0);
  EXPECT_DOUBLE_EQ(Filter(rects).UnionVolume(), 16.0);
}

TEST(UnionVolumeEngineTest, ZeroVolumeRectanglesIgnored) {
  std::vector<Rectangle> rects = {Box2(0, 1, 0, 1), Box2(2, 2, 0, 5),
                                  Rectangle::FromPoint({9, 9})};
  EXPECT_DOUBLE_EQ(InclusionExclusionUnionVolume(rects), 1.0);
  EXPECT_DOUBLE_EQ(SweepUnionVolume(rects), 1.0);
}

TEST(UnionVolumeEngineTest, LargeFilterUsesTractableSweep) {
  // n = 24 heavily overlapping squares: intractable subset counts under
  // unpruned inclusion-exclusion, instant under the sweep dispatch.
  Rng rng(7);
  std::vector<Rectangle> rects;
  for (int i = 0; i < 24; ++i) {
    const double x = rng.Uniform(0, 0.5), y = rng.Uniform(0, 0.5);
    rects.push_back(Box2(x, x + 0.5, y, y + 0.5));
  }
  Filter f(rects);
  const double v = f.UnionVolume();
  EXPECT_GT(v, 0.25);  // at least one 0.5x0.5 square
  EXPECT_LE(v, 1.0);   // all inside [0, 1]^2
  EXPECT_DOUBLE_EQ(v, SweepUnionVolume(rects));
}

TEST(KMeansTest, SeparatedClustersRecovered) {
  Rng rng(21);
  std::vector<Point> pts;
  // Three tight blobs far apart.
  for (int c = 0; c < 3; ++c) {
    for (int i = 0; i < 30; ++i) {
      pts.push_back({10.0 * c + rng.Uniform(-0.1, 0.1),
                     10.0 * c + rng.Uniform(-0.1, 0.1)});
    }
  }
  KMeansResult r = KMeans(pts, 3, rng);
  EXPECT_EQ(r.num_clusters(), 3);
  // Points within a blob share a label; across blobs differ.
  for (int c = 0; c < 3; ++c) {
    for (int i = 1; i < 30; ++i) {
      EXPECT_EQ(r.labels[30 * c + i], r.labels[30 * c]);
    }
  }
  EXPECT_NE(r.labels[0], r.labels[30]);
  EXPECT_NE(r.labels[30], r.labels[60]);
}

TEST(KMeansTest, KGreaterThanNGivesSingletons) {
  Rng rng(22);
  std::vector<Point> pts = {{0, 0}, {1, 1}, {2, 2}};
  KMeansResult r = KMeans(pts, 10, rng);
  EXPECT_EQ(r.num_clusters(), 3);
  std::set<int> labels(r.labels.begin(), r.labels.end());
  EXPECT_EQ(labels.size(), 3u);
}

TEST(RectangleTest, AbuttingEdgeClosedContainment) {
  // The boundary convention (rectangle.h): containment is closed, so a
  // point exactly on the shared edge of two abutting rectangles is inside
  // BOTH — while the measure-theoretic union volume never double-counts
  // the shared face.
  const Rectangle left({0, 0}, {0.5, 1});
  const Rectangle right({0.5, 0}, {1, 1});
  const Point on_edge = {0.5, 0.3};
  EXPECT_TRUE(left.ContainsPoint(on_edge));
  EXPECT_TRUE(right.ContainsPoint(on_edge));
  EXPECT_TRUE(left.OnBoundary(on_edge));
  EXPECT_TRUE(right.OnBoundary(on_edge));
  EXPECT_FALSE(left.OnBoundary({0.3, 0.3}));     // interior
  EXPECT_FALSE(right.OnBoundary({0.49, 0.3}));   // not contained at all
  Filter both({left, right});
  EXPECT_DOUBLE_EQ(both.UnionVolume(), 1.0);     // no double count
  // Corners enumerate exactly; the shared corner belongs to both boxes.
  EXPECT_EQ(left.Corner(0), (Point{0, 0}));
  EXPECT_EQ(left.Corner(1), (Point{0.5, 0}));
  EXPECT_EQ(left.Corner(3), (Point{0.5, 1}));
  EXPECT_TRUE(right.ContainsPoint(left.Corner(3)));
  // Degenerate point box: contains exactly its point, all on boundary.
  const Rectangle pt = Rectangle::FromPoint({0.5, 0.5});
  EXPECT_TRUE(pt.ContainsPoint({0.5, 0.5}));
  EXPECT_TRUE(pt.OnBoundary({0.5, 0.5}));
  EXPECT_FALSE(pt.ContainsPoint({0.5, 0.5000001}));
}

TEST(KMeansTest, SinglePointSingleCluster) {
  Rng rng(23);
  std::vector<Point> pts = {{5, 5}};
  KMeansResult r = KMeans(pts, 1, rng);
  EXPECT_EQ(r.num_clusters(), 1);
  EXPECT_EQ(r.labels[0], 0);
}

TEST(KMeansTest, IdenticalPointsDoNotCrash) {
  Rng rng(24);
  std::vector<Point> pts(20, Point{1.0, 2.0});
  KMeansResult r = KMeans(pts, 4, rng);
  EXPECT_GE(r.num_clusters(), 1);
  for (int l : r.labels) {
    EXPECT_GE(l, 0);
    EXPECT_LT(l, r.num_clusters());
  }
}

TEST(KMeansTest, LabelsInRangeAndClustersNonEmpty) {
  Rng rng(25);
  std::vector<Point> pts;
  for (int i = 0; i < 200; ++i) {
    pts.push_back({rng.Uniform(0, 1), rng.Uniform(0, 1), rng.Uniform(0, 1)});
  }
  KMeansResult r = KMeans(pts, 8, rng);
  ASSERT_GE(r.num_clusters(), 1);
  std::vector<int> count(r.num_clusters(), 0);
  for (int l : r.labels) {
    ASSERT_GE(l, 0);
    ASSERT_LT(l, r.num_clusters());
    ++count[l];
  }
  for (int c : count) EXPECT_GT(c, 0) << "compacted clusters must be non-empty";
}

}  // namespace
}  // namespace slp::geo
