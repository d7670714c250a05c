#include "src/geometry/filter.h"

#include "src/geometry/union_volume.h"

namespace slp::geo {

bool Filter::CoversRect(const Rectangle& r) const {
  for (const Rectangle& f : rects_) {
    if (f.Contains(r)) return true;
  }
  return false;
}

bool Filter::ContainsPoint(const Point& p) const {
  for (const Rectangle& f : rects_) {
    if (f.ContainsPoint(p)) return true;
  }
  return false;
}

bool Filter::CoversFilter(const Filter& other) const {
  for (const Rectangle& r : other.rects_) {
    if (!CoversRect(r)) return false;
  }
  return true;
}

double Filter::SumVolume() const {
  double v = 0;
  for (const Rectangle& r : rects_) v += r.Volume();
  return v;
}

double Filter::UnionVolume() const { return geo::UnionVolume(rects_); }

Filter Filter::Expanded(double eps) const {
  std::vector<Rectangle> out;
  out.reserve(rects_.size());
  for (const Rectangle& r : rects_) out.push_back(r.Expanded(eps));
  return Filter(std::move(out));
}

std::optional<Rectangle> Filter::Meb() const {
  if (rects_.empty()) return std::nullopt;
  return Rectangle::Meb(rects_);
}

}  // namespace slp::geo
