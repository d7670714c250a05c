#include "src/geometry/rectangle.h"

#include <algorithm>
#include <sstream>

#include "src/common/invariant.h"

namespace slp::geo {

Rectangle::Rectangle(std::vector<double> lo, std::vector<double> hi)
    : lo_(std::move(lo)), hi_(std::move(hi)) {
  SLP_DCHECK(lo_.size() == hi_.size());
  for (size_t i = 0; i < lo_.size(); ++i) SLP_DCHECK(lo_[i] <= hi_[i]);
}

Rectangle Rectangle::FromPoint(const Point& p) { return Rectangle(p, p); }

Rectangle Rectangle::FromCenter(const Point& center,
                                const std::vector<double>& widths) {
  SLP_DCHECK(center.size() == widths.size());
  std::vector<double> lo(center.size()), hi(center.size());
  for (size_t i = 0; i < center.size(); ++i) {
    SLP_DCHECK(widths[i] >= 0);
    lo[i] = center[i] - widths[i] / 2;
    hi[i] = center[i] + widths[i] / 2;
  }
  return Rectangle(std::move(lo), std::move(hi));
}

Rectangle Rectangle::Meb(const std::vector<Rectangle>& rects) {
  SLP_DCHECK(!rects.empty());
  Rectangle out = rects[0];
  for (size_t i = 1; i < rects.size(); ++i) out.Enclose(rects[i]);
  return out;
}

Point Rectangle::Center() const {
  Point c(lo_.size());
  for (size_t i = 0; i < lo_.size(); ++i) c[i] = (lo_[i] + hi_[i]) / 2;
  return c;
}

double Rectangle::Volume() const {
  double v = 1;
  for (size_t i = 0; i < lo_.size(); ++i) v *= hi_[i] - lo_[i];
  return v;
}

bool Rectangle::ContainsPoint(const Point& p) const {
  SLP_DCHECK(static_cast<int>(p.size()) == dim());
  // The positive test: a NaN coordinate fails it, so a non-finite event
  // lies outside every rectangle.
  for (size_t i = 0; i < lo_.size(); ++i) {
    if (!(p[i] >= lo_[i] && p[i] <= hi_[i])) return false;
  }
  return true;
}

bool Rectangle::OnBoundary(const Point& p) const {
  if (!ContainsPoint(p)) return false;
  for (size_t i = 0; i < lo_.size(); ++i) {
    if (p[i] == lo_[i] || p[i] == hi_[i]) return true;
  }
  return false;
}

Point Rectangle::Corner(unsigned mask) const {
  SLP_DCHECK(mask < (1u << lo_.size()));
  Point p(lo_.size());
  for (size_t i = 0; i < lo_.size(); ++i) {
    p[i] = (mask >> i) & 1u ? hi_[i] : lo_[i];
  }
  return p;
}

bool Rectangle::Contains(const Rectangle& r) const {
  SLP_DCHECK(r.dim() == dim());
  for (size_t i = 0; i < lo_.size(); ++i) {
    if (r.lo_[i] < lo_[i] || r.hi_[i] > hi_[i]) return false;
  }
  return true;
}

bool Rectangle::Intersects(const Rectangle& r) const {
  SLP_DCHECK(r.dim() == dim());
  for (size_t i = 0; i < lo_.size(); ++i) {
    if (r.hi_[i] < lo_[i] || r.lo_[i] > hi_[i]) return false;
  }
  return true;
}

std::optional<Rectangle> Rectangle::Intersection(const Rectangle& r) const {
  if (!Intersects(r)) return std::nullopt;
  std::vector<double> lo(lo_.size()), hi(hi_.size());
  for (size_t i = 0; i < lo_.size(); ++i) {
    lo[i] = std::max(lo_[i], r.lo_[i]);
    hi[i] = std::min(hi_[i], r.hi_[i]);
  }
  return Rectangle(std::move(lo), std::move(hi));
}

Rectangle Rectangle::EnclosureWith(const Rectangle& r) const {
  Rectangle out = *this;
  out.Enclose(r);
  return out;
}

Rectangle& Rectangle::Enclose(const Rectangle& r) {
  SLP_DCHECK(r.dim() == dim());
  for (size_t i = 0; i < lo_.size(); ++i) {
    lo_[i] = std::min(lo_[i], r.lo_[i]);
    hi_[i] = std::max(hi_[i], r.hi_[i]);
  }
  return *this;
}

double Rectangle::EnclosureVolume(const Rectangle& r) const {
  SLP_DCHECK(r.dim() == dim());
  double v = 1;
  for (size_t i = 0; i < lo_.size(); ++i) {
    v *= std::max(hi_[i], r.hi_[i]) - std::min(lo_[i], r.lo_[i]);
  }
  return v;
}

double Rectangle::EnlargementTo(const Rectangle& r) const {
  return EnclosureVolume(r) - Volume();
}

Rectangle Rectangle::Expanded(double eps) const {
  SLP_DCHECK(eps >= 0);
  std::vector<double> lo(lo_.size()), hi(hi_.size());
  for (size_t i = 0; i < lo_.size(); ++i) {
    const double pad = eps * (hi_[i] - lo_[i]) / 2;
    lo[i] = lo_[i] - pad;
    hi[i] = hi_[i] + pad;
  }
  return Rectangle(std::move(lo), std::move(hi));
}

std::string Rectangle::ToString() const {
  std::ostringstream os;
  for (size_t i = 0; i < lo_.size(); ++i) {
    if (i) os << " x ";
    os << "[" << lo_[i] << "," << hi_[i] << "]";
  }
  return os.str();
}

}  // namespace slp::geo
