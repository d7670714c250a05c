#include "src/match/audit.h"

#include <algorithm>
#include <string>

#include "src/common/invariant.h"

namespace slp::match {

namespace {

using audit::Category;

// At most this many reference rectangles contribute probe points (strided
// across the list so early and late ingestions are both sampled).
constexpr int kMaxSampledRects = 64;

std::string Describe(const geo::Point& p) {
  std::string s = "(";
  for (size_t i = 0; i < p.size(); ++i) {
    if (i > 0) s += ", ";
    s += std::to_string(p[i]);
  }
  return s + ")";
}

void CheckProbe(const MatchIndex& index, MatchBatch& batch,
                const std::vector<OwnedRect>& reference, const geo::Point& p,
                const std::string& context) {
  // Linear scan at rectangle granularity (duplicate owners count twice),
  // the reference for the dedup-free answer; its distinct owners are the
  // reference for the deduplicating probe.
  std::vector<int32_t> want_rects;
  for (const OwnedRect& r : reference) {
    if (r.rect.ContainsPoint(p)) want_rects.push_back(r.owner);
  }
  std::sort(want_rects.begin(), want_rects.end());
  std::vector<int32_t> want = want_rects;
  want.erase(std::unique(want.begin(), want.end()), want.end());

  std::vector<int32_t> got = batch.Probe(p);
  std::sort(got.begin(), got.end());
  SLP_AUDIT_CHECK(Category::kMatchIndex, got == want,
                  context + ": probe " + Describe(p) + " index answered " +
                      std::to_string(got.size()) + " owners, linear scan " +
                      std::to_string(want.size()));
  std::vector<int32_t> got_rects;
  index.AppendContaining(p, &got_rects);
  std::sort(got_rects.begin(), got_rects.end());
  SLP_AUDIT_CHECK(Category::kMatchIndex, got_rects == want_rects,
                  context + ": AppendContaining disagrees with linear scan");
}

}  // namespace

void AuditIndex(const MatchIndex& index,
                const std::vector<OwnedRect>& reference,
                const std::string& context,
                const std::vector<geo::Point>& extra_probes) {
  SLP_AUDIT_CHECK(Category::kMatchIndex,
                  index.num_rects() == static_cast<int>(reference.size()),
                  context + ": index holds " +
                      std::to_string(index.num_rects()) +
                      " rects, reference " +
                      std::to_string(reference.size()));
  for (int k = 0; k < index.num_rects(); ++k) {
    SLP_AUDIT_CHECK(Category::kMatchIndex,
                    index.owner(k) == reference[k].owner &&
                        index.rect(k) == reference[k].rect,
                    context + ": rect " + std::to_string(k) +
                        " differs from reference");
  }

  MatchBatch batch(&index);
  const int n = static_cast<int>(reference.size());
  const int stride = std::max(1, n / kMaxSampledRects);
  for (int k = 0; k < n; k += stride) {
    const geo::Rectangle& r = reference[k].rect;
    for (unsigned mask = 0; mask < (1u << r.dim()); ++mask) {
      CheckProbe(index, batch, reference, r.Corner(mask), context);
    }
    const geo::Point c = r.Center();
    CheckProbe(index, batch, reference, c, context);
    // Face centers: the center moved onto one face — interior-of-face
    // probes distinct from the corners (the edge midpoints when d = 2).
    for (int a = 0; a < r.dim(); ++a) {
      geo::Point f = c;
      f[a] = r.lo(a);
      CheckProbe(index, batch, reference, f, context);
      f[a] = r.hi(a);
      CheckProbe(index, batch, reference, f, context);
    }
  }
  for (const geo::Point& p : extra_probes) {
    CheckProbe(index, batch, reference, p, context);
  }
}

}  // namespace slp::match
