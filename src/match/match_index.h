// Indexed event matching over the event space R^d (DESIGN.md §11).
//
// The production hot path of a content-based pub/sub system is "which
// broker filters / which subscriptions contain event e". MatchIndex
// ingests every rectangle once into a cache-friendly SoA layout (flat
// lo_x/hi_x/lo_y/hi_y arrays, int32 owner tags, indices not pointers)
// under a uniform stabbing grid over axes 0 and 1: each grid cell lists
// the rectangles overlapping it (CSR storage), so a probe locates the
// event's cell and tests only that cell's candidates. Any d >= 1 is
// accepted: when d = 1, axis 1 is flat (every rectangle and probe sits at
// y = 0); when d > 2, axes 2 and up are stored per rectangle and checked
// exactly on the candidates, in a loop that runs only then.
//
// Containment is CLOSED on every edge, matching geo::Rectangle exactly
// (see the boundary-convention block in rectangle.h): an event on the
// shared edge of two abutting rectangles matches both, and the index must
// agree bit-for-bit with a linear scan — AuditIndex (src/match/audit.h)
// and the differential tests enforce this on corner/edge probes. A
// non-finite coordinate lies outside every rectangle: every test is the
// positive one (lo <= x && x <= hi), which a NaN fails.
//
// Owners: every rectangle carries an owner id in [0, num_owners). A probe
// answers the set of owners with at least one containing rectangle (an
// owner with several matching rectangles is reported once). A broker
// filter of α rectangles is α entries with the same owner; a subscription
// is one entry whose owner is the subscriber.

#ifndef SLP_MATCH_MATCH_INDEX_H_
#define SLP_MATCH_MATCH_INDEX_H_

#include <cstdint>
#include <vector>

#include "src/geometry/point.h"
#include "src/geometry/rectangle.h"
#include "src/match/bitset.h"

namespace slp::match {

// An owner-tagged rectangle, the ingestion unit of the index. Kept by
// callers as the linear-scan reference the auditors compare against.
struct OwnedRect {
  int32_t owner = 0;
  geo::Rectangle rect;
};

class MatchIndex {
 public:
  MatchIndex() = default;

  int num_owners() const { return num_owners_; }
  int num_rects() const { return static_cast<int>(owner_.size()); }
  // Dimension of the indexed rectangles (0 for an empty index).
  int dim() const { return dim_; }

  // Rectangle k as ingested (reconstructed from the SoA arrays).
  geo::Rectangle rect(int k) const;
  int32_t owner(int k) const { return owner_[k]; }

  // Sets the bit of every owner with a rectangle containing p in `owners`
  // (size() must be >= num_owners()) and appends each such owner once to
  // `matched` (callers use it to iterate matches and to clear `owners` in
  // O(matches)). `matched` is appended to, not cleared.
  void Probe(const geo::Point& p, BitSet* owners,
             std::vector<int32_t>* matched) const;

  // Appends the owner of every rectangle containing p to `out`, without
  // deduplication — exact for single-rectangle owners.
  void AppendContaining(const geo::Point& p, std::vector<int32_t>* out) const;
  // The same probe at (x, y), for an index of dimension at most 2.
  void AppendContaining(double x, double y, std::vector<int32_t>* out) const;

 private:
  friend MatchIndex BuildIndex(const std::vector<OwnedRect>& rects,
                               int num_owners);

  // Calls fn(k) for every rectangle k containing the point (x, y, rest),
  // in increasing k. `rest` points at the point's axes 2 and up, or is
  // null when dim() <= 2.
  template <typename Fn>
  void ForEachContaining(double x, double y, const double* rest,
                         Fn&& fn) const;
  template <typename Fn>
  void ForEachContaining(const geo::Point& p, Fn&& fn) const;

  // Axes 2 and up of rectangle k contain `rest` (dim() > 2 only).
  bool ContainsRest(int k, const double* rest) const;

  // Grid cell of a coordinate, clamped to the axis range before the cast
  // (a non-finite value maps to an end cell, never through an undefined
  // conversion). Monotone in x, which is what makes [CellX(lo),
  // CellX(hi)] cover every cell a contained point can land in regardless
  // of floating-point rounding.
  int CellX(double x) const;
  int CellY(double y) const;

  // Candidate list of cell (cx, cy) as a CSR range into cell_rects_.
  inline const int32_t* CellBegin(int cx, int cy, int* count) const {
    const size_t cell = static_cast<size_t>(cy) * gx_ + cx;
    *count = static_cast<int>(cell_start_[cell + 1] - cell_start_[cell]);
    return cell_rects_.data() + cell_start_[cell];
  }

  int num_owners_ = 0;
  int dim_ = 0;

  // SoA rectangle storage, index-aligned. Axis 1 is all zeros when
  // dim_ = 1; lo_rest_/hi_rest_ hold axes 2..dim_-1 of rectangle k at
  // [k * (dim_ - 2), (k + 1) * (dim_ - 2)) and are empty when dim_ <= 2.
  std::vector<double> lo_x_, hi_x_, lo_y_, hi_y_;
  std::vector<double> lo_rest_, hi_rest_;
  std::vector<int32_t> owner_;

  // Uniform stabbing grid over the bounding box of all rectangles.
  int gx_ = 1, gy_ = 1;
  double min_x_ = 0, max_x_ = 0, min_y_ = 0, max_y_ = 0;
  double inv_wx_ = 0, inv_wy_ = 0;  // cells per unit length (0: flat axis)
  std::vector<uint32_t> cell_start_;   // gx*gy + 1 CSR offsets
  std::vector<int32_t> cell_rects_;    // rect ids, ascending within a cell
};

// Convenience: builds an index over `rects` (callers keep `rects` as the
// auditors' linear-scan reference). Every rectangle has the same
// dimension.
MatchIndex BuildIndex(const std::vector<OwnedRect>& rects, int num_owners);

// A reusable probe context: owns the answer bitset and matched-owner list
// so the per-event probe allocates nothing and clears in O(matches).
// One MatchBatch per thread; the index itself is immutable and shared.
class MatchBatch {
 public:
  explicit MatchBatch(const MatchIndex* index)
      : index_(index), owners_(index->num_owners()) {}

  // Probes one event. The returned list (owners of matching rectangles,
  // deduplicated) and owners() stay valid until the next Probe call.
  const std::vector<int32_t>& Probe(const geo::Point& p) {
    for (int32_t id : matched_) owners_.Reset(id);
    matched_.clear();
    index_->Probe(p, &owners_, &matched_);
    return matched_;
  }

  // Bitset view of the last probe's matches.
  const BitSet& owners() const { return owners_; }
  const MatchIndex& index() const { return *index_; }

 private:
  const MatchIndex* index_;
  BitSet owners_;
  std::vector<int32_t> matched_;
};

}  // namespace slp::match

#endif  // SLP_MATCH_MATCH_INDEX_H_
