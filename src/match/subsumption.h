// Incremental subsumption index: which registered rectangles CONTAIN a
// query rectangle (the reverse of event matching, which asks which
// rectangles contain a point).
//
// The offline aggregation layer (src/agg, DESIGN.md §14) asks it against a
// growing set of representative subscriptions: "is this subscription
// covered by an already-registered one?". A rectangle containing the query
// must contain the query's lo corner, so the candidate coverers are exactly
// a corner-stabbing probe of the grid index
// (MatchIndex::AppendContainingRect) narrowed by an exact containment test.
//
// Incrementality is amortized: inserts land in a linear tail that is folded
// into a rebuilt grid once it outgrows a fraction of the indexed part.
// Rebuild points depend only on the call sequence, so probe answers are
// deterministic. Every entry and query has the same dimension; the grid
// indexes any d (MatchIndex checks axes 2 and up exactly).

#ifndef SLP_MATCH_SUBSUMPTION_H_
#define SLP_MATCH_SUBSUMPTION_H_

#include <cstdint>
#include <vector>

#include "src/geometry/rectangle.h"
#include "src/match/match_index.h"

namespace slp::match {

class SubsumptionIndex {
 public:
  SubsumptionIndex() = default;

  // Registers `rect` under a caller-chosen non-negative id, unique among
  // the entries.
  void Insert(int32_t owner, const geo::Rectangle& rect);

  // Appends the ids of every entry whose rectangle contains `q` (closed
  // containment, q ⊆ entry), in ascending id order.
  void AppendCoverers(const geo::Rectangle& q, std::vector<int32_t>* out) const;

  // Entries the grid currently indexes; test surface for the
  // rebuild-amortization contract.
  int indexed() const { return built_; }

 private:
  struct Entry {
    int32_t owner = -1;
    geo::Rectangle rect;
  };

  void MaybeRebuild();

  std::vector<Entry> entries_;  // [0, built_) indexed by grid_, rest linear
  MatchIndex grid_;             // owner tag = index into entries_
  int built_ = 0;
  mutable std::vector<int32_t> scratch_;
};

}  // namespace slp::match

#endif  // SLP_MATCH_SUBSUMPTION_H_
