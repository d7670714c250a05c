// Incremental subsumption index: which registered rectangles CONTAIN a
// query rectangle (the reverse of event matching, which asks which
// rectangles contain a point).
//
// The aggregation layer (src/agg, DESIGN.md §14) and the DynamicAssigner
// fast-admission path both ask the same question against a slowly growing
// set of representative subscriptions: "is this new subscription covered by
// an already-registered one?". A rectangle containing the query must
// contain the query's lo corner, so the candidate coverers are exactly a
// corner-stabbing probe of the grid index (MatchIndex::AppendContainingRect)
// narrowed by an exact containment test.
//
// Incrementality is amortized: inserts land in a linear tail that is folded
// into a rebuilt grid once it outgrows a fraction of the indexed part, and
// retired entries are skipped at probe time and compacted away on the next
// rebuild. Rebuild points depend only on the call sequence, so probe
// answers are deterministic. Every entry and query has the same dimension;
// the grid indexes any d (MatchIndex checks axes 2 and up exactly).

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

  // Registers `rect` under a caller-chosen non-negative id. Ids must be
  // unique among alive entries (re-using a retired id is allowed).
  void Insert(int32_t owner, const geo::Rectangle& rect);

  // Retires the alive entry with this id (no-op for unknown ids). The slot
  // is skipped by probes immediately and reclaimed on the next rebuild.
  void Retire(int32_t owner);

  // Alive entries.
  int size() const { return alive_count_; }

  // Appends the ids of every alive entry whose rectangle contains `q`
  // (closed containment, q ⊆ entry), in ascending id order.
  void AppendCoverers(const geo::Rectangle& q, std::vector<int32_t>* out) const;

  // Entries (alive or not) the grid currently indexes; test surface for the
  // rebuild-amortization contract.
  int indexed() const { return built_; }

 private:
  struct Entry {
    int32_t owner = -1;  // -1 = retired
    geo::Rectangle rect;
  };

  void MaybeRebuild();

  std::vector<Entry> entries_;  // [0, built_) indexed by grid_, rest linear
  MatchIndex grid_;             // owner tag = index into entries_
  int built_ = 0;
  int alive_count_ = 0;
  int retired_indexed_ = 0;  // retired entries still inside the grid
  mutable std::vector<int32_t> scratch_;
};

}  // namespace slp::match

#endif  // SLP_MATCH_SUBSUMPTION_H_
