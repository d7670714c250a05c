#include "src/match/subsumption.h"

#include <algorithm>

#include "src/common/invariant.h"

namespace slp::match {

namespace {

// The linear tail may grow to this fraction of the grid-indexed part (plus
// a flat floor) before the grid is rebuilt over everything. Geometric
// growth keeps total rebuild work O(n log n) over n inserts.
constexpr int kTailFloor = 64;

bool TailTooLong(int tail, int built) { return tail > kTailFloor + built / 4; }

}  // namespace

void SubsumptionIndex::Insert(int32_t owner, const geo::Rectangle& rect) {
  SLP_DCHECK(owner >= 0);
  entries_.push_back(Entry{owner, rect});
  MaybeRebuild();
}

void SubsumptionIndex::MaybeRebuild() {
  const int tail = static_cast<int>(entries_.size()) - built_;
  if (!TailTooLong(tail, built_)) return;
  // Rebuild the grid over every entry, in insertion order, so probe answers
  // stay deterministic.
  built_ = static_cast<int>(entries_.size());
  MatchIndex::Builder builder(built_);
  for (int k = 0; k < built_; ++k) builder.Add(k, entries_[k].rect);
  grid_ = std::move(builder).Build();
}

void SubsumptionIndex::AppendCoverers(const geo::Rectangle& q,
                                      std::vector<int32_t>* out) const {
  const size_t base = out->size();
  if (built_ > 0) {
    scratch_.clear();
    grid_.AppendContainingRect(q, &scratch_);
    for (int32_t k : scratch_) out->push_back(entries_[k].owner);
  }
  for (size_t k = built_; k < entries_.size(); ++k) {
    const Entry& e = entries_[k];
    if (e.rect.Contains(q)) out->push_back(e.owner);
  }
  std::sort(out->begin() + base, out->end());
}

}  // namespace slp::match
