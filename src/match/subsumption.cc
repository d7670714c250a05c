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
  ++alive_count_;
  MaybeRebuild();
}

void SubsumptionIndex::Retire(int32_t owner) {
  // Ids are sparse and retirement is rare relative to probes; a backward
  // linear scan finds recent entries (the common retirement) fast and keeps
  // the structure free of auxiliary maps.
  for (auto it = entries_.rbegin(); it != entries_.rend(); ++it) {
    if (it->owner == owner) {
      it->owner = -1;
      --alive_count_;
      const int idx = static_cast<int>(entries_.rend() - it) - 1;
      if (idx < built_) ++retired_indexed_;
      return;
    }
  }
}

void SubsumptionIndex::MaybeRebuild() {
  const int tail = static_cast<int>(entries_.size()) - built_;
  const bool dead_heavy = retired_indexed_ > kTailFloor + built_ / 2;
  if (!TailTooLong(tail, built_) && !dead_heavy) return;

  // Compact retirements away, then rebuild the grid over every remaining
  // entry. Order is preserved, so probe answers stay deterministic.
  std::vector<Entry> kept;
  kept.reserve(alive_count_);
  for (const Entry& e : entries_) {
    if (e.owner >= 0) kept.push_back(e);
  }
  entries_ = std::move(kept);
  retired_indexed_ = 0;

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
    for (int32_t k : scratch_) {
      const Entry& e = entries_[k];
      if (e.owner >= 0) out->push_back(e.owner);
    }
  }
  for (size_t k = built_; k < entries_.size(); ++k) {
    const Entry& e = entries_[k];
    if (e.owner >= 0 && e.rect.Contains(q)) {
      out->push_back(e.owner);
    }
  }
  std::sort(out->begin() + base, out->end());
}

}  // namespace slp::match
