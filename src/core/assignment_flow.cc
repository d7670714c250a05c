#include "src/core/assignment_flow.h"

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "src/common/invariant.h"

namespace slp::core {

AssignmentFlow::AssignmentFlow(int num_targets,
                               std::vector<int64_t> cover_offsets,
                               std::vector<int32_t> cover_targets)
    : cover_offsets_(std::move(cover_offsets)),
      cover_targets_(std::move(cover_targets)),
      row_offsets_(num_targets + 1, 0),
      target_rows_(cover_targets_.size()),
      target_of_(cover_offsets_.size() - 1, -1),
      load_(num_targets, 0),
      cap_(num_targets, 0),
      target_level_(num_targets),
      row_level_(target_of_.size()),
      target_iter_(num_targets) {
  SLP_DCHECK(!cover_offsets_.empty());
  SLP_DCHECK(cover_offsets_.back() ==
             static_cast<int64_t>(cover_targets_.size()));
  const int rows = num_rows();
#if SLP_AUDITS_ENABLED
  std::vector<int> seen_by(num_targets, -1);
  for (int r = 0; r < rows; ++r) {
    for (int32_t t : covers(r)) {
      SLP_DCHECK(t >= 0 && t < num_targets && seen_by[t] != r);
      seen_by[t] = r;
    }
  }
#endif
  for (int32_t t : cover_targets_) ++row_offsets_[t + 1];
  for (int t = 0; t < num_targets; ++t) row_offsets_[t + 1] += row_offsets_[t];
  std::vector<int64_t> fill(row_offsets_.begin(), row_offsets_.end() - 1);
  for (int r = 0; r < rows; ++r) {
    for (int32_t t : covers(r)) target_rows_[fill[t]++] = r;
  }
  queue_.reserve(num_targets + rows);
}

void AssignmentFlow::SetCap(int t, int64_t cap) {
  SLP_DCHECK(t >= 0 && t < num_targets());
  SLP_DCHECK(cap >= load_[t]);
  cap_[t] = cap;
}

void AssignmentFlow::Reset() {
  std::fill(target_of_.begin(), target_of_.end(), -1);
  std::fill(load_.begin(), load_.end(), 0);
  flow_ = 0;
}

void AssignmentFlow::Assign(int r, int t) {
  SLP_DCHECK(r >= 0 && r < num_rows() && t >= 0 && t < num_targets());
  SLP_DCHECK(target_of_[r] < 0);
  target_of_[r] = t;
  ++load_[t];
  ++flow_;
}

// Levels are distances, so the scan order here cannot change them. The
// search stops at the first unrouted row it takes off the queue: every
// node nearer the source than the sink is labelled by then, and a node
// at or past the sink's level lies on no shortest path, so leaving it
// unlabelled only spares the DFS a dead end.
bool AssignmentFlow::Bfs() {
  const int nt = num_targets();
  std::fill(target_level_.begin(), target_level_.end(), -1);
  std::fill(row_level_.begin(), row_level_.end(), -1);
  sink_level_ = -1;
  queue_.clear();  // targets as t, rows as nt + r
  for (int t = 0; t < nt; ++t) {
    if (cap_[t] > load_[t]) {
      target_level_[t] = 1;
      queue_.push_back(t);
    }
  }
  for (size_t head = 0; head < queue_.size(); ++head) {
    const int u = queue_[head];
    if (u < nt) {
      const int next = target_level_[u] + 1;
      for (int64_t k = row_offsets_[u]; k < row_offsets_[u + 1]; ++k) {
        const int r = target_rows_[k];
        if (target_of_[r] != u && row_level_[r] < 0) {
          row_level_[r] = next;
          queue_.push_back(nt + r);
        }
      }
      continue;
    }
    const int r = u - nt;
    const int t = target_of_[r];
    if (t < 0) {
      sink_level_ = row_level_[r] + 1;
      return true;
    }
    if (target_level_[t] < 0) {
      target_level_[t] = row_level_[r] + 1;
      queue_.push_back(t);
    }
  }
  return false;
}

// Rows by descending row, resuming where this phase left off; returns as
// soon as `limit` units are pushed, leaving the iterator on the arc just
// used, and marks the target dead when it cannot push `limit`.
int64_t AssignmentFlow::DfsTarget(int t, int64_t limit) {
  const int next = target_level_[t] + 1;
  const int32_t* rows_end = target_rows_.data() + row_offsets_[t + 1];
  const int64_t degree = row_offsets_[t + 1] - row_offsets_[t];
  int64_t pushed = 0;
  for (int64_t& k = target_iter_[t]; k < degree; ++k) {
    const int r = rows_end[-1 - k];
    if (target_of_[r] == t || row_level_[r] != next) continue;
    if (DfsRow(r)) {
      target_of_[r] = t;
      if (++pushed == limit) return pushed;
    }
  }
  target_level_[t] = -1;
  return pushed;
}

// A row's one residual arc: to the sink while unrouted, else back to its
// own target, which must then give up one other row.
bool AssignmentFlow::DfsRow(int r) {
  const int next = row_level_[r] + 1;
  const int t = target_of_[r];
  if (t < 0) {
    if (sink_level_ == next) return true;
  } else if (target_level_[t] == next && DfsTarget(t, 1) > 0) {
    return true;
  }
  row_level_[r] = -1;
  return false;
}

int64_t AssignmentFlow::Solve() {
  while (Bfs()) {
    std::fill(target_iter_.begin(), target_iter_.end(), 0);
    for (int t = num_targets() - 1; t >= 0; --t) {
      if (target_level_[t] != 1) continue;
      const int64_t got = DfsTarget(t, cap_[t] - load_[t]);
      load_[t] += got;
      flow_ += got;
    }
  }
#if SLP_AUDITS_ENABLED
  AuditAssignmentFlow(*this);
#endif
  return flow_;
}

void AuditAssignmentFlow(const AssignmentFlow& flow) {
  constexpr auto kCat = audit::Category::kFlow;
  const int nt = flow.num_targets();
  std::vector<int64_t> rows_on(nt, 0);
  int64_t routed = 0;
  for (int r = 0; r < flow.num_rows(); ++r) {
    const int t = flow.target_of(r);
    if (t < 0) continue;
    ++routed;
    const auto covers = flow.covers(r);
    SLP_AUDIT_CHECK(kCat,
                    std::find(covers.begin(), covers.end(), t) != covers.end(),
                    "row " + std::to_string(r) + " routed to target " +
                        std::to_string(t) + ", which does not cover it");
    if (t < nt) ++rows_on[t];
  }
  SLP_AUDIT_CHECK(kCat, routed == flow.flow(),
                  std::to_string(routed) + " routed rows against flow " +
                      std::to_string(flow.flow()));
  for (int t = 0; t < nt; ++t) {
    SLP_AUDIT_CHECK(kCat, flow.load(t) == rows_on[t],
                    "target " + std::to_string(t) + ": load " +
                        std::to_string(flow.load(t)) + " against " +
                        std::to_string(rows_on[t]) + " routed rows");
    SLP_AUDIT_CHECK(kCat, flow.load(t) <= flow.cap(t),
                    "target " + std::to_string(t) + ": load " +
                        std::to_string(flow.load(t)) + " exceeds cap " +
                        std::to_string(flow.cap(t)));
  }
}

}  // namespace slp::core
