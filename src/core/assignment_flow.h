// The assignment-flow kernel: a bipartite max-flow in which every row
// (subscriber) is one unit of supply, routed whole to one of its covering
// targets, and every target holds at most its cap. SLP1 step 2
// (subscription_assign.h, Section IV-B) and the Balance baseline's
// bisection (balance.h) both run on it.
//
// The network source → target → row → sink stays implicit. The flow is
// held as each row's assigned target (-1 while unrouted) and each
// target's load, which together are the whole residual graph: the source
// → target arc has residual cap − load, a target → row arc is residual
// unless the row sits on that target, a row → target arc (the reverse of
// its cover edge) is residual only toward the row's own target, and a row
// → sink arc only while the row is unrouted. Covers are a CSR over rows;
// the kernel adds the target → rows transpose.
//
// Solve is Dinic, and walks the arcs in exactly the order of a linked-list
// Dinic whose edges were added as: source → target by target id, then per
// row its sink edge followed by its cover edges in cover order (that list
// prepends, so every node scans its arcs newest first). So the source
// tries targets by descending id, and a target its rows by descending
// row. A row scans its covers in reverse and then the sink, but at most
// one of those arcs is ever residual (its own target's, or the sink's
// while unrouted), so the kernel goes straight to it. Every solve
// therefore leaves the same per-row targets as that linked-list Dinic on
// the same state (tests/assignment_flow_test.cc holds it to
// tests/flow_oracle.h).

#ifndef SLP_CORE_ASSIGNMENT_FLOW_H_
#define SLP_CORE_ASSIGNMENT_FLOW_H_

#include <cstdint>
#include <span>
#include <vector>

namespace slp::core {

class AssignmentFlow {
 public:
  AssignmentFlow() = default;  // no rows, no targets

  // Row r's covering targets are
  // cover_targets[cover_offsets[r] .. cover_offsets[r+1]), distinct, each
  // in [0, num_targets). Every cap starts at 0 and every row unrouted.
  AssignmentFlow(int num_targets, std::vector<int64_t> cover_offsets,
                 std::vector<int32_t> cover_targets);

  int num_rows() const { return static_cast<int>(target_of_.size()); }
  int num_targets() const { return static_cast<int>(cap_.size()); }
  std::span<const int32_t> covers(int r) const {
    return {cover_targets_.data() + cover_offsets_[r],
            static_cast<size_t>(cover_offsets_[r + 1] - cover_offsets_[r])};
  }

  // Sets target t's cap. Never below its current load (debug-checked):
  // raising caps and re-solving resumes from the current flow.
  void SetCap(int t, int64_t cap);

  // Zero flow: every row unrouted, every load 0. Caps are kept.
  void Reset();

  // Routes unrouted row r to target t as seeded flow. Whether t covers r
  // and has headroom is the caller's to check; AuditAssignmentFlow
  // reports a seed that breaks either.
  void Assign(int r, int t);

  // Augments to a maximum flow under the current caps, from the current
  // flow, and returns the total flow (the number of routed rows).
  int64_t Solve();

  int64_t flow() const { return flow_; }
  int64_t load(int t) const { return load_[t]; }
  int64_t cap(int t) const { return cap_[t]; }
  int target_of(int r) const { return target_of_[r]; }
  const std::vector<int>& target_of() const { return target_of_; }

 private:
  bool Bfs();
  int64_t DfsTarget(int t, int64_t limit);
  bool DfsRow(int r);

  std::vector<int64_t> cover_offsets_;  // rows + 1
  std::vector<int32_t> cover_targets_;
  std::vector<int64_t> row_offsets_;  // targets + 1: the transpose
  std::vector<int32_t> target_rows_;  // each target's rows, ascending

  std::vector<int> target_of_;  // -1 while unrouted
  std::vector<int64_t> load_;
  std::vector<int64_t> cap_;
  int64_t flow_ = 0;

  // Dinic phase state. Levels are BFS distances from the source (targets
  // odd, rows even); target_iter_[t] counts the row arcs t has used up.
  std::vector<int> target_level_;
  std::vector<int> row_level_;
  int sink_level_ = -1;
  std::vector<int64_t> target_iter_;
  std::vector<int> queue_;
};

// Deep auditor (DESIGN.md §10), Category::kFlow: the routed rows number
// exactly flow(); each routed row sits on one of its covers; each
// target's load equals its row count and is at most its cap. Builds a
// context string only for a failing check. Wired at the end of
// AssignmentFlow::Solve under SLP_AUDITS_ENABLED.
void AuditAssignmentFlow(const AssignmentFlow& flow);

}  // namespace slp::core

#endif  // SLP_CORE_ASSIGNMENT_FLOW_H_
