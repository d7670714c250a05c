#include "src/core/candidates.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <utility>

#include "src/common/invariant.h"
#include "src/common/parallel.h"

namespace slp::core {

namespace {

// One contiguous row range's worth of CSR data. Shards build these
// independently; concatenating them in shard order reproduces the serial
// build exactly (rows are independent and stay in row order).
struct CsrShard {
  std::vector<int64_t> row_end;  // cumulative nnz within this shard
  std::vector<int32_t> targets;
};

// Sorts a row's (latency, target) pairs by latency ascending (ties broken
// by target id, so the order is fully deterministic) and appends the
// target ids to the shard.
//
// This is deliberately a full sort, not a partial_sort to some prefix —
// see the row-order contract on Targets::cand_targets.
void AppendSortedRow(std::vector<std::pair<double, int32_t>>* row,
                     CsrShard* out) {
  std::sort(row->begin(), row->end());
  // Bulk-extend then write through a raw pointer: one capacity check per
  // row instead of one per element (measurable at millions of elements).
  const size_t base = out->targets.size();
  out->targets.resize(base + row->size());
  int32_t* tp = out->targets.data() + base;
  for (const auto& entry : *row) *tp++ = entry.second;
  out->row_end.push_back(static_cast<int64_t>(out->targets.size()));
}

// Builds rows [row_begin, row_end) into `out`. `fill_row(r, &row)` appends
// (latency, target) pairs for local row r into the reusable scratch.
template <typename FillRow>
void BuildShard(int row_begin, int row_end, const FillRow& fill_row,
                CsrShard* out) {
  const int rows = row_end - row_begin;
  out->row_end.reserve(rows);
  out->targets.reserve(rows);  // >= 1 candidate per row
  std::vector<std::pair<double, int32_t>> row;
  // After a probe prefix, re-reserve from the observed mean row width (3%
  // slack). vector growth copies the whole array each doubling — at 1M
  // rows that is the build's dominant cost — while a mild overshoot is a
  // few percent of capacity; an undershoot just resumes normal growth.
  constexpr int kProbeRows = 64;
  const int probe = std::min(rows, kProbeRows);
  for (int r = row_begin; r < row_end; ++r) {
    if (r - row_begin == probe && probe > 0) {
      const size_t estimate =
          out->targets.size() * static_cast<size_t>(rows) / probe;
      out->targets.reserve(estimate + estimate / 32 + kProbeRows);
    }
    row.clear();
    fill_row(r, &row);
    AppendSortedRow(&row, out);
  }
}

// Shared CSR driver: splits `rows` into `num_shards` contiguous ranges,
// builds each on the shared pool, and concatenates in shard order. Shard
// results depend only on their row range, never on scheduling, so any
// shard count yields byte-identical CSR arrays.
template <typename FillRow>
void BuildCsr(int rows, int num_shards, const FillRow& fill_row, Targets* t) {
  const int shards = std::clamp(num_shards, 1, std::max(rows, 1));
  t->cand_offsets.clear();
  t->cand_offsets.reserve(rows + 1);
  t->cand_offsets.push_back(0);
  t->cand_targets.clear();
  if (shards == 1) {
    CsrShard shard;
    BuildShard(0, rows, fill_row, &shard);
    t->cand_targets = std::move(shard.targets);
    for (int64_t e : shard.row_end) t->cand_offsets.push_back(e);
    // The probe reserve can overshoot by a few percent on skewed row
    // widths. That slack is deliberately NOT trimmed: the tail past
    // size() is never written, so the pages are never faulted in — it
    // costs address space, not resident memory — while a shrink_to_fit
    // would copy the whole table to save it.
    return;
  }
  std::vector<CsrShard> pieces(shards);
  ThreadPool::Global().ParallelFor(shards, [&](int s) {
    const int begin = static_cast<int>(static_cast<int64_t>(rows) * s / shards);
    const int end =
        static_cast<int>(static_cast<int64_t>(rows) * (s + 1) / shards);
    BuildShard(begin, end, fill_row, &pieces[s]);
  });
  int64_t total = 0;
  for (const CsrShard& p : pieces) {
    total += static_cast<int64_t>(p.targets.size());
  }
  t->cand_targets.reserve(total);
  for (CsrShard& p : pieces) {
    const int64_t base = static_cast<int64_t>(t->cand_targets.size());
    t->cand_targets.insert(t->cand_targets.end(), p.targets.begin(),
                           p.targets.end());
    for (int64_t e : p.row_end) t->cand_offsets.push_back(base + e);
    // Release each piece as soon as it is copied out: the concatenation's
    // resident peak stays near one copy of the table instead of two.
    std::vector<int32_t>().swap(p.targets);
    std::vector<int64_t>().swap(p.row_end);
  }
}

// Flat per-leaf latency inputs: base[i] + sqrt(Σ_d (loc[i·dim+d] − s_d)²)
// reproduces AssignmentLatency bit-for-bit (same subtraction/accumulation
// order as geo::Distance; base is the root-path latency, or 0.0 for the
// last-hop mode — and 0.0 + x is exact for x >= 0) without chasing one
// heap-allocated geo::Point per leaf per subscriber in the hot fill loop.
struct LeafSoa {
  int dim = 0;
  std::vector<double> base;  // per slot: root-path latency (0 for last-hop)
  std::vector<double> loc;   // per slot: location, row-major stride dim
};

LeafSoa BuildLeafSoa(const SaProblem& problem, const std::vector<int>& nodes) {
  const auto& tree = problem.tree();
  const bool last_hop = problem.config().latency_mode == LatencyMode::kLastHop;
  LeafSoa soa;
  soa.dim =
      static_cast<int>(tree.location(net::BrokerTree::kPublisher).size());
  soa.base.resize(nodes.size());
  soa.loc.resize(nodes.size() * static_cast<size_t>(soa.dim));
  for (size_t i = 0; i < nodes.size(); ++i) {
    soa.base[i] = last_hop ? 0.0 : tree.PathLatencyFromRoot(nodes[i]);
    const geo::Point& p = tree.location(nodes[i]);
    std::copy(p.begin(), p.end(),
              soa.loc.begin() + i * static_cast<size_t>(soa.dim));
  }
  return soa;
}

inline double SoaLatency(const LeafSoa& soa, size_t slot, const double* sub) {
  const double* lp = soa.loc.data() + slot * static_cast<size_t>(soa.dim);
  double s = 0;
  for (int d = 0; d < soa.dim; ++d) {
    const double diff = lp[d] - sub[d];
    s += diff * diff;
  }
  return soa.base[slot] + std::sqrt(s);
}

// The one fill behind both builders. Target t is tree node nodes[t]: its
// kappa is the node's subtree κ sum and its latency to a subscriber the
// optimistic minimum over the node's subtree leaves. A leaf's subtree is
// the leaf itself, so over the leaf brokers these are min(∞, latency) and
// 0.0 + κ_i: the leaf table, bit for bit.
Targets BuildTargets(const SaProblem& problem,
                     const std::vector<int>& sub_indices,
                     const std::vector<int>& nodes, int num_shards) {
  const auto& tree = problem.tree();
  Targets t;
  t.count = static_cast<int>(nodes.size());
  t.total_subscribers = problem.num_subscribers();
  t.subscribers = sub_indices;
  t.kappa.resize(t.count);
  // SoA over every target's subtree leaves, in target order, so target c's
  // leaves are the slots [slot_end[c-1], slot_end[c]).
  std::vector<int> leaves;
  std::vector<size_t> slot_end(t.count);
  for (int c = 0; c < t.count; ++c) {
    t.kappa[c] = problem.subtree_capacity_fraction(nodes[c]);
    const std::span<const int> subtree = tree.subtree_leaves(nodes[c]);
    leaves.insert(leaves.end(), subtree.begin(), subtree.end());
    slot_end[c] = leaves.size();
  }
  const LeafSoa soa = BuildLeafSoa(problem, leaves);

  const int rows = static_cast<int>(sub_indices.size());
  BuildCsr(
      rows, num_shards,
      [&](int r, std::vector<std::pair<double, int32_t>>* row) {
        const int j = sub_indices[r];
        const double bound = problem.latency_bound(j);
        const double* sub = problem.subscriber(j).location.data();
        size_t slot = 0;
        for (int c = 0; c < t.count; ++c) {
          double best = std::numeric_limits<double>::infinity();
          for (; slot < slot_end[c]; ++slot) {
            best = std::min(best, SoaLatency(soa, slot, sub));
          }
          if (best <= bound + 1e-12) {
            row->emplace_back(best, static_cast<int32_t>(c));
          }
        }
      },
      &t);
  return t;
}

}  // namespace

std::vector<int> AllSubscribers(const SaProblem& problem) {
  std::vector<int> all(problem.num_subscribers());
  std::iota(all.begin(), all.end(), 0);
  return all;
}

Targets BuildLeafTargets(const SaProblem& problem,
                         const std::vector<int>& sub_indices, int num_shards) {
  Targets t = BuildTargets(problem, sub_indices,
                           problem.tree().leaf_brokers(), num_shards);
  // No row is empty (equal neighbouring offsets): the Δ-achieving leaf
  // always qualifies.
  SLP_DCHECK(std::adjacent_find(t.cand_offsets.begin(),
                                t.cand_offsets.end()) ==
             t.cand_offsets.end());
  return t;
}

Targets BuildChildTargets(const SaProblem& problem,
                          const std::vector<int>& sub_indices, int node,
                          int num_shards) {
  const auto& children = problem.tree().children(node);
  SLP_DCHECK(!children.empty());
  return BuildTargets(problem, sub_indices, children, num_shards);
}

}  // namespace slp::core
