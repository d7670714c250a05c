#include "src/lp/lu_factor.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <numeric>

#include "src/common/invariant.h"
#include "src/common/status.h"

namespace slp::lp {

void ScatterVec::RebuildIndex(double density_threshold) {
  idx.clear();
  std::fill(mark_.begin(), mark_.end(), 0);
  dense = false;
  const int cap = static_cast<int>(density_threshold * n_);
  for (int i = 0; i < n_; ++i) {
    if (val[i] == 0.0) continue;
    idx.push_back(i);
    mark_[i] = 1;
    if (static_cast<int>(idx.size()) > cap) {
      // Too full to be worth tracking: flip to dense-scan mode.
      for (int j : idx) mark_[j] = 0;
      idx.clear();
      dense = true;
      return;
    }
  }
}

std::vector<BasisFactorization::Repair> BasisFactorization::Factorize(
    const std::vector<int>& col_start, const std::vector<int>& row,
    const std::vector<double>& coef, const std::vector<int>& basis_cols,
    int m, double pivot_eps) {
  m_ = m;
  l_start_.assign(1, 0);
  l_idx_.clear();
  l_val_.clear();
  u_diag_.clear();
  row_of_step_.assign(m, -1);
  step_of_row_.assign(m, -1);
  pos_of_step_.assign(m, -1);
  step_of_pos_.assign(m, -1);
  eta_start_.assign(1, 0);
  eta_pos_.clear();
  eta_val_.clear();
  eta_pivot_pos_.clear();
  eta_pivot_val_.clear();

  // Cheap fill-reducing heuristic: eliminate thin columns first (slack and
  // near-singleton columns pin their rows before denser structural columns
  // arrive). Stable, hence deterministic.
  std::vector<int> order(m);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    const int na = col_start[basis_cols[a] + 1] - col_start[basis_cols[a]];
    const int nb = col_start[basis_cols[b] + 1] - col_start[basis_cols[b]];
    return na < nb;
  });

  // U built by columns during elimination (step-indexed entries), then
  // transposed to row storage for the solves.
  std::vector<int> ucol_start(1, 0);
  std::vector<int> ucol_idx;
  std::vector<double> ucol_val;

  // L entries are recorded with original row indices and remapped to
  // elimination steps once every row has a step.
  std::vector<double> work(m, 0.0);
  std::vector<int> touched;
  std::vector<uint8_t> in_touched(m, 0);
  std::vector<uint8_t> pivoted(m, 0);
  std::vector<Repair> repairs;
  std::vector<int> deficient_positions;
  int step = 0;

  auto touch = [&](int r) {
    if (!in_touched[r]) {
      in_touched[r] = 1;
      touched.push_back(r);
    }
  };
  auto clear_work = [&]() {
    for (int r : touched) {
      work[r] = 0.0;
      in_touched[r] = 0;
    }
    touched.clear();
  };

  // Min-heap of pending elimination steps for the left-looking update, so a
  // column costs O(reach · log) instead of scanning all earlier steps.
  // Applying L_k only reaches rows pivoted *after* step k, so pops are
  // monotonically increasing — ascending step order, fully deterministic.
  std::vector<int> heap;
  std::vector<uint8_t> in_heap(m, 0);
  const auto step_greater = std::greater<int>();
  auto push_step = [&](int k) {
    if (!in_heap[k]) {
      in_heap[k] = 1;
      heap.push_back(k);
      std::push_heap(heap.begin(), heap.end(), step_greater);
    }
  };

  std::vector<int> u_tmp_idx;
  std::vector<double> u_tmp_val;
  for (int pos : order) {
    const int c = basis_cols[pos];
    for (int p = col_start[c]; p < col_start[c + 1]; ++p) {
      const int r = row[p];
      work[r] += coef[p];
      touch(r);
      if (pivoted[r]) push_step(step_of_row_[r]);
    }
    u_tmp_idx.clear();
    u_tmp_val.clear();
    // Left-looking update: fold in the reachable earlier pivots in step
    // order (equivalent to scanning k = 0..step-1, skipping zero rows).
    while (!heap.empty()) {
      std::pop_heap(heap.begin(), heap.end(), step_greater);
      const int k = heap.back();
      heap.pop_back();
      in_heap[k] = 0;
      const int pr = row_of_step_[k];
      const double ukv = work[pr];
      if (ukv == 0.0) continue;  // exact cancellation
      u_tmp_idx.push_back(k);
      u_tmp_val.push_back(ukv);
      work[pr] = 0.0;  // consumed into U; no later column writes this row
      for (int p = l_start_[k]; p < l_start_[k + 1]; ++p) {
        const int r = l_idx_[p];
        work[r] -= l_val_[p] * ukv;
        touch(r);
        if (pivoted[r]) push_step(step_of_row_[r]);
      }
    }
    // Partial pivoting over the not-yet-pivoted rows.
    int pivot_row = -1;
    double best = pivot_eps;
    for (int r : touched) {
      if (pivoted[r]) continue;
      const double v = std::abs(work[r]);
      if (v > best) {
        best = v;
        pivot_row = r;
      }
    }
    if (pivot_row < 0) {
      // Dependent column: defer; a unit column fills this position below.
      deficient_positions.push_back(pos);
      clear_work();
      continue;
    }
    const double pv = work[pivot_row];
    for (int r : touched) {
      if (pivoted[r] || r == pivot_row || work[r] == 0.0) continue;
      l_idx_.push_back(r);
      l_val_.push_back(work[r] / pv);
    }
    l_start_.push_back(static_cast<int>(l_idx_.size()));
    ucol_idx.insert(ucol_idx.end(), u_tmp_idx.begin(), u_tmp_idx.end());
    ucol_val.insert(ucol_val.end(), u_tmp_val.begin(), u_tmp_val.end());
    ucol_start.push_back(static_cast<int>(ucol_idx.size()));
    u_diag_.push_back(pv);
    pivoted[pivot_row] = 1;
    row_of_step_[step] = pivot_row;
    step_of_row_[pivot_row] = step;
    pos_of_step_[step] = pos;
    step_of_pos_[pos] = step;
    ++step;
    clear_work();
  }

  // Pair each deficient position with a leftover row; its unit column e_r
  // factorizes trivially (no earlier L column touches an unpivoted row that
  // only e_r reaches), so the tail steps are diag-1 with empty L/U parts.
  if (!deficient_positions.empty()) {
    std::vector<int> free_rows;
    for (int r = 0; r < m; ++r) {
      if (!pivoted[r]) free_rows.push_back(r);
    }
    SLP_DCHECK(free_rows.size() == deficient_positions.size());
    for (size_t i = 0; i < deficient_positions.size(); ++i) {
      const int pos = deficient_positions[i];
      const int r = free_rows[i];
      repairs.push_back({pos, r});
      l_start_.push_back(static_cast<int>(l_idx_.size()));
      ucol_start.push_back(static_cast<int>(ucol_idx.size()));
      u_diag_.push_back(1.0);
      pivoted[r] = 1;
      row_of_step_[step] = r;
      step_of_row_[r] = step;
      pos_of_step_[step] = pos;
      step_of_pos_[pos] = step;
      ++step;
    }
  }
  SLP_DCHECK(step == m);

  // Remap L's row indices to elimination steps (all strictly below their
  // column's step, since L rows were unpivoted when recorded).
  for (int& r : l_idx_) r = step_of_row_[r];

  // Transpose U from column storage (entries step < column step) to row
  // storage (row k holds steps > k) by counting sort.
  u_start_.assign(m + 1, 0);
  for (int k : ucol_idx) ++u_start_[k + 1];
  for (int k = 0; k < m; ++k) u_start_[k + 1] += u_start_[k];
  u_idx_.resize(ucol_idx.size());
  u_val_.resize(ucol_val.size());
  std::vector<int> cursor(u_start_.begin(), u_start_.end() - 1);
  for (int j = 0; j < m; ++j) {
    for (int p = ucol_start[j]; p < ucol_start[j + 1]; ++p) {
      const int k = ucol_idx[p];
      const int out = cursor[k]++;
      u_idx_[out] = j;
      u_val_[out] = ucol_val[p];
    }
  }

  work_.Resize(m);
  return repairs;
}

void BasisFactorization::Ftran(ScatterVec* v, double density_threshold) const {
  ScatterVec& t = work_;
  t.Clear();
  // Row space -> elimination-step space.
  if (v->dense) {
    t.dense = true;
    for (int r = 0; r < m_; ++r) t.val[step_of_row_[r]] = v->val[r];
  } else {
    for (int r : v->idx) {
      if (v->val[r] != 0.0) t.Set(step_of_row_[r], v->val[r]);
    }
    if (static_cast<int>(t.idx.size()) > density_threshold * m_) {
      t.RebuildIndex(density_threshold);
    }
  }
  // L-solve (scatter): positions fill strictly forward, so one ascending
  // pass that skips zero entries visits exactly the reachable set.
  if (t.dense) {
    for (int k = 0; k < m_; ++k) {
      const double x = t.val[k];
      if (x == 0.0) continue;
      for (int p = l_start_[k]; p < l_start_[k + 1]; ++p) {
        t.val[l_idx_[p]] -= l_val_[p] * x;
      }
    }
  } else {
    // The index list is unordered; the ascending scan still only *applies*
    // columns at nonzero positions — the O(m) walk is branch-only.
    for (int k = 0; k < m_; ++k) {
      const double x = t.val[k];
      if (x == 0.0) continue;
      for (int p = l_start_[k]; p < l_start_[k + 1]; ++p) {
        t.Add(l_idx_[p], -l_val_[p] * x);
      }
    }
  }
  // U-solve (gather over U's rows, descending). Writes every position, so
  // the scratch is dense from here on (and must be cleared as such).
  for (int k = m_ - 1; k >= 0; --k) {
    double s = t.val[k];
    for (int p = u_start_[k]; p < u_start_[k + 1]; ++p) {
      s -= u_val_[p] * t.val[u_idx_[p]];
    }
    t.val[k] = s / u_diag_[k];
  }
  t.dense = true;
  // Step space -> basis-position space.
  v->Clear();
  v->dense = true;
  for (int k = 0; k < m_; ++k) v->val[pos_of_step_[k]] = t.val[k];
  v->RebuildIndex(density_threshold);
  // Eta file, oldest -> newest.
  for (int e = 0; e < eta_count(); ++e) {
    const int p = eta_pivot_pos_[e];
    const double xp = v->val[p];
    if (xp == 0.0) continue;
    const double step_val = xp / eta_pivot_val_[e];
    for (int q = eta_start_[e]; q < eta_start_[e + 1]; ++q) {
      if (v->dense) {
        v->val[eta_pos_[q]] -= eta_val_[q] * step_val;
      } else {
        v->Add(eta_pos_[q], -eta_val_[q] * step_val);
      }
    }
    v->val[p] = step_val;
  }
}

void BasisFactorization::Btran(ScatterVec* v, double density_threshold) const {
  // Eta transposed-inverses, newest -> oldest (each edits one position).
  for (int e = eta_count() - 1; e >= 0; --e) {
    const int p = eta_pivot_pos_[e];
    double s = v->val[p];
    for (int q = eta_start_[e]; q < eta_start_[e + 1]; ++q) {
      s -= eta_val_[q] * v->val[eta_pos_[q]];
    }
    const double nv = s / eta_pivot_val_[e];
    if (v->dense) {
      v->val[p] = nv;
    } else {
      v->Set(p, nv);
    }
  }
  ScatterVec& t = work_;
  t.Clear();
  // Basis-position space -> elimination-step space.
  if (v->dense) {
    t.dense = true;
    for (int pos = 0; pos < m_; ++pos) t.val[step_of_pos_[pos]] = v->val[pos];
  } else {
    for (int pos : v->idx) {
      if (v->val[pos] != 0.0) t.Set(step_of_pos_[pos], v->val[pos]);
    }
    if (static_cast<int>(t.idx.size()) > density_threshold * m_) {
      t.RebuildIndex(density_threshold);
    }
  }
  // U^T-solve (scatter via U's rows, ascending, skips zero positions).
  if (t.dense) {
    for (int k = 0; k < m_; ++k) {
      const double z = t.val[k] / u_diag_[k];
      t.val[k] = z;
      if (z == 0.0) continue;
      for (int p = u_start_[k]; p < u_start_[k + 1]; ++p) {
        t.val[u_idx_[p]] -= u_val_[p] * z;
      }
    }
  } else {
    for (int k = 0; k < m_; ++k) {
      if (t.val[k] == 0.0) continue;
      const double z = t.val[k] / u_diag_[k];
      t.val[k] = z;
      for (int p = u_start_[k]; p < u_start_[k + 1]; ++p) {
        t.Add(u_idx_[p], -u_val_[p] * z);
      }
    }
  }
  // L^T-solve (gather over L's columns, descending). Writes every position,
  // so the scratch is dense from here on (and must be cleared as such).
  for (int k = m_ - 1; k >= 0; --k) {
    double s = t.val[k];
    for (int p = l_start_[k]; p < l_start_[k + 1]; ++p) {
      s -= l_val_[p] * t.val[l_idx_[p]];
    }
    t.val[k] = s;
  }
  t.dense = true;
  // Step space -> constraint-row space.
  v->Clear();
  v->dense = true;
  for (int k = 0; k < m_; ++k) v->val[row_of_step_[k]] = t.val[k];
  v->RebuildIndex(density_threshold);
}

void BasisFactorization::AppendEta(const ScatterVec& w, int p) {
  SLP_DCHECK(w.val[p] != 0.0);
  if (w.dense) {
    for (int i = 0; i < m_; ++i) {
      if (i == p || w.val[i] == 0.0) continue;
      eta_pos_.push_back(i);
      eta_val_.push_back(w.val[i]);
    }
  } else {
    for (int i : w.idx) {
      if (i == p || w.val[i] == 0.0) continue;
      eta_pos_.push_back(i);
      eta_val_.push_back(w.val[i]);
    }
  }
  eta_start_.push_back(static_cast<int>(eta_pos_.size()));
  eta_pivot_pos_.push_back(p);
  eta_pivot_val_.push_back(w.val[p]);
}

}  // namespace slp::lp
