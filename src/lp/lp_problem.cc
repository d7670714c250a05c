#include "src/lp/lp_problem.h"

#include <algorithm>
#include <utility>

#include "src/common/invariant.h"
#include "src/common/status.h"

namespace slp::lp {

int LpProblem::AddVariable(double obj, double lo, double hi) {
  SLP_DCHECK(lo <= hi);
  SLP_DCHECK(lo > -kInfinity);  // this library only needs finite lower bounds
  obj_.push_back(obj);
  lo_.push_back(lo);
  hi_.push_back(hi);
  return num_vars() - 1;
}

int LpProblem::AddConstraint(Sense sense, double rhs) {
  sense_.push_back(sense);
  rhs_.push_back(rhs);
  return num_constraints() - 1;
}

void LpProblem::AddEntry(int row, int col, double coef) {
  SLP_DCHECK(row >= 0 && row < num_constraints());
  SLP_DCHECK(col >= 0 && col < num_vars());
  entry_row_.push_back(row);
  entry_col_.push_back(col);
  entry_coef_.push_back(coef);
}

LpProblem::Columns LpProblem::BuildColumns() const {
  const int n = num_vars();
  const int nnz = num_entries();
  Columns out;
  out.col_start.assign(n + 1, 0);
  for (int e = 0; e < nnz; ++e) ++out.col_start[entry_col_[e] + 1];
  for (int j = 0; j < n; ++j) out.col_start[j + 1] += out.col_start[j];
  out.row.resize(nnz);
  out.coef.resize(nnz);
  std::vector<int> cursor(out.col_start.begin(), out.col_start.end() - 1);
  for (int e = 0; e < nnz; ++e) {
    const int pos = cursor[entry_col_[e]]++;
    out.row[pos] = entry_row_[e];
    out.coef[pos] = entry_coef_[e];
  }
  // Merge duplicates within each column (sort by row, then sum runs).
  std::vector<int> new_start(n + 1, 0);
  int write = 0;
  for (int j = 0; j < n; ++j) {
    const int begin = out.col_start[j];
    const int end = out.col_start[j + 1];
    std::vector<std::pair<int, double>> entries;
    entries.reserve(end - begin);
    for (int p = begin; p < end; ++p) entries.emplace_back(out.row[p], out.coef[p]);
    std::sort(entries.begin(), entries.end());
    new_start[j] = write;
    for (size_t p = 0; p < entries.size();) {
      size_t q = p;
      double sum = 0;
      while (q < entries.size() && entries[q].first == entries[p].first) {
        sum += entries[q].second;
        ++q;
      }
      if (sum != 0) {
        out.row[write] = entries[p].first;
        out.coef[write] = sum;
        ++write;
      }
      p = q;
    }
  }
  new_start[n] = write;
  out.row.resize(write);
  out.coef.resize(write);
  out.col_start = std::move(new_start);
  return out;
}

std::vector<double> LpProblem::EvaluateRows(const std::vector<double>& x) const {
  SLP_DCHECK(static_cast<int>(x.size()) == num_vars());
  std::vector<double> lhs(num_constraints(), 0.0);
  for (int e = 0; e < num_entries(); ++e) {
    lhs[entry_row_[e]] += entry_coef_[e] * x[entry_col_[e]];
  }
  return lhs;
}

}  // namespace slp::lp
