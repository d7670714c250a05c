// Sparse LU factorization of a simplex basis with product-form eta updates.
//
// BasisFactorization maintains B = L·U (left-looking elimination with
// partial pivoting over sparse columns) plus an eta file of rank-one pivot
// updates appended between refactorizations. FTRAN / BTRAN solve against
// L, U and the eta file with sparsity-exploiting kernels:
//
//   FTRAN  w = B^-1 a :  L-solve (scatter, skips zero positions), U-solve
//                        (gather over U's rows), then etas oldest→newest;
//   BTRAN  y = B^-T c :  eta-transposes newest→oldest, U^T-solve (scatter,
//                        skips zero positions), L^T-solve (gather).
//
// Right-hand sides travel in a ScatterVec — a dense value array plus an
// explicit nonzero index list — and flip to a plain dense scan once fill
// exceeds a density threshold, so sparse problems pay O(nnz) per solve and
// dense ones never pay index-tracking overhead on top of the O(m) scan.
//
// Cost model: a refactorization is O(m²) pivot-candidate checks plus
// O(fill) arithmetic (the bases SLP produces are a few nonzeros per column,
// so fill is tiny); each solve is O(m + nnz(L)+nnz(U)+nnz(etas)). An
// explicit dense basis inverse would pay O(m²) *arithmetic* per pivot.

#ifndef SLP_LP_LU_FACTOR_H_
#define SLP_LP_LU_FACTOR_H_

#include <cstdint>
#include <vector>

namespace slp::lp {

// Dense-storage work vector with an explicit nonzero pattern. `dense`
// signals that the pattern is not tracked and consumers must scan all of
// `val` (the dense fallback).
class ScatterVec {
 public:
  void Resize(int n) {
    n_ = n;
    val.assign(n, 0.0);
    mark_.assign(n, 0);
    idx.clear();
    dense = false;
  }

  // Zeroes the touched entries (O(nnz), or O(n) in dense mode).
  void Clear() {
    if (dense) {
      std::fill(val.begin(), val.end(), 0.0);
      std::fill(mark_.begin(), mark_.end(), 0);
    } else {
      for (int i : idx) {
        val[i] = 0.0;
        mark_[i] = 0;
      }
    }
    idx.clear();
    dense = false;
  }

  void Add(int i, double v) {
    val[i] += v;
    Track(i);
  }

  void Set(int i, double v) {
    val[i] = v;
    Track(i);
  }

  void Track(int i) {
    if (!dense && !mark_[i]) {
      mark_[i] = 1;
      idx.push_back(i);
    }
  }

  // Rescans `val`, rebuilding the index list; switches to dense mode when
  // more than `density_threshold * n` entries are nonzero.
  void RebuildIndex(double density_threshold);

  int size() const { return n_; }

  std::vector<double> val;
  std::vector<int> idx;  // valid only when !dense (may contain exact zeros)
  bool dense = false;

 private:
  int n_ = 0;
  std::vector<uint8_t> mark_;
};

class BasisFactorization {
 public:
  // A basis position whose column was (numerically) dependent and was
  // replaced by the unit column of `row` during factorization.
  struct Repair {
    int position;
    int row;
  };

  // Factorizes the m×m basis whose position-p column is column
  // `basis_cols[p]` of the CSC matrix (col_start, row, coef). Positions
  // with no acceptable pivot are replaced internally by unit columns of the
  // leftover rows and reported; the returned factorization is then of that
  // *repaired* basis, and the caller must re-point its bookkeeping (e.g. at
  // the row's slack/artificial column) to match. Resets the eta file.
  std::vector<Repair> Factorize(const std::vector<int>& col_start,
                                const std::vector<int>& row,
                                const std::vector<double>& coef,
                                const std::vector<int>& basis_cols, int m,
                                double pivot_eps);

  // v := B^-1 v. Input indexed by constraint row, output by basis position.
  void Ftran(ScatterVec* v, double density_threshold) const;

  // v := B^-T v. Input indexed by basis position, output by constraint row.
  void Btran(ScatterVec* v, double density_threshold) const;

  // Appends the product-form eta for a pivot that replaced the column at
  // basis position p, where w = B^-1 a_entering (FTRAN output, position
  // space). w[p] must be the (nonzero) pivot element.
  void AppendEta(const ScatterVec& w, int p);

  int eta_count() const { return static_cast<int>(eta_pivot_pos_.size()); }
  int64_t eta_nnz() const { return static_cast<int64_t>(eta_pos_.size()); }
  int64_t lu_nnz() const {
    return static_cast<int64_t>(l_val_.size() + u_val_.size()) + m_;
  }

 private:
  int m_ = 0;

  // L (unit lower) by columns and U by rows, both in elimination-step
  // space: l column k holds steps > k, u row k holds steps > k, and the U
  // diagonal is separate.
  std::vector<int> l_start_, l_idx_;
  std::vector<double> l_val_;
  std::vector<int> u_start_, u_idx_;
  std::vector<double> u_val_;
  std::vector<double> u_diag_;

  // Permutations: elimination step <-> constraint row / basis position.
  std::vector<int> row_of_step_, step_of_row_;
  std::vector<int> pos_of_step_, step_of_pos_;

  // Eta file (basis-position space), flat storage.
  std::vector<int> eta_start_{0};
  std::vector<int> eta_pos_;
  std::vector<double> eta_val_;
  std::vector<int> eta_pivot_pos_;
  std::vector<double> eta_pivot_val_;

  mutable ScatterVec work_;  // permuted-space scratch for the solves
};

}  // namespace slp::lp

#endif  // SLP_LP_LU_FACTOR_H_
