// Sparse linear-program model.
//
// The paper solves its filter-assignment relaxation with CPLEX 10; this
// repository provides the solver substrate from scratch. LpProblem is the
// model container (variables with bounds, linear constraints, minimization
// objective); src/lp/simplex.h solves it.

#ifndef SLP_LP_LP_PROBLEM_H_
#define SLP_LP_LP_PROBLEM_H_

#include <limits>
#include <vector>

namespace slp::lp {

inline constexpr double kInfinity = std::numeric_limits<double>::infinity();

enum class Sense {
  kLessEqual,
  kGreaterEqual,
  kEqual,
};

// A minimization LP:
//   min  c^T x
//   s.t. A x {<=,>=,=} b,   lo <= x <= hi.
//
// Build with AddVariable / AddConstraint / AddEntry (entries may arrive in
// any order; duplicates for the same (row, col) are summed). The model is
// append-only.
class LpProblem {
 public:
  // Adds a variable with objective coefficient `obj` and bounds [lo, hi]
  // (hi may be kInfinity). Returns its column index.
  int AddVariable(double obj, double lo, double hi);

  // Adds a constraint with the given sense and right-hand side. Returns its
  // row index.
  int AddConstraint(Sense sense, double rhs);

  // Adds coefficient `coef` for variable `col` in constraint `row`.
  void AddEntry(int row, int col, double coef);

  int num_vars() const { return static_cast<int>(obj_.size()); }
  int num_constraints() const { return static_cast<int>(rhs_.size()); }
  int num_entries() const { return static_cast<int>(entry_row_.size()); }

  // In-place edits that preserve the problem's shape (no rows/columns
  // added or removed), so a Basis from a previous solve stays compatible
  // and re-solves can warm-start. Used by the FilterAssign β-escalation
  // ladder to retune its (C3) load rows without rebuilding the model.
  void SetRhs(int row, double rhs) { rhs_[row] = rhs; }
  void SetObj(int col, double obj) { obj_[col] = obj; }

  double obj(int col) const { return obj_[col]; }
  double lo(int col) const { return lo_[col]; }
  double hi(int col) const { return hi_[col]; }
  Sense sense(int row) const { return sense_[row]; }
  double rhs(int row) const { return rhs_[row]; }

  // Column-compressed view of A built on demand: for column j, the entries
  // are rows[col_start[j] .. col_start[j+1]) with matching coefficients.
  // Duplicate (row, col) entries are merged by summation.
  struct Columns {
    std::vector<int> col_start;  // size num_vars()+1
    std::vector<int> row;
    std::vector<double> coef;
  };
  Columns BuildColumns() const;

  // Evaluates the left-hand side of every constraint at x.
  std::vector<double> EvaluateRows(const std::vector<double>& x) const;

 private:
  std::vector<double> obj_;
  std::vector<double> lo_;
  std::vector<double> hi_;
  std::vector<Sense> sense_;
  std::vector<double> rhs_;
  // Triplets, in insertion order.
  std::vector<int> entry_row_;
  std::vector<int> entry_col_;
  std::vector<double> entry_coef_;
};

}  // namespace slp::lp

#endif  // SLP_LP_LP_PROBLEM_H_
