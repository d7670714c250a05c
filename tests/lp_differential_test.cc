// Randomized LP differential-testing harness — the correctness gate for
// the simplex engine (SimplexSolver) and the LU repair path.
//
// Every family solves seeded instances cold and certifies each verdict
// from the problem data alone (tests/lp_oracle.h): a KKT certificate for
// an optimum, the elastic LP's positive least violation for
// infeasibility, and a feasible point plus an improving recession
// direction for unboundedness. The certificate, not a second engine, is
// the oracle. Some test names still say "agree" or "fall back" from when
// warm and dual re-solves were compared against the cold solve; they are
// kept so the test ids stay stable.
//
// Families: general boxed LPs, degenerate assignment polytopes, infeasible
// and unbounded instances, rank-deficient rows/columns, rhs "rung"
// perturbations in both directions, chained rungs, objective edits, a rung
// into infeasibility, LU unit-column repair fuzzing, escalation ladders
// replayed from the exact LPs FilterAssign builds on the three paper
// workload generators, and the static (C3) rule against the certified
// optimum of the same LPs.

#include <algorithm>
#include <cmath>
#include <iterator>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/random.h"
#include "src/common/status.h"
#include "src/core/candidates.h"
#include "src/core/filter_gen.h"
#include "src/core/lp_relax.h"
#include "src/core/problem.h"
#include "src/lp/lp_problem.h"
#include "src/lp/lu_factor.h"
#include "src/lp/simplex.h"
#include "src/network/tree_builder.h"
#include "src/workload/rss.h"
#include "src/workload/workload.h"
#include "tests/lp_oracle.h"
#include "tests/test_util.h"

namespace slp {
namespace {

using lp::LpProblem;
using lp::LpSolution;
using lp::Sense;
using lp::SimplexOptions;
using lp::SimplexSolver;
using lp::SolveStatus;
using lp::kInfinity;

using test::Certified;
using test::CertifyOptimal;
using test::RandomBoxedLp;
using test::RandomCoveringLp;

// --- instance generators (seeded; every family deterministic) -------------

// n x n assignment polytope with integer costs: every vertex has 2n tight
// rows for n^2 variables, so pivots are massively degenerate.
LpProblem DegenerateAssignmentLp(Rng& rng, int n) {
  LpProblem p;
  std::vector<std::vector<int>> v(n, std::vector<int>(n));
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      v[i][j] = p.AddVariable(std::round(rng.Uniform(1, 9)), 0, 1);
    }
  }
  for (int i = 0; i < n; ++i) {
    const int r = p.AddConstraint(Sense::kEqual, 1);
    for (int j = 0; j < n; ++j) p.AddEntry(r, v[i][j], 1);
  }
  for (int j = 0; j < n; ++j) {
    const int r = p.AddConstraint(Sense::kEqual, 1);
    for (int i = 0; i < n; ++i) p.AddEntry(r, v[i][j], 1);
  }
  return p;
}

// Boxed LP plus one row that contradicts a variable's upper bound.
LpProblem RandomInfeasibleLp(Rng& rng, int n, int m) {
  LpProblem p = RandomBoxedLp(rng, n, m, rng.Uniform(0.2, 0.6));
  const int j = static_cast<int>(rng.UniformInt(0, n - 1));
  const int r = p.AddConstraint(Sense::kGreaterEqual,
                                p.hi(j) + rng.Uniform(0.5, 3));
  p.AddEntry(r, j, 1);
  return p;
}

// Covering LP plus an unbounded ray: a column with negative cost, infinite
// upper bound, and nonnegative entries only in >= rows — pushing it up
// only helps feasibility while driving the objective to -inf.
LpProblem RandomUnboundedLp(Rng& rng, int n, int m) {
  LpProblem p = RandomCoveringLp(rng, n, m, rng.Uniform(0.1, 0.4));
  const int z = p.AddVariable(-1, 0, kInfinity);
  for (int i = 0; i < m; ++i) {
    if (rng.Bernoulli(0.5)) p.AddEntry(i, z, rng.Uniform(0.1, 1));
  }
  return p;
}

// Boxed LP with duplicated rows, duplicated columns, and an empty row —
// the factorization must repair or avoid the dependent columns without
// ever corrupting the answer.
LpProblem RandomRankDeficientLp(Rng& rng, int n, int m) {
  LpProblem p = RandomBoxedLp(rng, n, m, rng.Uniform(0.2, 0.5));
  const LpProblem::Columns cols = p.BuildColumns();
  // Duplicate two random columns (same entries, same bounds, same cost).
  for (int copies = 0; copies < 2; ++copies) {
    const int j = static_cast<int>(rng.UniformInt(0, n - 1));
    const int dup = p.AddVariable(p.obj(j), p.lo(j), p.hi(j));
    for (int e = cols.col_start[j]; e < cols.col_start[j + 1]; ++e) {
      p.AddEntry(cols.row[e], dup, cols.coef[e]);
    }
  }
  // Duplicate a random row verbatim (linearly dependent constraints).
  const int src = static_cast<int>(rng.UniformInt(0, m - 1));
  std::vector<std::pair<int, double>> row_entries;
  for (int j = 0; j < n; ++j) {
    for (int e = cols.col_start[j]; e < cols.col_start[j + 1]; ++e) {
      if (cols.row[e] == src) row_entries.emplace_back(j, cols.coef[e]);
    }
  }
  const int dup_row = p.AddConstraint(p.sense(src), p.rhs(src));
  for (const auto& [col, coef] : row_entries) p.AddEntry(dup_row, col, coef);
  // An empty (trivially satisfiable) row: zero coefficients merge away.
  const int empty = p.AddConstraint(Sense::kLessEqual, 1);
  p.AddEntry(empty, 0, 0.0);
  return p;
}

// ---------------------------------------------------------------------------
// Cold sweeps: every verdict certified, per family.
// ---------------------------------------------------------------------------

TEST(LpDifferentialTest, BoxedFamilyAgrees) {
  for (int seed = 0; seed < 100; ++seed) {
    Rng rng(10'000 + seed);
    const int n = 5 + static_cast<int>(rng.UniformInt(0, 55));
    const int m = 3 + static_cast<int>(rng.UniformInt(0, std::min(n, 27)));
    const LpProblem p = RandomBoxedLp(rng, n, m, rng.Uniform(0.1, 0.8));
    Certified(p);
  }
}

TEST(LpDifferentialTest, DegenerateFamilyAgrees) {
  for (int seed = 0; seed < 40; ++seed) {
    Rng rng(20'000 + seed);
    const int n = 4 + static_cast<int>(rng.UniformInt(0, 4));
    const LpProblem p = DegenerateAssignmentLp(rng, n);
    SimplexOptions opts;
    opts.stall_threshold = 4;  // exercise the anti-cycling safeguards
    Certified(p, opts);
  }
}

TEST(LpDifferentialTest, InfeasibleFamilyAgrees) {
  for (int seed = 0; seed < 40; ++seed) {
    Rng rng(30'000 + seed);
    const int n = 5 + static_cast<int>(rng.UniformInt(0, 25));
    const int m = 3 + static_cast<int>(rng.UniformInt(0, 15));
    const LpProblem p = RandomInfeasibleLp(rng, n, m);
    const LpSolution sol = Certified(p);
    EXPECT_EQ(sol.status, SolveStatus::kInfeasible) << "seed " << seed;
  }
}

TEST(LpDifferentialTest, UnboundedFamilyAgrees) {
  for (int seed = 0; seed < 40; ++seed) {
    Rng rng(40'000 + seed);
    const int n = 5 + static_cast<int>(rng.UniformInt(0, 25));
    const int m = 3 + static_cast<int>(rng.UniformInt(0, 15));
    const LpProblem p = RandomUnboundedLp(rng, n, m);
    const LpSolution sol = Certified(p);
    EXPECT_EQ(sol.status, SolveStatus::kUnbounded) << "seed " << seed;
  }
}

TEST(LpDifferentialTest, RankDeficientFamilyAgrees) {
  for (int seed = 0; seed < 40; ++seed) {
    Rng rng(50'000 + seed);
    const int n = 5 + static_cast<int>(rng.UniformInt(0, 25));
    const int m = 3 + static_cast<int>(rng.UniformInt(0, 15));
    const LpProblem p = RandomRankDeficientLp(rng, n, m);
    Certified(p);
  }
}

// ---------------------------------------------------------------------------
// Rung sweeps: the edits the FilterAssign ladder makes between solves
// (rhs rungs, objective retunes), each edited LP cold-solved and certified.
// ---------------------------------------------------------------------------

// Random rhs perturbations in both directions: any rhs change can move the
// old optimum out of the feasible region or leave it suboptimal.
TEST(LpDifferentialTest, RungPerturbedResolvesAgree) {
  for (int seed = 0; seed < 60; ++seed) {
    Rng rng(60'000 + seed);
    LpProblem p = RandomCoveringLp(rng, 40 + seed % 40, 20 + seed % 20, 0.15);
    ASSERT_EQ(Certified(p).status, SolveStatus::kOptimal) << "seed " << seed;
    for (int i = 0; i < p.num_constraints(); ++i) {
      if (rng.Bernoulli(0.4)) p.SetRhs(i, p.rhs(i) * rng.Uniform(0.7, 1.4));
    }
    Certified(p);
  }
}

// Chained rungs, like the FilterAssign escalation ladder (tighten,
// tighten, loosen), each rung solved from scratch.
TEST(LpDifferentialTest, ChainedRungLaddersStayExact) {
  for (int seed = 0; seed < 40; ++seed) {
    Rng rng(70'000 + seed);
    LpProblem p = RandomCoveringLp(rng, 60, 30, 0.12);
    ASSERT_EQ(Certified(p).status, SolveStatus::kOptimal) << "seed " << seed;
    for (const double scale : {1.15, 1.25, 0.9}) {
      // Covering rows are >=: raising rhs tightens, lowering loosens.
      for (int i = 0; i < p.num_constraints(); ++i) {
        p.SetRhs(i, p.rhs(i) * scale);
      }
      if (Certified(p).status != SolveStatus::kOptimal) break;
    }
  }
}

// Objective edits, like the ladder's (C3) slack-penalty retune.
TEST(LpDifferentialTest, ObjectiveEditFallsBackToPrimal) {
  for (int seed = 0; seed < 20; ++seed) {
    Rng rng(80'000 + seed);
    LpProblem p = RandomCoveringLp(rng, 50, 25, 0.15);
    ASSERT_EQ(Certified(p).status, SolveStatus::kOptimal);
    for (int j = 0; j < p.num_vars(); ++j) {
      if (rng.Bernoulli(0.3)) p.SetObj(j, p.obj(j) + rng.Uniform(-1.5, 1.5));
    }
    Certified(p);
  }
}

// A rung that makes the LP infeasible: phase 1 must classify it, and the
// elastic LP must certify the verdict.
TEST(LpDifferentialTest, RungIntoInfeasibilityClassifiesLikeCold) {
  for (int seed = 0; seed < 20; ++seed) {
    Rng rng(90'000 + seed);
    LpProblem p = RandomCoveringLp(rng, 30, 15, 0.2);
    ASSERT_EQ(Certified(p).status, SolveStatus::kOptimal);
    // Push one covering row's demand beyond what x <= 1 can supply.
    const int i = static_cast<int>(rng.UniformInt(0, p.num_constraints() - 1));
    double row_sum = 0;
    const LpProblem::Columns cols = p.BuildColumns();
    for (int j = 0; j < p.num_vars(); ++j) {
      for (int e = cols.col_start[j]; e < cols.col_start[j + 1]; ++e) {
        if (cols.row[e] == i) row_sum += std::abs(cols.coef[e]);
      }
    }
    p.SetRhs(i, row_sum + 1);
    EXPECT_EQ(Certified(p).status, SolveStatus::kInfeasible) << "seed " << seed;
  }
}

// ---------------------------------------------------------------------------
// LU unit-column repair fuzz: singular / near-singular bases must
// refactorize-or-report, never leak NaN into FTRAN/BTRAN.
// ---------------------------------------------------------------------------

TEST(LpDifferentialTest, LuRepairFuzzNeverProducesNan) {
  for (int seed = 0; seed < 60; ++seed) {
    Rng rng(110'000 + seed);
    const int m = 4 + static_cast<int>(rng.UniformInt(0, 28));
    const int n = 2 * m;

    // Random CSC matrix, then sabotage: duplicated columns, zero columns,
    // and near-duplicates (rank-deficient up to round-off).
    std::vector<int> col_start{0};
    std::vector<int> row;
    std::vector<double> coef;
    std::vector<int> kind(n, 0);  // 0 normal, 1 zero, 2 dup, 3 near-dup
    for (int j = 0; j < n; ++j) {
      if (j > 0 && rng.Bernoulli(0.15)) {
        kind[j] = 1 + static_cast<int>(rng.UniformInt(0, 2));
      }
      if (kind[j] == 1) {  // zero column
        col_start.push_back(static_cast<int>(row.size()));
        continue;
      }
      if (kind[j] >= 2) {  // (near-)duplicate of the previous column
        for (int e = col_start[j - 1]; e < col_start[j]; ++e) {
          row.push_back(row[e]);
          coef.push_back(coef[e] +
                         (kind[j] == 3 ? rng.Uniform(-1e-13, 1e-13) : 0.0));
        }
        col_start.push_back(static_cast<int>(row.size()));
        continue;
      }
      for (int i = 0; i < m; ++i) {
        if (rng.Bernoulli(0.3)) {
          row.push_back(i);
          coef.push_back(rng.Uniform(-2, 2));
        }
      }
      col_start.push_back(static_cast<int>(row.size()));
    }

    std::vector<int> basis_cols(m);
    for (int p_ = 0; p_ < m; ++p_) {
      basis_cols[p_] = static_cast<int>(rng.UniformInt(0, n - 1));
    }

    lp::BasisFactorization factor;
    const auto repairs =
        factor.Factorize(col_start, row, coef, basis_cols, m, 1e-12);
    // A repaired basis is still a basis: both solves must stay finite on
    // random right-hand sides, including sparse ones.
    for (int probe = 0; probe < 3; ++probe) {
      lp::ScatterVec v;
      v.Resize(m);
      const int nnz = 1 + static_cast<int>(rng.UniformInt(0, m - 1));
      for (int k = 0; k < nnz; ++k) {
        v.Add(static_cast<int>(rng.UniformInt(0, m - 1)), rng.Uniform(-3, 3));
      }
      if (probe % 2 == 0) {
        factor.Ftran(&v, 0.25);
      } else {
        factor.Btran(&v, 0.25);
      }
      for (int i = 0; i < m; ++i) {
        ASSERT_TRUE(std::isfinite(v.val[i]))
            << "seed " << seed << " repairs=" << repairs.size() << " i=" << i;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// FilterAssign escalation ladders: the exact LPs + rung sequence the core
// pipeline produces, replayed on all three paper workload generators, with
// every rung of the retained model cold-solved and KKT-certified.
// ---------------------------------------------------------------------------

core::SaProblem SmallRssProblem(int subs, int brokers, core::SaConfig config,
                                uint64_t seed) {
  wl::RssParams params;
  params.num_subscribers = subs;
  params.num_brokers = brokers;
  params.num_locations = 6;
  params.seed = seed;
  wl::Workload w = wl::GenerateRss(params);
  net::BrokerTree tree =
      net::BuildOneLevelTree(w.publisher, w.broker_locations);
  return core::SaProblem(std::move(tree), std::move(w.subscribers), config);
}

TEST(LpDifferentialTest, FilterAssignLaddersAgreeColdWarmDual) {
  const SimplexSolver solver;
  int ladders = 0;
  int rungs_checked = 0;
  for (int ladder = 0; ladder < 200; ++ladder) {
    core::SaConfig config;
    config.beta = 1.3;
    config.beta_max = 1.8;
    const int subs = 30 + ladder % 41;
    const uint64_t seed = 1000 + ladder;
    core::SaProblem problem =
        ladder % 3 == 0   ? test::SmallGridProblem(subs, 5, config, seed)
        : ladder % 3 == 1 ? test::SmallGgProblem(subs, 5, config, seed)
                          : SmallRssProblem(subs, 5, config, seed);
    core::Targets targets =
        core::BuildLeafTargets(problem, core::AllSubscribers(problem));
    std::vector<int> all_rows(targets.subscribers.size());
    for (size_t i = 0; i < all_rows.size(); ++i) {
      all_rows[i] = static_cast<int>(i);
    }
    Rng rng(seed);
    const std::vector<geo::Rectangle> rects =
        core::FilterGen(problem, core::AllSubscribers(problem), targets.count,
                        core::FilterGenOptions{}, rng);
    Result<core::LpRelaxModel> built = core::LpRelaxModel::Build(
        problem, targets, all_rows, all_rows, rects, rng);
    if (!built.ok()) continue;  // structurally infeasible sample: no ladder
    core::LpRelaxModel model = std::move(built.value());
    ++ladders;

    // The escalation ladder's rungs on one retained model: the build's β,
    // a rung tightened below β, β_max, then no load enforcement (an
    // objective retune: the slack penalties go to 0).
    const struct {
      double beta;
      bool enforce;
    } rungs[] = {{config.beta, true},
                 {0.8 * config.beta, true},
                 {config.beta_max, true},
                 {config.beta_max, false}};
    for (const auto& rung : rungs) {
      model.SetLoadRung(rung.beta, rung.enforce);
      const LpSolution cold = solver.Solve(model.lp());
      // (C3) is soft: the LP itself stays feasible at every rung.
      ASSERT_EQ(cold.status, SolveStatus::kOptimal) << "ladder " << ladder;
      EXPECT_TRUE(CertifyOptimal(model.lp(), cold)) << "ladder " << ladder;
      ++rungs_checked;
      // The model's own solve of the rung, as FilterAssign makes it, is
      // that same cold solve: the same LP takes the same pivots.
      (void)model.Solve(rng);
      EXPECT_EQ(model.last_lp_stats().pivots, cold.stats.pivots)
          << "ladder " << ladder;
    }
  }
  // The sweep must actually cover real ladders.
  EXPECT_GT(ladders, 100);
  EXPECT_EQ(rungs_checked, ladders * 4);
}

// ---------------------------------------------------------------------------
// The static (C3) rule (core::LoadRungRuledOut): wherever it rules a load
// rung out, the model FilterAssign would have built with Sb at that rung is
// load-infeasible (its KKT-certified optimum's (C3) slacks sum past 0.5),
// and it never rules out a rung at the root or on leaf targets, where the
// capacity shares sum to 1.
// ---------------------------------------------------------------------------

// Problem subscribers with at least one latency-feasible child of `node`.
std::vector<int> SubscribersWithChildTarget(const core::SaProblem& problem,
                                            int node) {
  const core::Targets all =
      core::BuildChildTargets(problem, core::AllSubscribers(problem), node);
  std::vector<int> subs;
  for (int r = 0; r < all.num_rows(); ++r) {
    if (!all.candidates(r).empty()) subs.push_back(all.subscribers[r]);
  }
  return subs;
}

struct RuleTally {
  int ruled_out = 0;
  int kept = 0;
};

// Samples Sb and Q as FilterAssign does (Sb of 5 rows per target, Q of as
// many again), builds the model over Sa = Q ∪ Sb, and asks the rule about
// the rungs 1, β and β_max, and about the rungs where the rule's floor
// sb_size (1 − β Σκ) is 0.5 ± 0.1 (the first must be ruled out, the second
// kept). Each rung it rules out is checked against the simplex's
// KKT-certified optimum of the model's LP at that rung. Where the shares
// sum to 1 (`root_or_leaves`), no rung with β ≥ 1 may be ruled out.
void CheckLoadRule(const core::SaProblem& problem, const core::Targets& targets,
                   bool root_or_leaves, uint64_t seed, RuleTally* tally) {
  const SimplexSolver solver;
  Rng rng(seed);
  const int rows = targets.num_rows();
  const int sb_size = std::min(rows, 5 * targets.count);
  const std::vector<int> sb_rows =
      UniformSampleWithoutReplacement(rows, sb_size, rng);
  const std::vector<int> q_rows =
      UniformSampleWithoutReplacement(rows, sb_size, rng);
  std::vector<int> sa_rows;
  std::set_union(q_rows.begin(), q_rows.end(), sb_rows.begin(), sb_rows.end(),
                 std::back_inserter(sa_rows));
  std::vector<int> sa_subs;
  for (int r : sa_rows) sa_subs.push_back(targets.subscribers[r]);
  const std::vector<geo::Rectangle> rects = core::FilterGen(
      problem, sa_subs, targets.count, core::FilterGenOptions{}, rng);
  Result<core::LpRelaxModel> built = core::LpRelaxModel::Build(
      problem, targets, sa_rows, sb_rows, rects, rng);
  if (!built.ok()) return;  // structurally infeasible sample
  core::LpRelaxModel& model = built.value();

  double kappa_sum = 0;
  for (double kappa : targets.kappa) kappa_sum += kappa;
  auto rung_at_floor = [&](double floor) {
    return (1 - floor / sb_size) / kappa_sum;
  };
  const double must_rule_out = rung_at_floor(0.6);
  const double must_keep = rung_at_floor(0.4);
  EXPECT_TRUE(core::LoadRungRuledOut(targets, sb_size, must_rule_out))
      << "seed " << seed;
  EXPECT_FALSE(core::LoadRungRuledOut(targets, sb_size, must_keep))
      << "seed " << seed;
  for (double beta : {1.0, problem.config().beta, problem.config().beta_max,
                      must_rule_out, must_keep}) {
    const bool ruled_out = core::LoadRungRuledOut(targets, sb_size, beta);
    if (root_or_leaves && beta >= 1) {
      EXPECT_FALSE(ruled_out) << "seed " << seed << " beta " << beta;
    }
    if (!ruled_out) {
      ++tally->kept;
      continue;
    }
    ++tally->ruled_out;
    model.SetLoadRung(beta, true);
    const LpSolution opt = solver.Solve(model.lp());
    ASSERT_TRUE(CertifyOptimal(model.lp(), opt)) << "seed " << seed;
    EXPECT_GT(model.LoadSlackSum(opt.x), 0.5)
        << "seed " << seed << " beta " << beta;
  }
}

TEST(LpDifferentialTest, LoadRungRuleIsSound) {
  RuleTally child;
  RuleTally root;
  RuleTally leaf;
  for (int seed = 0; seed < 12; ++seed) {
    core::SaConfig config;
    config.max_delay = 1.0;
    const int out_degree = 3 + seed % 3;
    const core::SaProblem problem = test::SmallMultiLevelProblem(
        300, 24, out_degree, config, 500 + seed);
    const net::BrokerTree& tree = problem.tree();
    for (int node = 0; node < tree.num_nodes(); ++node) {
      if (tree.children(node).size() < 2) continue;
      const core::Targets targets = core::BuildChildTargets(
          problem, SubscribersWithChildTarget(problem, node), node);
      if (targets.num_rows() == 0) continue;
      const bool is_root = node == net::BrokerTree::kPublisher;
      CheckLoadRule(problem, targets, is_root, 700 + 31 * seed + node,
                    is_root ? &root : &child);
    }
    // Leaf targets over a slice of the population, which keeps the LP
    // small: rows with more than six feasible leaves keep a random six.
    std::vector<int> slice = core::AllSubscribers(problem);
    slice.resize(40);
    const core::Targets leaves = core::BuildLeafTargets(problem, slice);
    CheckLoadRule(problem, leaves, true, 900 + seed, &leaf);
  }
  // Both verdicts must be exercised below the root, and the root and the
  // leaves must be checked on every seed.
  EXPECT_GT(child.ruled_out, 50);
  EXPECT_GT(child.kept, 50);
  EXPECT_GE(root.kept, 12 * 4);
  EXPECT_GE(leaf.kept, 12 * 4);
}

}  // namespace
}  // namespace slp
