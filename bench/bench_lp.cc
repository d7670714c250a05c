// LP engine benchmark: warm-started β-escalation re-solves vs cold
// re-solves, and the dual-simplex rung re-solve (ResolveDual) vs both, on
// LPRelax-shaped instances; plus end-to-end FilterAssign throughput.
// Prints tables and writes BENCH_lp.json (path from argv[1] or
// SLP_BENCH_LP_JSON; default ./BENCH_lp.json) recording the speedups.
//
// The instances mimic the FilterAssign ladder's LPs: covering rows (C2),
// per-target capacity rows with penalized slack (C3), box variables. The
// "escalation" step is the ladder's rung change — cap rhs loosened, slack
// penalties retuned in place — re-solved either warm (previous basis as
// hint) or cold. The "dual_resolve" series tightens the caps instead
// (rhs-only edit: the retained basis stays dual-feasible but goes primal
// infeasible — the dual loop's home turf) and re-solves cold, primal-warm,
// and dually.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/random.h"
#include "src/common/timer.h"
#include "src/core/candidates.h"
#include "src/core/filter_assign.h"
#include "src/core/problem.h"
#include "src/lp/lp_problem.h"
#include "src/lp/simplex.h"

namespace slp::bench {
namespace {

struct LadderLp {
  lp::LpProblem p;
  std::vector<int> cap_rows;    // (C3)-analogue rows
  std::vector<int> slack_vars;  // their penalized slacks
};

// An LPRelax-shaped instance with exactly `rows` constraints: T capacity
// rows (with penalized slack) and rows-T covering rows, ~6 candidate
// targets per covering row.
LadderLp MakeLadderLp(int rows, Rng& rng) {
  constexpr int kTargets = 20;
  constexpr int kCandidates = 6;
  constexpr double kPenalty = 1e4;
  const int items = rows - kTargets;

  LadderLp out;
  std::vector<std::vector<int>> members(kTargets);  // x vars per cap row
  for (int j = 0; j < items; ++j) {
    // Candidate targets: a distinct random subset of size kCandidates.
    std::vector<int> cand;
    while (static_cast<int>(cand.size()) < kCandidates) {
      const int t = static_cast<int>(rng.UniformInt(0, kTargets - 1));
      if (std::find(cand.begin(), cand.end(), t) == cand.end()) {
        cand.push_back(t);
      }
    }
    const int row = out.p.AddConstraint(lp::Sense::kGreaterEqual, 1);
    for (int t : cand) {
      const int v = out.p.AddVariable(rng.Uniform(0.1, 2), 0, 1);
      out.p.AddEntry(row, v, 1);
      members[t].push_back(v);
    }
  }
  const double cap = 1.2 * items * kCandidates / kTargets;
  for (int t = 0; t < kTargets; ++t) {
    const int row = out.p.AddConstraint(lp::Sense::kLessEqual, cap);
    for (int v : members[t]) out.p.AddEntry(row, v, 1);
    const int slack = out.p.AddVariable(kPenalty, 0, lp::kInfinity);
    out.p.AddEntry(row, slack, -1);
    out.cap_rows.push_back(row);
    out.slack_vars.push_back(slack);
  }
  return out;
}

// The ladder's rung change: loosen every capacity cap and retune the slack
// penalty, in place (shape preserved, basis stays compatible).
void EscalateRung(LadderLp* l, double scale, double penalty) {
  for (size_t i = 0; i < l->cap_rows.size(); ++i) {
    l->p.SetRhs(l->cap_rows[i], l->p.rhs(l->cap_rows[i]) * scale);
    l->p.SetObj(l->slack_vars[i], penalty);
  }
}

struct Timed {
  double seconds = 0;
  lp::LpSolution sol;
};

// Best-of-`reps` wall time (best, not median: minimizes scheduler noise,
// and every run must produce the same optimum anyway).
Timed TimeSolve(const lp::LpProblem& p, const lp::SimplexOptions& opts,
                const lp::Basis* hint, int reps) {
  Timed out;
  out.seconds = 1e100;
  for (int r = 0; r < reps; ++r) {
    WallTimer timer;
    lp::LpSolution sol = lp::SimplexSolver(opts).Solve(p, hint);
    const double s = timer.Seconds();
    if (s < out.seconds) {
      out.seconds = s;
      out.sol = std::move(sol);
    }
  }
  return out;
}

// Best-of-`reps` wall time for the dual re-solve path.
Timed TimeResolveDual(const lp::LpProblem& p, const lp::SimplexOptions& opts,
                      const lp::Basis& hint, int reps) {
  Timed out;
  out.seconds = 1e100;
  for (int r = 0; r < reps; ++r) {
    WallTimer timer;
    lp::LpSolution sol = lp::SimplexSolver(opts).ResolveDual(p, hint);
    const double s = timer.Seconds();
    if (s < out.seconds) {
      out.seconds = s;
      out.sol = std::move(sol);
    }
  }
  return out;
}

struct WarmRow {
  int rows = 0;
  double cold_s = 0, warm_s = 0, speedup = 0;
  int cold_pivots = 0, warm_pivots = 0;
};

struct DualRow {
  int rows = 0;
  double cold_s = 0, warm_s = 0, dual_s = 0;
  int cold_pivots = 0, warm_pivots = 0, dual_pivots = 0, bound_flips = 0;
  bool dual_used = false;
};

}  // namespace

int Main(int argc, char** argv) {
  const char* env = std::getenv("SLP_BENCH_LP_JSON");
  const std::string json_path =
      argc > 1 ? argv[1] : (env != nullptr ? env : "BENCH_lp.json");

  PrintHeader("β-escalation re-solve: warm (basis hint) vs cold");
  std::printf("%8s %12s %12s %9s %12s %12s\n", "rows", "cold (s)", "warm (s)",
              "speedup", "cold pivots", "warm pivots");

  std::vector<WarmRow> warm;
  for (int rows : {100, 500, 2000}) {
    Rng rng(200 + rows);
    LadderLp l = MakeLadderLp(rows, rng);
    lp::SimplexOptions opts;
    const lp::LpSolution base = lp::SimplexSolver(opts).Solve(l.p);
    if (base.status != lp::SolveStatus::kOptimal) {
      std::fprintf(stderr, "base solve failed at rows=%d\n", rows);
      return 1;
    }
    EscalateRung(&l, 1.3, 5e3);
    const int reps = rows >= 2000 ? 2 : 5;
    const Timed cold_re = TimeSolve(l.p, opts, nullptr, reps);
    const Timed warm_re = TimeSolve(l.p, opts, &base.basis, reps);
    if (cold_re.sol.status != lp::SolveStatus::kOptimal ||
        warm_re.sol.status != lp::SolveStatus::kOptimal ||
        std::abs(cold_re.sol.objective - warm_re.sol.objective) >
            1e-6 * (1 + std::abs(cold_re.sol.objective))) {
      std::fprintf(stderr, "warm/cold disagree at rows=%d\n", rows);
      return 1;
    }
    WarmRow row;
    row.rows = rows;
    row.cold_s = cold_re.seconds;
    row.warm_s = warm_re.seconds;
    row.speedup = cold_re.seconds / warm_re.seconds;
    row.cold_pivots = cold_re.sol.stats.pivots;
    row.warm_pivots = warm_re.sol.stats.pivots;
    warm.push_back(row);
    std::printf("%8d %12.4f %12.4f %8.1fx %12d %12d\n", rows, row.cold_s,
                row.warm_s, row.speedup, row.cold_pivots, row.warm_pivots);
  }

  PrintHeader("Tightened-rung re-solve: dual simplex vs primal warm vs cold");
  std::printf("%8s %10s %10s %10s %12s %12s %12s %8s\n", "rows", "cold (s)",
              "warm (s)", "dual (s)", "cold pivots", "warm pivots",
              "dual pivots", "flips");

  std::vector<DualRow> dual;
  for (int rows : {100, 500, 2000}) {
    Rng rng(300 + rows);
    LadderLp l = MakeLadderLp(rows, rng);
    lp::SimplexOptions opts;
    const lp::LpSolution base = lp::SimplexSolver(opts).Solve(l.p);
    if (base.status != lp::SolveStatus::kOptimal) {
      std::fprintf(stderr, "base solve failed at rows=%d\n", rows);
      return 1;
    }
    // Tighten the caps with the penalty unchanged: a pure rhs edit, so the
    // retained basis stays dual-feasible while its x_B goes out of bounds.
    // The generator's caps sit ~7x above the optimal per-target load, so
    // the scale must cut below that slack for the rung to actually bind.
    EscalateRung(&l, 0.1, 1e4);
    const int reps = rows >= 2000 ? 2 : 5;
    const Timed cold_re = TimeSolve(l.p, opts, nullptr, reps);
    const Timed warm_re = TimeSolve(l.p, opts, &base.basis, reps);
    const Timed dual_re = TimeResolveDual(l.p, opts, base.basis, reps);
    const double obj = cold_re.sol.objective;
    if (cold_re.sol.status != lp::SolveStatus::kOptimal ||
        warm_re.sol.status != lp::SolveStatus::kOptimal ||
        dual_re.sol.status != lp::SolveStatus::kOptimal ||
        std::abs(warm_re.sol.objective - obj) > 1e-6 * (1 + std::abs(obj)) ||
        std::abs(dual_re.sol.objective - obj) > 1e-6 * (1 + std::abs(obj))) {
      std::fprintf(stderr, "dual/warm/cold disagree at rows=%d\n", rows);
      return 1;
    }
    DualRow row;
    row.rows = rows;
    row.cold_s = cold_re.seconds;
    row.warm_s = warm_re.seconds;
    row.dual_s = dual_re.seconds;
    row.cold_pivots = cold_re.sol.stats.pivots;
    row.warm_pivots = warm_re.sol.stats.pivots;
    row.dual_pivots = dual_re.sol.stats.pivots;
    row.bound_flips = dual_re.sol.stats.bound_flips;
    row.dual_used = dual_re.sol.stats.dual_used;
    dual.push_back(row);
    std::printf("%8d %10.4f %10.4f %10.4f %12d %12d %12d %8d%s\n", rows,
                row.cold_s, row.warm_s, row.dual_s, row.cold_pivots,
                row.warm_pivots, row.dual_pivots, row.bound_flips,
                row.dual_used ? "" : "  (fell back to primal)");
  }

  PrintHeader("End-to-end FilterAssign (ladder + warm re-solves inside)");
  const int subs = EnvInt("SLP_SUBS", 800);
  const int brokers = EnvInt("SLP_BROKERS", 20);
  wl::Workload w = wl::GenerateGoogleGroupsVariant(
      wl::Level::kHigh, wl::Level::kLow, subs, brokers, 4);
  core::SaProblem problem = MakeOneLevelProblem(std::move(w), core::SaConfig{});
  const core::Targets targets =
      core::BuildLeafTargets(problem, core::AllSubscribers(problem));
  core::FilterAssignOptions fa_opts;
  const int fa_runs = 3;
  int fa_iterations = 0, fa_lp_calls = 0;
  WallTimer fa_timer;
  for (int r = 0; r < fa_runs; ++r) {
    Rng rng(EnvSeed() + r);
    auto res = core::FilterAssign(problem, targets, fa_opts, rng);
    if (!res.ok()) {
      std::fprintf(stderr, "FilterAssign failed: %s\n",
                   res.status().ToString().c_str());
      return 1;
    }
    fa_iterations += res.value().iterations;
    fa_lp_calls += res.value().lp_calls;
  }
  const double fa_seconds = fa_timer.Seconds();
  const double rounds_per_sec = fa_iterations / fa_seconds;
  std::printf("%d subscribers, %d brokers: %d rounds, %d LP calls in %.3fs "
              "(%.1f rounds/s)\n",
              subs, brokers, fa_iterations, fa_lp_calls, fa_seconds,
              rounds_per_sec);

  FILE* f = std::fopen(json_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n  \"escalation_resolve\": [\n");
  for (size_t i = 0; i < warm.size(); ++i) {
    std::fprintf(f,
                 "    {\"rows\": %d, \"cold_seconds\": %.6f, "
                 "\"warm_seconds\": %.6f, \"speedup\": %.2f, "
                 "\"cold_pivots\": %d, \"warm_pivots\": %d}%s\n",
                 warm[i].rows, warm[i].cold_s, warm[i].warm_s, warm[i].speedup,
                 warm[i].cold_pivots, warm[i].warm_pivots,
                 i + 1 < warm.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"dual_resolve\": [\n");
  for (size_t i = 0; i < dual.size(); ++i) {
    std::fprintf(f,
                 "    {\"rows\": %d, \"cold_seconds\": %.6f, "
                 "\"warm_seconds\": %.6f, \"dual_seconds\": %.6f, "
                 "\"cold_pivots\": %d, \"warm_pivots\": %d, "
                 "\"dual_pivots\": %d, \"bound_flips\": %d, "
                 "\"dual_used\": %s}%s\n",
                 dual[i].rows, dual[i].cold_s, dual[i].warm_s, dual[i].dual_s,
                 dual[i].cold_pivots, dual[i].warm_pivots, dual[i].dual_pivots,
                 dual[i].bound_flips, dual[i].dual_used ? "true" : "false",
                 i + 1 < dual.size() ? "," : "");
  }
  std::fprintf(f,
               "  ],\n  \"filter_assign\": {\"subscribers\": %d, "
               "\"brokers\": %d, \"runs\": %d, \"rounds\": %d, "
               "\"lp_calls\": %d, \"seconds\": %.3f, "
               "\"rounds_per_sec\": %.2f}\n}\n",
               subs, brokers, fa_runs, fa_iterations, fa_lp_calls, fa_seconds,
               rounds_per_sec);
  std::fclose(f);
  std::printf("\nwrote %s\n", json_path.c_str());
  return 0;
}

}  // namespace slp::bench

int main(int argc, char** argv) { return slp::bench::Main(argc, argv); }
