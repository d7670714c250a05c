// LP engine benchmark: cold solves of LPRelax-shaped instances, plus
// end-to-end FilterAssign throughput. Prints tables and writes
// BENCH_lp.json (path from argv[1] or SLP_BENCH_LP_JSON; default
// ./BENCH_lp.json) recording wall time and pivots per instance.
//
// The instances mimic the FilterAssign ladder's LPs: covering rows (C2),
// per-target capacity rows with penalized slack (C3), box variables. Each
// is edited to a later ladder rung (cap rhs loosened, slack penalties
// retuned in place) and solved from scratch, as LpRelaxModel::Solve
// solves every rung.

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
// penalty, in place (shape preserved).
void EscalateRung(LadderLp* l, double scale, double penalty) {
  for (size_t i = 0; i < l->cap_rows.size(); ++i) {
    l->p.SetRhs(l->cap_rows[i], l->p.rhs(l->cap_rows[i]) * scale);
    l->p.SetObj(l->slack_vars[i], penalty);
  }
}

struct ColdRow {
  int rows = 0;
  double seconds = 0;
  int pivots = 0;
};

}  // namespace

int Main(int argc, char** argv) {
  const char* env = std::getenv("SLP_BENCH_LP_JSON");
  const std::string json_path =
      argc > 1 ? argv[1] : (env != nullptr ? env : "BENCH_lp.json");

  PrintHeader("Cold solve of an escalated rung");
  std::printf("%8s %12s %12s\n", "rows", "seconds", "pivots");

  std::vector<ColdRow> cold;
  for (int rows : {100, 500, 2000}) {
    Rng rng(200 + rows);
    LadderLp l = MakeLadderLp(rows, rng);
    EscalateRung(&l, 1.3, 5e3);
    // Best-of-reps wall time (best, not median: minimizes scheduler noise,
    // and every run takes the same pivots to the same optimum anyway).
    const int reps = rows >= 2000 ? 2 : 5;
    ColdRow row;
    row.rows = rows;
    row.seconds = 1e100;
    for (int r = 0; r < reps; ++r) {
      WallTimer timer;
      const lp::LpSolution sol = lp::SimplexSolver().Solve(l.p);
      row.seconds = std::min(row.seconds, timer.Seconds());
      if (sol.status != lp::SolveStatus::kOptimal) {
        std::fprintf(stderr, "cold solve failed at rows=%d: %s\n", rows,
                     lp::ToString(sol.status));
        return 1;
      }
      row.pivots = sol.stats.pivots;
    }
    cold.push_back(row);
    std::printf("%8d %12.4f %12d\n", rows, row.seconds, row.pivots);
  }

  PrintHeader("End-to-end FilterAssign (ladder of cold solves inside)");
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
  std::fprintf(f, "{\n  \"cold_solve\": [\n");
  for (size_t i = 0; i < cold.size(); ++i) {
    std::fprintf(f, "    {\"rows\": %d, \"seconds\": %.6f, \"pivots\": %d}%s\n",
                 cold[i].rows, cold[i].seconds, cold[i].pivots,
                 i + 1 < cold.size() ? "," : "");
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
