// Aggregation-layer benchmark (DESIGN.md §14): what the subsumption layer
// buys on coverable workloads.
//
// SLP end-to-end — direct RunSlp on the full problem vs AggregateSolve
// (aggregate + compressed solve + expand) on the SAME workload, across a
// sweep of coverable fractions at the small size and at the paper's
// headline fraction (0.6 coverable, >= 50%) at the large size. Reports wall
// time, realized compression ratio, Q(T) of both solutions (the expansion
// transfers filters verbatim, so aggregated Q(T) is the compressed run's),
// and process peak RSS. The aggregated run goes FIRST so its peak-RSS
// figure is not polluted by the direct solve (getrusage peaks are monotone
// across the process).
//
// Every row is checked outside the timed regions: both solutions must pass
// core::ValidateSolution's structural checks (every subscriber assigned to
// a leaf, coverage, nesting, at most alpha rectangles per filter; latency
// and load are reported, not gated), and the two pipelines must agree on
// latency feasibility. The binary exits nonzero, naming the row and the
// defect, if any check fails.
//
// Scales: SLP_AGG_MAX caps the largest size (default 1000000);
// SLP_BROKERS (default 64), SLP_SEED as usual. Prints tables and writes
// BENCH_agg.json (argv[1] or SLP_BENCH_AGG_JSON; default ./BENCH_agg.json).

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/agg/aggregation.h"
#include "src/core/assignment.h"
#include "src/workload/coverable.h"

namespace slp::bench {
namespace {

long PeakRssKb() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss;  // kilobytes on Linux
}

wl::Workload CoverableGrid(int m, int brokers, double fraction,
                           uint64_t seed) {
  wl::GridParams params;
  params.num_subscribers = m;
  params.num_brokers = brokers;
  params.seed = seed;
  wl::Workload w = wl::GenerateGrid(params);
  if (fraction > 0) {
    wl::CoverableOptions cover;
    cover.fraction = fraction;
    cover.dup_fraction = 0.6;
    Rng rng(seed * 7919 + 1);
    wl::MakeCoverable(&w, cover, rng);
  }
  return w;
}

wl::Workload CoverableGg(int m, int brokers, double fraction, uint64_t seed) {
  wl::Workload w = wl::GenerateGoogleGroupsVariant(
      wl::Level::kHigh, wl::Level::kLow, m, brokers, seed);
  if (fraction > 0) {
    wl::CoverableOptions cover;
    cover.fraction = fraction;
    cover.dup_fraction = 0.6;
    Rng rng(seed * 7919 + 2);
    wl::MakeCoverable(&w, cover, rng);
  }
  return w;
}

struct SolveRow {
  std::string workload;
  int subscribers = 0;
  double coverable_fraction = 0;
  double compression_ratio = 1;
  int aggregates = 0;
  double agg_seconds = 0;     // aggregate + compressed solve + expand
  double direct_seconds = 0;  // RunSlp on the full problem
  double agg_qt = 0;
  double direct_qt = 0;
  bool agg_latency_feasible = false;
  bool direct_latency_feasible = false;
  // Honest solve accounting. The dup-heavy coverable workloads make the
  // sampled LPs highly degenerate; at 1M a single solve can hit the
  // simplex pivot cap, which FilterAssign degrades to its budget-exhausted
  // best-effort path (coverage from Complete(), load from max-flow) rather
  // than failing. These flags say when a pipeline took that path.
  int agg_lp_calls = 0;
  int direct_lp_calls = 0;
  bool agg_budget_exhausted = false;
  bool direct_budget_exhausted = false;
  bool agg_cert_infeasible = false;  // pre-solve max-flow certificate fired
  int agg_repair_moves = 0;          // RepairExpandedLoad moves
  long agg_peak_rss_kb = 0;
  long peak_rss_kb = 0;
  // ValidateSolution verdicts (latency and load unchecked) of the expanded
  // and the direct solution.
  Status agg_valid;
  Status direct_valid;
};

// ValidateSolution without its latency and load checks: those are the
// rows' reported outcomes, not defects.
Status ValidateStructure(const core::SaProblem& problem,
                         const core::SaSolution& solution) {
  core::ValidationOptions options;
  options.check_latency = false;
  options.check_load = false;
  return core::ValidateSolution(problem, solution, options);
}

SolveRow RunSolve(const std::string& name, const wl::Workload& w,
                  double fraction, uint64_t seed) {
  SolveRow row;
  row.workload = name;
  row.subscribers = static_cast<int>(w.subscribers.size());
  row.coverable_fraction = fraction;

  core::SaConfig config;
  config.max_delay = 1.0;
  const core::SaProblem problem = MakeOneLevelProblem(w, config);

  // Both pipelines run with stock options — no pivot-cap tuning. On the
  // 1M dup-heavy instances a single sampled LP can be too degenerate to
  // finish within the cap; FilterAssign then degrades to its
  // budget-exhausted path instead of erroring, and the *_budget_exhausted
  // flags below record which rows took it.

  // Aggregated pipeline first (honest peak RSS; see header comment).
  {
    agg::AggregateSolveOptions options;
    // kTriangle keeps the pairwise check O(1); at these sizes the exact
    // rule's per-leaf scans would dominate the very cost being removed.
    options.agg.compat = agg::CompatRule::kTriangle;
    agg::AggregateSolveStats stats;
    Rng rng(seed);
    WallTimer timer;
    auto result = agg::AggregateSolve(problem, options, rng, &stats);
    row.agg_seconds = timer.Seconds();
    row.agg_peak_rss_kb = PeakRssKb();
    if (!result.ok()) {
      std::fprintf(stderr, "AggregateSolve failed: %s\n",
                   result.status().ToString().c_str());
      std::exit(1);
    }
    row.compression_ratio = stats.compression_ratio;
    row.aggregates = stats.aggregates;
    row.agg_lp_calls = stats.slp.lp_calls;
    row.agg_budget_exhausted = stats.slp.any_budget_exhausted;
    row.agg_cert_infeasible = stats.compressed_load_infeasible;
    row.agg_repair_moves = stats.repair_moves;
    row.agg_qt =
        core::ComputeMetrics(problem, result.value()).total_bandwidth;
    row.agg_latency_feasible = result.value().latency_feasible;
    row.agg_valid = ValidateStructure(problem, result.value());
  }

  {
    core::SlpStats stats;
    Rng rng(seed);
    WallTimer timer;
    auto result = core::RunSlp(problem, core::SlpOptions{}, rng, &stats);
    row.direct_seconds = timer.Seconds();
    if (!result.ok()) {
      std::fprintf(stderr, "RunSlp failed: %s\n",
                   result.status().ToString().c_str());
      std::exit(1);
    }
    row.direct_lp_calls = stats.lp_calls;
    row.direct_budget_exhausted = stats.any_budget_exhausted;
    row.direct_qt =
        core::ComputeMetrics(problem, result.value()).total_bandwidth;
    row.direct_latency_feasible = result.value().latency_feasible;
    row.direct_valid = ValidateStructure(problem, result.value());
  }

  row.peak_rss_kb = PeakRssKb();
  return row;
}

int Main(int argc, char** argv) {
  const char* env = std::getenv("SLP_BENCH_AGG_JSON");
  const std::string json_path =
      argc > 1 ? argv[1] : (env != nullptr ? env : "BENCH_agg.json");

  const int max_subs = EnvInt("SLP_AGG_MAX", 1000000);
  const int brokers = EnvInt("SLP_BROKERS", 64);
  const uint64_t seed = EnvSeed();
  const int small = std::min(100000, max_subs);

  PrintHeader("Aggregation layer (grid + GG coverable workloads, " +
              std::to_string(brokers) + " brokers)");

  std::vector<SolveRow> rows;
  // Sweep the knob that creates coverage at the small size...
  for (double fraction : {0.0, 0.4, 0.6, 0.8}) {
    rows.push_back(RunSolve("grid", CoverableGrid(small, brokers, fraction, seed),
                            fraction, seed));
  }
  rows.push_back(RunSolve("gg", CoverableGg(small, brokers, 0.6, seed), 0.6,
                          seed));
  // ...and the headline >= 50%-coverable comparison at the large size.
  if (max_subs > small) {
    rows.push_back(RunSolve(
        "grid", CoverableGrid(max_subs, brokers, 0.6, seed), 0.6, seed));
    rows.push_back(RunSolve("gg", CoverableGg(max_subs, brokers, 0.6, seed),
                            0.6, seed));
  }

  std::printf("%-6s %-9s %6s %8s %10s %10s %8s %10s %10s %7s %7s %10s\n",
              "wl", "subs", "cover", "ratio", "agg(s)", "direct(s)",
              "speedup", "agg-QT", "direct-QT", "agg-lp", "dir-lp",
              "peakRSS-MB");
  for (const SolveRow& r : rows) {
    // An 'x' suffix on an lp-call count marks a budget-exhausted
    // (best-effort) run of that pipeline.
    std::printf(
        "%-6s %-9d %6.2f %8.2f %10.2f %10.2f %8.2f %10.4f %10.4f %6d%c %6d%c "
        "%10.1f\n",
        r.workload.c_str(), r.subscribers, r.coverable_fraction,
        r.compression_ratio, r.agg_seconds, r.direct_seconds,
        r.agg_seconds > 0 ? r.direct_seconds / r.agg_seconds : 0, r.agg_qt,
        r.direct_qt, r.agg_lp_calls, r.agg_budget_exhausted ? 'x' : ' ',
        r.direct_lp_calls, r.direct_budget_exhausted ? 'x' : ' ',
        r.peak_rss_kb / 1024.0);
  }

  bool ok = true;
  for (const SolveRow& r : rows) {
    const auto fail = [&](const std::string& defect) {
      std::fprintf(stderr, "%s %d cover %.2f: %s\n", r.workload.c_str(),
                   r.subscribers, r.coverable_fraction, defect.c_str());
      ok = false;
    };
    if (!r.agg_valid.ok()) {
      fail("expanded solution invalid: " + r.agg_valid.ToString());
    }
    if (!r.direct_valid.ok()) {
      fail("direct solution invalid: " + r.direct_valid.ToString());
    }
    if (r.agg_latency_feasible != r.direct_latency_feasible) {
      fail("latency-feasibility verdicts differ");
    }
  }

  FILE* f = std::fopen(json_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n  \"brokers\": %d,\n  \"solve_rows\": [\n", brokers);
  for (size_t i = 0; i < rows.size(); ++i) {
    const SolveRow& r = rows[i];
    std::fprintf(f, "    {\n");
    std::fprintf(f, "      \"workload\": \"%s\",\n", r.workload.c_str());
    std::fprintf(f, "      \"subscribers\": %d,\n", r.subscribers);
    std::fprintf(f, "      \"coverable_fraction\": %.2f,\n",
                 r.coverable_fraction);
    std::fprintf(f, "      \"compression_ratio\": %.3f,\n",
                 r.compression_ratio);
    std::fprintf(f, "      \"aggregates\": %d,\n", r.aggregates);
    std::fprintf(f, "      \"agg_seconds\": %.3f,\n", r.agg_seconds);
    std::fprintf(f, "      \"direct_seconds\": %.3f,\n", r.direct_seconds);
    std::fprintf(f, "      \"speedup\": %.3f,\n",
                 r.agg_seconds > 0 ? r.direct_seconds / r.agg_seconds : 0);
    std::fprintf(f, "      \"agg_qt\": %.6f,\n", r.agg_qt);
    std::fprintf(f, "      \"direct_qt\": %.6f,\n", r.direct_qt);
    std::fprintf(f, "      \"qt_inflation\": %.4f,\n",
                 r.direct_qt > 0 ? r.agg_qt / r.direct_qt : 0);
    std::fprintf(f, "      \"agg_latency_feasible\": %s,\n",
                 r.agg_latency_feasible ? "true" : "false");
    std::fprintf(f, "      \"agg_lp_calls\": %d,\n", r.agg_lp_calls);
    std::fprintf(f, "      \"direct_lp_calls\": %d,\n", r.direct_lp_calls);
    std::fprintf(f, "      \"agg_budget_exhausted\": %s,\n",
                 r.agg_budget_exhausted ? "true" : "false");
    std::fprintf(f, "      \"direct_budget_exhausted\": %s,\n",
                 r.direct_budget_exhausted ? "true" : "false");
    std::fprintf(f, "      \"agg_cert_infeasible\": %s,\n",
                 r.agg_cert_infeasible ? "true" : "false");
    std::fprintf(f, "      \"agg_repair_moves\": %d,\n", r.agg_repair_moves);
    std::fprintf(f, "      \"agg_peak_rss_kb\": %ld,\n", r.agg_peak_rss_kb);
    std::fprintf(f, "      \"peak_rss_kb\": %ld\n", r.peak_rss_kb);
    std::fprintf(f, "    }%s\n", i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("\nwrote %s\n", json_path.c_str());

  if (!ok) {
    std::fprintf(stderr, "in-run checks FAILED\n");
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace slp::bench

int main(int argc, char** argv) { return slp::bench::Main(argc, argv); }
