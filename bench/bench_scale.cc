// Million-subscriber scale benchmark (DESIGN.md §12): wall time and memory
// of the SLP pipeline at 100k and 1M subscribers on the grid workload.
//
// Two sections per size:
//  * end-to-end SLP over the multi-level tree (paper out-degree 15) —
//    serial vs sharded, asserted bit-identical in-run. The workload is
//    moved into the problem, so the section holds it once;
//  * dynamic arrivals — one AddBatch of every subscriber, from a second
//    draw of the same workload. Add is an AddBatch of one, so a single
//    row times both; DynamicTest.AddBatchMatchesSequentialAddFuzz checks
//    that identity.
//
// Memory is the process peak RSS (getrusage ru_maxrss, monotone across
// the run — the 1M row's value is the honest pipeline peak).
//
// Scales: SLP_SCALE_MAX caps the largest size (default 1000000);
// SLP_BROKERS (default 100), SLP_SHARDS (default 8), SLP_SEED as usual.
// Prints a table and writes BENCH_scale.json (argv[1] or
// SLP_BENCH_SCALE_JSON; default ./BENCH_scale.json).

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/dynamic.h"

namespace slp::bench {
namespace {

long PeakRssKb() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss;  // kilobytes on Linux
}

bool SolutionsIdentical(const core::SaSolution& a, const core::SaSolution& b) {
  if (a.assignment != b.assignment) return false;
  if (a.load_feasible != b.load_feasible) return false;
  if (a.filters.size() != b.filters.size()) return false;
  for (size_t v = 0; v < a.filters.size(); ++v) {
    if (!(a.filters[v].rects() == b.filters[v].rects())) return false;
  }
  return a.fractional_lower_bound == b.fractional_lower_bound;
}

struct Row {
  int subscribers = 0;
  int brokers = 0;
  double gen_seconds = 0;
  double slp_serial_seconds = 0;
  double slp_sharded_seconds = 0;
  bool slp_sharded_identical = false;
  double add_batch_seconds = 0;
  int64_t add_batch_scans = 0;
  bool add_batch_admitted_all = false;
  long peak_rss_kb = 0;
};

wl::Workload GridWorkload(int m, int brokers, uint64_t seed) {
  wl::GridParams params;
  params.num_subscribers = m;
  params.num_brokers = brokers;
  params.seed = seed;
  return wl::GenerateGrid(params);
}

Row RunSize(int m, int brokers, int shards, uint64_t seed) {
  Row row;
  row.subscribers = m;
  row.brokers = brokers;

  // ---- End-to-end SLP: serial vs sharded ----
  {
    WallTimer gen_timer;
    wl::Workload w = GridWorkload(m, brokers, seed);
    row.gen_seconds = gen_timer.Seconds();
    core::SaConfig config;
    config.max_delay = 1.0;
    const core::SaProblem problem =
        MakeMultiLevelProblem(std::move(w), config, 15, seed);

    core::SlpOptions serial;
    serial.num_threads = 1;
    Rng rng_serial(seed);
    WallTimer serial_timer;
    auto a = core::RunSlp(problem, serial, rng_serial);
    row.slp_serial_seconds = serial_timer.Seconds();

    core::SlpOptions sharded;
    sharded.num_threads = 0;
    sharded.num_shards = shards;
    Rng rng_sharded(seed);
    WallTimer sharded_timer;
    auto b = core::RunSlp(problem, sharded, rng_sharded);
    row.slp_sharded_seconds = sharded_timer.Seconds();

    row.slp_sharded_identical =
        a.ok() && b.ok() && SolutionsIdentical(a.value(), b.value());
    if (!a.ok() || !b.ok()) {
      std::fprintf(stderr, "SLP failed at m=%d: %s\n", m,
                   (a.ok() ? b : a).status().ToString().c_str());
    }
  }

  // ---- Dynamic arrivals: one AddBatch ----
  {
    const wl::Workload w = GridWorkload(m, brokers, seed);
    net::BrokerTree tree =
        net::BuildOneLevelTree(w.publisher, w.broker_locations);
    core::SaConfig dyn_config;
    dyn_config.max_delay = 3.0;
    // Caps below the arrival count so the escalation ladder is exercised.
    core::DynamicAssigner dyn(std::move(tree), dyn_config, m / 2);

    WallTimer bat_timer;
    auto handles = dyn.AddBatch(w.subscribers);
    row.add_batch_seconds = bat_timer.Seconds();
    row.add_batch_scans = dyn.add_stats().escalation_scans;
    row.add_batch_admitted_all = handles.ok() && dyn.population() == m;
  }

  row.peak_rss_kb = PeakRssKb();
  return row;
}

int Main(int argc, char** argv) {
  const char* env = std::getenv("SLP_BENCH_SCALE_JSON");
  const std::string json_path =
      argc > 1 ? argv[1] : (env != nullptr ? env : "BENCH_scale.json");

  const int max_subs = EnvInt("SLP_SCALE_MAX", 1000000);
  const int brokers = EnvInt("SLP_BROKERS", 100);
  const int shards = EnvInt("SLP_SHARDS", 8);
  const uint64_t seed = EnvSeed();

  std::vector<int> sizes = {100000, 1000000};
  sizes.erase(std::remove_if(sizes.begin(), sizes.end(),
                             [&](int s) { return s > max_subs; }),
              sizes.end());
  if (sizes.empty()) sizes.push_back(max_subs);

  PrintHeader("Scale pipeline (grid workload, " + std::to_string(brokers) +
              " brokers, " + std::to_string(shards) + " shards)");

  std::vector<Row> rows;
  for (int m : sizes) rows.push_back(RunSize(m, brokers, shards, seed));

  std::printf("%-10s %12s %12s %12s %10s\n", "subs", "slp-ser(s)",
              "slp-shard(s)", "add-batch(s)", "peakRSS-MB");
  for (const Row& r : rows) {
    std::printf("%-10d %12.2f %12.2f %12.2f %10.1f\n", r.subscribers,
                r.slp_serial_seconds, r.slp_sharded_seconds,
                r.add_batch_seconds, r.peak_rss_kb / 1024.0);
  }

  bool all_checks = true;
  for (const Row& r : rows) {
    all_checks &= r.slp_sharded_identical && r.add_batch_admitted_all;
    std::printf(
        "m=%d checks: sharded-slp identical %s, addbatch admitted all %s "
        "(scans %lld)\n",
        r.subscribers, r.slp_sharded_identical ? "ok" : "FAIL",
        r.add_batch_admitted_all ? "ok" : "FAIL",
        static_cast<long long>(r.add_batch_scans));
  }

  FILE* f = std::fopen(json_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n  \"workload\": \"grid\",\n");
  std::fprintf(f, "  \"brokers\": %d,\n  \"num_shards\": %d,\n", brokers,
               shards);
  std::fprintf(f, "  \"rows\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(f, "    {\n");
    std::fprintf(f, "      \"subscribers\": %d,\n", r.subscribers);
    std::fprintf(f, "      \"gen_seconds\": %.3f,\n", r.gen_seconds);
    std::fprintf(f, "      \"slp_serial_seconds\": %.2f,\n",
                 r.slp_serial_seconds);
    std::fprintf(f, "      \"slp_sharded_seconds\": %.2f,\n",
                 r.slp_sharded_seconds);
    std::fprintf(f, "      \"slp_sharded_identical\": %s,\n",
                 r.slp_sharded_identical ? "true" : "false");
    std::fprintf(f, "      \"add_batch_seconds\": %.2f,\n",
                 r.add_batch_seconds);
    std::fprintf(f, "      \"add_batch_escalation_scans\": %lld,\n",
                 static_cast<long long>(r.add_batch_scans));
    std::fprintf(f, "      \"peak_rss_kb\": %ld\n", r.peak_rss_kb);
    std::fprintf(f, "    }%s\n", i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", json_path.c_str());
  return all_checks ? 0 : 1;
}

}  // namespace
}  // namespace slp::bench

int main(int argc, char** argv) { return slp::bench::Main(argc, argv); }
