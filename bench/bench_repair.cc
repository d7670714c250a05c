// Crash-tolerance benchmark (DESIGN.md §9): mass-failure repair and Q(T)
// inflation at 1% / 5% / 10% broker-failure rates on the grid workload.
//
// Two experiments per failure rate:
//  * mass failure — fail that fraction of leaf brokers at once on a
//    populated DynamicAssigner and drain the orphan backlog with one
//    DynamicAssigner::Repair pass (orphans repaired and degraded);
//  * fault replay — a seeded-random FaultPlan at the same rate interleaved
//    with an event stream, reporting missed deliveries by cause and the
//    Q(T) inflation of the online-repaired deployment against a fresh
//    offline Gr* over the surviving topology.
//
// Prints a table and writes BENCH_repair.json (path from argv[1] or
// SLP_BENCH_REPAIR_JSON; default ./BENCH_repair.json). The file holds
// counts and Q(T) only, no timing, so reruns reproduce it byte for byte.

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/dynamic.h"
#include "src/sim/fault_plan.h"

namespace slp::bench {
namespace {

struct MassFailureRow {
  double rate = 0;
  int leaves_failed = 0;
  int orphans = 0;
  int repaired = 0;
  int degraded = 0;
};

struct ReplayRow {
  double rate = 0;
  int total_orphaned = 0;
  int total_repaired = 0;
  int total_degraded = 0;
  int64_t missed_live = 0;
  int64_t missed_outage = 0;
  double qt_final = 0;
  double qt_fresh = 0;
  double qt_inflation = 0;
};

core::DynamicAssigner PopulatedAssigner(const wl::Workload& w,
                                        const core::SaConfig& config,
                                        uint64_t seed) {
  Rng tree_rng(seed);
  net::BrokerTree tree =
      net::BuildMultiLevelTree(w.publisher, w.broker_locations, 15, tree_rng);
  core::DynamicAssigner dyn(std::move(tree), config,
                            static_cast<int>(w.subscribers.size()));
  for (const auto& s : w.subscribers) {
    auto r = dyn.Add(s);
    if (!r.ok()) {
      std::fprintf(stderr, "Add failed: %s\n", r.status().ToString().c_str());
      std::exit(1);
    }
  }
  return dyn;
}

int Main(int argc, char** argv) {
  const char* env = std::getenv("SLP_BENCH_REPAIR_JSON");
  const std::string json_path =
      argc > 1 ? argv[1] : (env != nullptr ? env : "BENCH_repair.json");

  const int subs = EnvInt("SLP_SUBS", 5000);
  const int brokers = EnvInt("SLP_BROKERS", 100);
  const int num_events = EnvInt("SLP_EVENTS", 2000);
  const uint64_t seed = EnvSeed();

  wl::GridParams params;
  params.num_subscribers = subs;
  params.num_brokers = brokers;
  params.seed = seed;
  const wl::Workload w = wl::GenerateGrid(params);

  core::SaConfig config;
  config.max_delay = 1.0;

  PrintHeader("Broker-failure repair (grid workload, " +
              std::to_string(subs) + " subscribers, " +
              std::to_string(brokers) + " brokers)");

  const std::vector<double> rates = {0.01, 0.05, 0.10};
  std::vector<MassFailureRow> mass_rows;
  std::vector<ReplayRow> replay_rows;

  // ---- Experiment 1: mass-failure repair ----
  std::printf("%-6s %8s %8s %9s %9s\n", "rate", "failed", "orphans",
              "repaired", "degraded");
  for (double rate : rates) {
    core::DynamicAssigner dyn = PopulatedAssigner(w, config, seed);
    const std::vector<int> leaves = dyn.tree().live_leaf_brokers();
    const int kill = std::max(
        1, static_cast<int>(std::ceil(rate * static_cast<double>(
                                                 leaves.size()))));
    Rng pick_rng(seed + 17);
    const std::vector<int> victims = UniformSampleWithoutReplacement(
        static_cast<int>(leaves.size()), kill, pick_rng);

    MassFailureRow row;
    row.rate = rate;
    row.leaves_failed = kill;
    for (int v : victims) {
      const auto st = dyn.FailBroker(leaves[v]);
      if (!st.ok()) {
        std::fprintf(stderr, "FailBroker: %s\n", st.ToString().c_str());
        std::exit(1);
      }
    }
    row.orphans = static_cast<int>(dyn.orphans().size());

    const core::RepairReport report = dyn.Repair();
    row.repaired = report.repaired;
    row.degraded = report.degraded;
    std::printf("%-6.2f %8d %8d %9d %9d\n", rate, row.leaves_failed,
                row.orphans, row.repaired, row.degraded);
    mass_rows.push_back(row);
  }

  // ---- Experiment 2: fault replay with Q(T) inflation ----
  std::printf("\n%-6s %9s %9s %9s %8s %8s %9s %9s %10s\n", "rate",
              "orphaned", "repaired", "degraded", "miss_lv", "miss_out",
              "qt_final", "qt_fresh", "inflation");
  for (double rate : rates) {
    core::DynamicAssigner dyn = PopulatedAssigner(w, config, seed);
    Rng plan_rng(seed + 29);
    const sim::FaultPlan plan = sim::FaultPlan::SeededRandom(
        dyn.tree(), num_events, rate, num_events / 4, plan_rng);

    Rng event_rng(seed + 31);
    std::vector<geo::Point> events;
    events.reserve(num_events);
    for (int i = 0; i < num_events; ++i) {
      events.push_back({event_rng.Uniform(0, 1), event_rng.Uniform(0, 1)});
    }

    sim::FaultReplayOptions options;
    options.epoch_length = 200;
    Rng rng(seed + 37);
    const auto replay = sim::ReplayWithFaults(dyn, plan, events, options, rng);
    if (!replay.ok()) {
      std::fprintf(stderr, "replay failed: %s\n",
                   replay.status().ToString().c_str());
      std::exit(1);
    }
    const sim::FaultReplayResult& r = replay.value();

    ReplayRow row;
    row.rate = rate;
    row.total_orphaned = r.total_orphaned;
    row.total_repaired = r.total_repaired;
    row.total_degraded = r.total_degraded_placed;
    row.missed_live = r.missed_live;
    row.missed_outage = r.missed_outage;
    row.qt_final = r.qt_final;
    row.qt_fresh = r.qt_fresh;
    row.qt_inflation = r.qt_inflation;
    std::printf("%-6.2f %9d %9d %9d %8lld %8lld %9.4f %9.4f %10.3f\n", rate,
                row.total_orphaned, row.total_repaired, row.total_degraded,
                static_cast<long long>(row.missed_live),
                static_cast<long long>(row.missed_outage), row.qt_final,
                row.qt_fresh, row.qt_inflation);
    replay_rows.push_back(row);
  }

  FILE* f = std::fopen(json_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n  \"workload\": \"grid\",\n");
  std::fprintf(f, "  \"subscribers\": %d,\n  \"brokers\": %d,\n", subs,
               brokers);
  std::fprintf(f, "  \"mass_failure\": [\n");
  for (size_t i = 0; i < mass_rows.size(); ++i) {
    const MassFailureRow& r = mass_rows[i];
    std::fprintf(f,
                 "    {\"rate\": %.2f, \"leaves_failed\": %d, \"orphans\": "
                 "%d, \"repaired\": %d, \"degraded\": %d}%s\n",
                 r.rate, r.leaves_failed, r.orphans, r.repaired, r.degraded,
                 i + 1 < mass_rows.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"fault_replay\": [\n");
  for (size_t i = 0; i < replay_rows.size(); ++i) {
    const ReplayRow& r = replay_rows[i];
    std::fprintf(
        f,
        "    {\"rate\": %.2f, \"total_orphaned\": %d, \"total_repaired\": "
        "%d, \"total_degraded\": %d, \"missed_live\": %lld, "
        "\"missed_outage\": %lld, \"qt_final\": %.6f, \"qt_fresh\": %.6f, "
        "\"qt_inflation\": %.4f}%s\n",
        r.rate, r.total_orphaned, r.total_repaired, r.total_degraded,
        static_cast<long long>(r.missed_live),
        static_cast<long long>(r.missed_outage), r.qt_final, r.qt_fresh,
        r.qt_inflation,
        i + 1 < replay_rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("\nwrote %s\n", json_path.c_str());
  return 0;
}

}  // namespace
}  // namespace slp::bench

int main(int argc, char** argv) { return slp::bench::Main(argc, argv); }
