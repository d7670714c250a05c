// Churn / soft-state liveness benchmark (DESIGN.md §13): what the lease
// parameters buy and what they cost.
//
// Two experiments on the grid workload:
//  * lease sweep — a mixed plan (sustained crash/recover churn + slow
//    heartbeat-missing brokers) replayed under three lease settings from
//    hair-trigger to conservative. Aggressive leases detect crashes fast
//    but falsely suspect (and prematurely evacuate) slow brokers;
//    conservative leases never evacuate a healthy broker but pay for it in
//    detection latency and events lost undetected. Both ends of the dial
//    are measured outputs of the same replay.
//  * Q(T) inflation — one sustained-churn (down/up only) plan replayed
//    under the default oracle lease (crash-stop: every crash detected on
//    its tick) and under a balanced lease: the extra filter inflation and
//    misses the detector's latency adds to the online-repaired
//    deployment, against the same fresh Gr* baseline.
//
// Prints tables and writes BENCH_churn.json (path from argv[1] or
// SLP_BENCH_CHURN_JSON; default ./BENCH_churn.json).

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/dynamic.h"
#include "src/liveness/liveness_tracker.h"
#include "src/sim/churn_scenarios.h"
#include "src/sim/fault_plan.h"

namespace slp::bench {
namespace {

struct LeaseRow {
  std::string name;
  liveness::LeaseConfig lease;
  int detections = 0;
  double mean_detection_latency = 0;
  int max_detection_latency = 0;
  int false_suspicions = 0;
  int premature_evacuations = 0;
  int64_t missed_undetected = 0;
  int64_t missed_live = 0;
  int lease_expirations = 0;
  int reconnects = 0;
  double qt_inflation = 0;
};

struct ModeRow {
  std::string mode;
  int64_t deliveries = 0;
  int64_t missed_live = 0;
  int64_t missed_outage = 0;
  int64_t missed_undetected = 0;
  int total_orphaned = 0;
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

std::vector<geo::Point> UniformEvents(int n, uint64_t seed) {
  Rng rng(seed);
  std::vector<geo::Point> events;
  events.reserve(n);
  for (int i = 0; i < n; ++i) {
    events.push_back({rng.Uniform(0, 1), rng.Uniform(0, 1)});
  }
  return events;
}

sim::FaultReplayResult RunReplay(core::DynamicAssigner& dyn,
                                 const sim::FaultPlan& plan,
                                 const std::vector<geo::Point>& events,
                                 const sim::FaultReplayOptions& options,
                                 uint64_t seed) {
  Rng rng(seed);
  auto replay = sim::ReplayWithFaults(dyn, plan, events, options, rng);
  if (!replay.ok()) {
    std::fprintf(stderr, "replay failed: %s\n",
                 replay.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(replay).value();
}

double MeanLatency(const std::vector<int>& latencies) {
  if (latencies.empty()) return 0;
  double sum = 0;
  for (int l : latencies) sum += l;
  return sum / static_cast<double>(latencies.size());
}

int Main(int argc, char** argv) {
  const char* env = std::getenv("SLP_BENCH_CHURN_JSON");
  const std::string json_path =
      argc > 1 ? argv[1] : (env != nullptr ? env : "BENCH_churn.json");

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

  PrintHeader("Soft-state liveness under churn (grid workload, " +
              std::to_string(subs) + " subscribers, " +
              std::to_string(brokers) + " brokers)");

  // ---- Experiment 1: lease sweep on a mixed churn plan ----
  //
  // The same ground truth for every row: 5% of brokers crash/recover twice,
  // another 5% are alive but miss heartbeat deadlines on a duty cycle, and
  // 2% of clients bounce offline long enough to expire their leases.
  const std::vector<geo::Point> events = UniformEvents(num_events, seed + 31);
  std::vector<LeaseRow> lease_rows;
  {
    liveness::LeaseConfig aggressive;
    aggressive.heartbeat_interval = 1;
    aggressive.miss_suspect = 1;
    aggressive.miss_dead = 2;
    aggressive.subscriber_interval = 4;
    aggressive.subscriber_miss_dead = 4;
    liveness::LeaseConfig balanced;
    balanced.heartbeat_interval = 2;
    balanced.miss_suspect = 2;
    balanced.miss_dead = 4;
    balanced.subscriber_interval = 4;
    balanced.subscriber_miss_dead = 4;
    liveness::LeaseConfig conservative;
    conservative.heartbeat_interval = 4;
    conservative.miss_suspect = 3;
    conservative.miss_dead = 6;
    conservative.subscriber_interval = 8;
    conservative.subscriber_miss_dead = 4;

    std::printf(
        "%-13s %6s %9s %9s %9s %9s %10s %8s %8s %10s\n", "lease", "deaths",
        "mean_lat", "max_lat", "false_sp", "premature", "undetected",
        "expired", "reconn", "inflation");
    for (const auto& [name, lease] :
         std::vector<std::pair<std::string, liveness::LeaseConfig>>{
             {"aggressive", aggressive},
             {"balanced", balanced},
             {"conservative", conservative}}) {
      core::DynamicAssigner dyn = PopulatedAssigner(w, config, seed);
      // Rebuild the identical plan per row (generation consumes the rng).
      Rng churn_rng(seed + 41);
      const sim::FaultPlan churn = sim::SustainedChurn(
          dyn.tree(), num_events, 0.05, num_events / 8, 2, churn_rng);
      Rng slow_rng(seed + 43);
      const sim::FaultPlan slow = sim::SlowBrokers(
          dyn.tree(), num_events, 0.05, num_events / 10, 8, slow_rng);
      Rng flaky_rng(seed + 47);
      const sim::FaultPlan flaky = sim::FlakyClients(
          subs, num_events, 0.02, num_events / 16, 2, flaky_rng);
      std::vector<sim::FaultEvent> merged = churn.events();
      merged.insert(merged.end(), slow.events().begin(), slow.events().end());
      const sim::FaultPlan plan = sim::FaultPlan::Scripted(
          std::move(merged), flaky.client_events());

      sim::FaultReplayOptions options;
      options.epoch_length = num_events / 10;
      options.lease = lease;
      const sim::FaultReplayResult r =
          RunReplay(dyn, plan, events, options, seed + 37);

      LeaseRow row;
      row.name = name;
      row.lease = lease;
      row.detections = static_cast<int>(r.detection_latency.size());
      row.mean_detection_latency = MeanLatency(r.detection_latency);
      for (int l : r.detection_latency) {
        row.max_detection_latency = std::max(row.max_detection_latency, l);
      }
      row.false_suspicions = r.false_suspicions;
      row.premature_evacuations = r.premature_evacuations;
      row.missed_undetected = r.missed_undetected;
      row.missed_live = r.missed_live;
      row.lease_expirations = r.lease_expirations;
      row.reconnects = r.reconnects;
      row.qt_inflation = r.qt_inflation;
      std::printf("%-13s %6d %9.1f %9d %9d %9d %10lld %8d %8d %10.3f\n",
                  name.c_str(), row.detections, row.mean_detection_latency,
                  row.max_detection_latency, row.false_suspicions,
                  row.premature_evacuations,
                  static_cast<long long>(row.missed_undetected),
                  row.lease_expirations, row.reconnects, row.qt_inflation);
      if (row.missed_live != 0) {
        std::fprintf(stderr, "missed_live != 0 under lease %s\n",
                     name.c_str());
        return 1;
      }
      lease_rows.push_back(row);
    }
  }

  // ---- Experiment 2: Q(T) inflation — lease detection vs crash-stop ----
  std::vector<ModeRow> mode_rows;
  {
    std::printf("\n%-11s %10s %9s %9s %10s %9s %9s %9s %10s\n", "mode",
                "delivered", "miss_lv", "miss_out", "undetected", "orphaned",
                "qt_final", "qt_fresh", "inflation");
    // The crash-stop row keeps the default (oracle) lease.
    for (const bool staleness : {false, true}) {
      core::DynamicAssigner dyn = PopulatedAssigner(w, config, seed);
      Rng plan_rng(seed + 29);
      const sim::FaultPlan plan = sim::SustainedChurn(
          dyn.tree(), num_events, 0.10, num_events / 8, 2, plan_rng);
      sim::FaultReplayOptions options;
      options.epoch_length = num_events / 10;
      if (staleness) {
        liveness::LeaseConfig lease;
        lease.heartbeat_interval = 2;
        lease.miss_suspect = 2;
        lease.miss_dead = 4;
        lease.subscriber_interval = 4;
        lease.subscriber_miss_dead = 4;
        options.lease = lease;
      }
      const sim::FaultReplayResult r =
          RunReplay(dyn, plan, events, options, seed + 37);

      ModeRow row;
      row.mode = staleness ? "staleness" : "crash-stop";
      row.deliveries = r.stats.deliveries;
      row.missed_live = r.missed_live;
      row.missed_outage = r.missed_outage;
      row.missed_undetected = r.missed_undetected;
      row.total_orphaned = r.total_orphaned;
      row.qt_final = r.qt_final;
      row.qt_fresh = r.qt_fresh;
      row.qt_inflation = r.qt_inflation;
      std::printf("%-11s %10lld %9lld %9lld %10lld %9d %9.4f %9.4f %10.3f\n",
                  row.mode.c_str(), static_cast<long long>(row.deliveries),
                  static_cast<long long>(row.missed_live),
                  static_cast<long long>(row.missed_outage),
                  static_cast<long long>(row.missed_undetected),
                  row.total_orphaned, row.qt_final, row.qt_fresh,
                  row.qt_inflation);
      if (row.missed_live != 0) {
        std::fprintf(stderr, "missed_live != 0 in %s mode\n",
                     row.mode.c_str());
        return 1;
      }
      mode_rows.push_back(row);
    }
  }

  FILE* f = std::fopen(json_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n  \"workload\": \"grid\",\n");
  std::fprintf(f, "  \"subscribers\": %d,\n  \"brokers\": %d,\n", subs,
               brokers);
  std::fprintf(f, "  \"events\": %d,\n", num_events);
  std::fprintf(f, "  \"lease_sweep\": [\n");
  for (size_t i = 0; i < lease_rows.size(); ++i) {
    const LeaseRow& r = lease_rows[i];
    std::fprintf(
        f,
        "    {\"lease\": \"%s\", \"heartbeat_interval\": %lld, "
        "\"miss_suspect\": %d, \"miss_dead\": %d, \"detections\": %d, "
        "\"mean_detection_latency\": %.2f, \"max_detection_latency\": %d, "
        "\"false_suspicions\": %d, \"premature_evacuations\": %d, "
        "\"missed_undetected\": %lld, \"missed_live\": %lld, "
        "\"lease_expirations\": %d, \"reconnects\": %d, "
        "\"qt_inflation\": %.4f}%s\n",
        r.name.c_str(), static_cast<long long>(r.lease.heartbeat_interval),
        r.lease.miss_suspect, r.lease.miss_dead, r.detections,
        r.mean_detection_latency, r.max_detection_latency,
        r.false_suspicions, r.premature_evacuations,
        static_cast<long long>(r.missed_undetected),
        static_cast<long long>(r.missed_live), r.lease_expirations,
        r.reconnects, r.qt_inflation,
        i + 1 < lease_rows.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"qt_under_churn\": [\n");
  for (size_t i = 0; i < mode_rows.size(); ++i) {
    const ModeRow& r = mode_rows[i];
    std::fprintf(
        f,
        "    {\"mode\": \"%s\", \"deliveries\": %lld, \"missed_live\": "
        "%lld, \"missed_outage\": %lld, \"missed_undetected\": %lld, "
        "\"total_orphaned\": %d, \"qt_final\": %.6f, \"qt_fresh\": %.6f, "
        "\"qt_inflation\": %.4f}%s\n",
        r.mode.c_str(), static_cast<long long>(r.deliveries),
        static_cast<long long>(r.missed_live),
        static_cast<long long>(r.missed_outage),
        static_cast<long long>(r.missed_undetected), r.total_orphaned,
        r.qt_final, r.qt_fresh, r.qt_inflation,
        i + 1 < mode_rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("\nwrote %s\n", json_path.c_str());
  return 0;
}

}  // namespace
}  // namespace slp::bench

int main(int argc, char** argv) { return slp::bench::Main(argc, argv); }
