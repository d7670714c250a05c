// Matching benchmark (DESIGN.md §11): events/sec of Simulate's routing
// kernel, single thread and sharded over the shared thread pool, on a
// large grid workload (defaults: 1000 brokers, 100k subscribers,
// multi-level tree with the paper's out-degree 15). Index build cost is
// included in both timings.
//
// The solution is a fast hand-rolled nearest-leaf assignment with exact
// MEB path filters — coverage and nesting hold by construction, so the
// stream must route with zero missed deliveries, and the sharded run must
// produce stats bit-identical to the serial one (both checked here; the
// full differential against a brute-force router lives in
// tests/match_test). Events come from deterministic per-shard Rng::Fork
// substreams, so the stream is identical regardless of how it is later
// sharded.
//
// Prints a table and writes BENCH_match.json (path from argv[1] or
// SLP_BENCH_MATCH_JSON; default ./BENCH_match.json).

#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/parallel.h"
#include "src/geometry/rectangle.h"
#include "src/sim/dissemination.h"

namespace slp::bench {
namespace {

// Nearest-live-leaf assignment + exact MEB filters, bottom-up. Much
// faster than the paper's algorithms at 100k subscribers, and produces a
// covering + nested deployment, which is all the matching benchmark
// needs.
core::SaSolution NearestLeafSolution(const core::SaProblem& problem) {
  const net::BrokerTree& tree = problem.tree();
  const int m = problem.num_subscribers();
  core::SaSolution s;
  s.algorithm = "nearest-leaf";
  s.assignment.assign(m, -1);

  const std::vector<int>& leaves = tree.leaf_brokers();
  for (int j = 0; j < m; ++j) {
    const geo::Point& loc = problem.subscriber(j).location;
    double best = 0;
    int best_leaf = -1;
    for (int leaf : leaves) {
      const double d = geo::DistanceSquared(loc, tree.location(leaf));
      if (best_leaf < 0 || d < best) {
        best = d;
        best_leaf = leaf;
      }
    }
    s.assignment[j] = best_leaf;
  }

  // Leaf filters: MEB of the leaf's subscriptions. Internal filters: MEB
  // of the children's filters (nesting by construction). Nodes are
  // processed children-before-parent via reverse BFS order.
  const int n = tree.num_nodes();
  std::vector<bool> has_rect(n, false);
  std::vector<geo::Rectangle> rect(n);
  for (int j = 0; j < m; ++j) {
    const int leaf = s.assignment[j];
    const geo::Rectangle& sub = problem.subscriber(j).subscription;
    if (!has_rect[leaf]) {
      rect[leaf] = sub;
      has_rect[leaf] = true;
    } else {
      rect[leaf].Enclose(sub);
    }
  }
  std::vector<int> order;
  order.reserve(n);
  order.push_back(net::BrokerTree::kPublisher);
  for (size_t i = 0; i < order.size(); ++i) {
    for (int c : tree.children(order[i])) order.push_back(c);
  }
  for (size_t i = order.size(); i-- > 0;) {
    const int v = order[i];
    for (int c : tree.children(v)) {
      if (!has_rect[c]) continue;
      if (!has_rect[v]) {
        rect[v] = rect[c];
        has_rect[v] = true;
      } else {
        rect[v].Enclose(rect[c]);
      }
    }
  }
  s.filters.assign(n, geo::Filter());
  for (int v = 0; v < n; ++v) {
    if (v != net::BrokerTree::kPublisher && has_rect[v]) {
      s.filters[v] = geo::Filter({rect[v]});
    }
  }
  return s;
}

bool StatsEqual(const sim::DisseminationStats& a,
                const sim::DisseminationStats& b) {
  return a.events == b.events && a.total_messages == b.total_messages &&
         a.deliveries == b.deliveries &&
         a.wasted_leaf_hits == b.wasted_leaf_hits &&
         a.missed_deliveries == b.missed_deliveries &&
         a.unplaced_subscribers == b.unplaced_subscribers &&
         a.broker_hits == b.broker_hits;
}

int Main(int argc, char** argv) {
  const char* env = std::getenv("SLP_BENCH_MATCH_JSON");
  const std::string json_path =
      argc > 1 ? argv[1] : (env != nullptr ? env : "BENCH_match.json");

  const int subs = EnvInt("SLP_SUBS", 100000);
  const int brokers = EnvInt("SLP_BROKERS", 1000);
  const int num_events = EnvInt("SLP_EVENTS", 20000);
  // Default shard count: the machine's cores, capped at 8 (on a 1-core
  // box the sharded row then honestly shows pool overhead, not parallel
  // gain).
  const int default_shards = std::clamp(
      static_cast<int>(std::thread::hardware_concurrency()), 2, 8);
  const int num_shards = EnvInt("SLP_SHARDS", default_shards);
  const uint64_t seed = EnvSeed();

  wl::GridParams params;
  params.num_subscribers = subs;
  params.num_brokers = brokers;
  params.seed = seed;
  wl::Workload w = wl::GenerateGrid(params);
  core::SaConfig config;
  config.max_delay = 1.0;
  core::SaProblem problem =
      MakeMultiLevelProblem(std::move(w), config, 15, seed);

  WallTimer solve_timer;
  const core::SaSolution solution = NearestLeafSolution(problem);
  const double solve_seconds = solve_timer.Seconds();

  // Deterministic per-shard event substreams: shard i draws its chunk
  // from rng.Fork(i), so the concatenated stream does not depend on how
  // the simulator later shards it.
  std::vector<geo::Point> events;
  events.reserve(num_events);
  {
    Rng rng(seed + 7);
    for (int s = 0; s < num_shards; ++s) {
      Rng sub = rng.Fork(static_cast<uint64_t>(s));
      const int begin = static_cast<int>(
          static_cast<int64_t>(num_events) * s / num_shards);
      const int end = static_cast<int>(
          static_cast<int64_t>(num_events) * (s + 1) / num_shards);
      for (int i = begin; i < end; ++i) {
        events.push_back({sub.Uniform(0, 1), sub.Uniform(0, 1)});
      }
    }
  }

  PrintHeader("Matching (grid workload, " + std::to_string(subs) +
              " subscribers, " + std::to_string(brokers) + " brokers)");
  std::printf("nearest-leaf solve: %.2fs; stream: %d events\n\n",
              solve_seconds, num_events);

  WallTimer idx_timer;
  const sim::DisseminationStats serial =
      sim::Simulate(problem, solution, events, {1});
  const double idx_seconds = idx_timer.Seconds();
  const double idx_eps = num_events / idx_seconds;

  WallTimer shard_timer;
  const sim::DisseminationStats sharded =
      sim::Simulate(problem, solution, events, {num_shards});
  const double shard_seconds = shard_timer.Seconds();
  const double shard_eps = num_events / shard_seconds;

  const bool no_misses = serial.missed_deliveries == 0;
  if (!no_misses) {
    std::fprintf(stderr, "nearest-leaf solution missed %lld deliveries\n",
                 static_cast<long long>(serial.missed_deliveries));
  }
  const bool sharded_ok = StatsEqual(serial, sharded);
  if (!sharded_ok) {
    std::fprintf(stderr, "SHARDED MISMATCH (%d shards)\n", num_shards);
  }

  std::printf("%-22s %10s %14s\n", "routing", "events", "events/sec");
  std::printf("%-22s %10d %14.0f\n", "serial", num_events, idx_eps);
  std::printf("%-22s %10d %14.0f\n",
              ("sharded x" + std::to_string(num_shards)).c_str(), num_events,
              shard_eps);
  std::printf("\nmissed deliveries: %lld; sharded == serial: %s\n",
              static_cast<long long>(serial.missed_deliveries),
              sharded_ok ? "identical" : "MISMATCH");

  FILE* f = std::fopen(json_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n  \"workload\": \"grid\",\n");
  std::fprintf(f, "  \"subscribers\": %d,\n  \"brokers\": %d,\n", subs,
               brokers);
  std::fprintf(f, "  \"events\": %d,\n", num_events);
  std::fprintf(f, "  \"num_shards\": %d,\n", num_shards);
  std::fprintf(f, "  \"indexed_events_per_sec\": %.1f,\n", idx_eps);
  std::fprintf(f, "  \"sharded_events_per_sec\": %.1f,\n", shard_eps);
  std::fprintf(f, "  \"missed_deliveries\": %lld,\n",
               static_cast<long long>(serial.missed_deliveries));
  std::fprintf(f, "  \"sharded_identical\": %s\n",
               sharded_ok ? "true" : "false");
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote %s\n", json_path.c_str());
  return no_misses && sharded_ok ? 0 : 1;
}

}  // namespace
}  // namespace slp::bench

int main(int argc, char** argv) { return slp::bench::Main(argc, argv); }
