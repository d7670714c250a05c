// Micro-benchmarks for the substrates (google-benchmark): simplex, the
// assignment-flow kernel (Dinic), union volume, candidate filter
// generation, k-means. These are not paper figures; they document the
// cost of the building blocks.

#include <algorithm>
#include <utility>
#include <vector>

#include <benchmark/benchmark.h>

#include "src/common/random.h"
#include "src/core/assignment_flow.h"
#include "src/core/candidates.h"
#include "src/core/filter_gen.h"
#include "src/core/slp.h"
#include "src/geometry/clustering.h"
#include "src/geometry/filter.h"
#include "src/geometry/union_volume.h"
#include "src/lp/simplex.h"
#include "src/network/tree_builder.h"
#include "src/workload/googlegroups.h"

namespace {

using namespace slp;

void BM_SimplexAssignmentLp(benchmark::State& state) {
  // A covering/packing LP shaped like LPRelax: n items, t targets.
  const int items = static_cast<int>(state.range(0));
  const int targets = 10;
  Rng rng(1);
  lp::LpProblem p;
  std::vector<std::vector<int>> x(items);
  for (int i = 0; i < items; ++i) {
    for (int t = 0; t < targets; ++t) {
      x[i].push_back(p.AddVariable(rng.Uniform(0, 1), 0, 1));
    }
  }
  for (int i = 0; i < items; ++i) {
    int row = p.AddConstraint(lp::Sense::kGreaterEqual, 1);
    for (int t = 0; t < targets; ++t) p.AddEntry(row, x[i][t], 1);
  }
  for (int t = 0; t < targets; ++t) {
    int row = p.AddConstraint(lp::Sense::kLessEqual, 1.5 * items / targets);
    for (int i = 0; i < items; ++i) p.AddEntry(row, x[i][t], 1);
  }
  for (auto _ : state) {
    auto sol = lp::SimplexSolver().Solve(p);
    benchmark::DoNotOptimize(sol.objective);
  }
}
BENCHMARK(BM_SimplexAssignmentLp)->Arg(50)->Arg(200)->Arg(500);

// Builds and solves the assignment-flow kernel: `subs` rows, 50 targets
// capped at subs / 50 + 2, each row covered by 5 distinct random targets.
void BM_DinicBipartite(benchmark::State& state) {
  const int subs = static_cast<int>(state.range(0));
  const int brokers = 50;
  const int covers_per_row = 5;
  Rng rng(2);
  for (auto _ : state) {
    std::vector<int64_t> offsets(subs + 1, 0);
    std::vector<int32_t> targets;
    targets.reserve(static_cast<size_t>(subs) * covers_per_row);
    for (int j = 0; j < subs; ++j) {
      while (static_cast<int64_t>(targets.size()) - offsets[j] <
             covers_per_row) {
        const auto t = static_cast<int32_t>(rng.UniformInt(0, brokers - 1));
        if (std::find(targets.begin() + offsets[j], targets.end(), t) ==
            targets.end()) {
          targets.push_back(t);
        }
      }
      offsets[j + 1] = static_cast<int64_t>(targets.size());
    }
    core::AssignmentFlow flow(brokers, std::move(offsets), std::move(targets));
    for (int b = 0; b < brokers; ++b) flow.SetCap(b, subs / brokers + 2);
    benchmark::DoNotOptimize(flow.Solve());
  }
}
BENCHMARK(BM_DinicBipartite)->Arg(1000)->Arg(10000)->Arg(50000);

std::vector<geo::Rectangle> OverlappingSquares(int n) {
  Rng rng(3);
  std::vector<geo::Rectangle> rs;
  rs.reserve(n);
  for (int i = 0; i < n; ++i) {
    double x = rng.Uniform(0, 0.8), y = rng.Uniform(0, 0.8);
    rs.push_back(geo::Rectangle({x, y}, {x + 0.2, y + 0.2}));
  }
  return rs;
}

// The Q(T) primitive, Vol(f_i), as core::metrics and core::dynamic call
// it: the engine dispatch (inclusion-exclusion for n <= 4, sweep above).
void BM_UnionVolumeExact(benchmark::State& state) {
  geo::Filter f(OverlappingSquares(static_cast<int>(state.range(0))));
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.UnionVolume());
  }
}
BENCHMARK(BM_UnionVolumeExact)->Arg(3)->Arg(6)->Arg(10)->Arg(20);

// The two exact engines head to head on the same inputs. Inclusion-
// exclusion is exponential in the worst case, so its arg range stops where
// the subset blowup starts; the sweep stays polynomial through n = 50.
void BM_UnionVolumeIE(benchmark::State& state) {
  auto rs = OverlappingSquares(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(geo::InclusionExclusionUnionVolume(rs));
  }
}
BENCHMARK(BM_UnionVolumeIE)->Arg(6)->Arg(10)->Arg(14)->Arg(18);

void BM_UnionVolumeSweep(benchmark::State& state) {
  auto rs = OverlappingSquares(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(geo::SweepUnionVolume(rs));
  }
}
BENCHMARK(BM_UnionVolumeSweep)->Arg(6)->Arg(10)->Arg(20)->Arg(50);

void BM_FilterGen(benchmark::State& state) {
  const int subs = static_cast<int>(state.range(0));
  wl::Workload w = wl::GenerateGoogleGroupsVariant(
      wl::Level::kHigh, wl::Level::kLow, subs, 20, 4);
  net::BrokerTree tree = net::BuildOneLevelTree(w.publisher, w.broker_locations);
  core::SaProblem p(std::move(tree), std::move(w.subscribers),
                    core::SaConfig{});
  Rng rng(4);
  for (auto _ : state) {
    auto rects = core::FilterGen(p, core::AllSubscribers(p), 20, rng);
    benchmark::DoNotOptimize(rects.size());
  }
}
BENCHMARK(BM_FilterGen)->Arg(200)->Arg(1000);

void BM_KMeans(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(5);
  std::vector<geo::Point> pts;
  for (int i = 0; i < n; ++i) {
    pts.push_back({rng.Uniform(0, 1), rng.Uniform(0, 1), rng.Uniform(0, 1),
                   rng.Uniform(0, 1), rng.Uniform(0, 1)});
  }
  for (auto _ : state) {
    auto r = geo::KMeans(pts, 20, rng);
    benchmark::DoNotOptimize(r.centers.size());
  }
}
BENCHMARK(BM_KMeans)->Arg(1000)->Arg(10000);

// Serial vs pool-backed SLP recursion on a multi-level tree. Arg 0 pins
// the child-subtree fan-out and repair covering to one thread; arg 1 uses
// the shared pool. Outputs are bit-identical either way (see
// SlpTest.ParallelMatchesSerialBitIdentical); only wall time may differ.
void BM_SlpMultiLevel(benchmark::State& state) {
  wl::Workload w = wl::GenerateGoogleGroupsVariant(
      wl::Level::kHigh, wl::Level::kLow, 600, 20, 4);
  Rng tree_rng(7);
  net::BrokerTree tree = net::BuildMultiLevelTree(
      w.publisher, w.broker_locations, 5, tree_rng);
  core::SaProblem p(std::move(tree), std::move(w.subscribers),
                    core::SaConfig{});
  core::SlpOptions opts;
  opts.num_threads = state.range(0) == 0 ? 1 : 0;
  for (auto _ : state) {
    Rng rng(11);
    auto r = core::RunSlp(p, opts, rng);
    benchmark::DoNotOptimize(r.ok());
  }
}
BENCHMARK(BM_SlpMultiLevel)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
