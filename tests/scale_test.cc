// Million-subscriber scale tests (ctest label `scale`).
//
// These run only in the Release lane: the label is excluded from the
// Debug/ASan/TSan ctest invocations (instrumented builds would turn the
// 1M-row loops into hour-long runs without adding coverage — the same
// logic is exercised at small sizes by the regular suites).

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/candidates.h"
#include "src/core/dynamic.h"
#include "src/core/problem.h"
#include "src/network/tree_builder.h"
#include "src/workload/grid.h"

namespace slp::core {
namespace {

constexpr int kMillion = 1'000'000;

wl::Workload MillionGrid(int brokers) {
  wl::GridParams params;
  params.num_subscribers = kMillion;
  params.num_brokers = brokers;
  params.seed = 5;
  return wl::GenerateGrid(params);
}

// The per-row nearest-target pass at full width: generate 1M subscribers,
// build the leaf targets serially and sharded, and require identical
// nearest targets. Every row has one (the Δ-achieving leaf), and each is
// its B_j's first entry — checked on every row, at a size where a
// quadratic regression would time the test out rather than pass.
TEST(ScaleTest, MillionSubscriberNearestTargetShardIdentity) {
  wl::Workload w = MillionGrid(/*brokers=*/64);
  ASSERT_EQ(w.subscribers.size(), static_cast<size_t>(kMillion));
  net::BrokerTree tree =
      net::BuildOneLevelTree(w.publisher, w.broker_locations);
  SaProblem p(std::move(tree), std::move(w.subscribers), SaConfig{});

  const std::vector<int> subs = AllSubscribers(p);
  const Targets serial = BuildLeafTargets(p, subs, /*num_shards=*/1);
  ASSERT_EQ(serial.num_rows(), kMillion);
  ASSERT_EQ(serial.nearest.size(), static_cast<size_t>(kMillion));
  for (int r = 0; r < serial.num_rows(); ++r) {
    const std::vector<int32_t> cand = Candidates(p, serial, r);
    ASSERT_FALSE(cand.empty()) << "empty candidate row " << r;
    ASSERT_EQ(serial.nearest[r], cand[0]) << "row " << r;
  }

  const Targets sharded = BuildLeafTargets(p, subs, /*num_shards=*/8);
  EXPECT_EQ(serial.nearest, sharded.nearest);
}

// 1M dynamic arrivals through AddBatch: completes, admits everyone, and
// the batch-level rung-saturation bookkeeping pays off (skips recorded
// once the β/β_max rungs fill).
TEST(ScaleTest, MillionArrivalsAddBatch) {
  wl::Workload w = MillionGrid(/*brokers=*/32);
  net::BrokerTree tree =
      net::BuildOneLevelTree(w.publisher, w.broker_locations);
  SaConfig config;
  config.max_delay = 3.0;
  // Caps below the arrival count: the β and β_max rungs must saturate.
  DynamicAssigner dyn(std::move(tree), config, kMillion / 2);
  auto handles = dyn.AddBatch(w.subscribers);
  ASSERT_TRUE(handles.ok()) << handles.status().ToString();
  EXPECT_EQ(handles.value().size(), static_cast<size_t>(kMillion));
  EXPECT_EQ(dyn.population(), kMillion);
  int64_t total = 0;
  for (int l : dyn.loads()) total += l;
  EXPECT_EQ(total, kMillion);
  EXPECT_EQ(dyn.add_stats().arrivals, kMillion);
  EXPECT_GT(dyn.add_stats().escalation_skips, 0);
}

}  // namespace
}  // namespace slp::core
