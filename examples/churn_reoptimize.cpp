// Dynamic subscriber churn — the paper's first future-work direction
// (Section VIII): subscriptions come and go. Arrivals are placed online
// with the Gr rule; departures leave filters stale; periodic offline
// reoptimization (here Gr*) reclaims the accumulated slack — the paper's
// intended "initial subscriber assignment and periodical re-optimization"
// use of the offline algorithms.

#include <cstdio>
#include <deque>

#include "src/core/dynamic.h"
#include "src/core/greedy.h"
#include "src/network/tree_builder.h"
#include "src/workload/googlegroups.h"

int main() {
  using namespace slp;

  // A pool of subscribers to draw arrivals from.
  wl::Workload w = wl::GenerateGoogleGroupsVariant(
      wl::Level::kHigh, wl::Level::kLow, /*num_subscribers=*/6000,
      /*num_brokers=*/15, /*seed=*/13);
  net::BrokerTree tree =
      net::BuildOneLevelTree(w.publisher, w.broker_locations);

  core::SaConfig config;
  config.max_delay = 0.5;
  core::DynamicAssigner dyn(std::move(tree), config,
                            /*expected_population=*/2000);
  Rng rng(13);

  // Warm up with 2000 subscribers.
  std::deque<int> live;
  size_t next = 0;
  for (int i = 0; i < 2000; ++i) {
    live.push_back(dyn.Add(w.subscribers[next++]).value());
  }

  std::printf("%-8s %8s %14s %14s %10s\n", "epoch", "live", "bandwidth",
              "tight-bw", "slack%");
  const int kEpochs = 8;
  const int kChurnPerEpoch = 600;  // 30% churn per epoch
  for (int epoch = 0; epoch <= kEpochs; ++epoch) {
    const double current = dyn.CurrentBandwidth();
    const double tight = dyn.TightBandwidth(rng);
    std::printf("%-8d %8d %14.4f %14.4f %9.1f%%\n", epoch, dyn.live_count(),
                current, tight, 100.0 * (current - tight) / current);
    if (epoch == kEpochs) break;
    // Churn: oldest 600 leave, 600 fresh arrive.
    for (int c = 0; c < kChurnPerEpoch; ++c) {
      SLP_CHECK(dyn.Remove(live.front()).ok());
      live.pop_front();
      live.push_back(
          dyn.Add(w.subscribers[next++ % w.subscribers.size()]).value());
    }
  }

  std::printf("\nreoptimizing offline with Gr*...\n");
  dyn.Reoptimize(
      [](const core::SaProblem& p, Rng& r) { return core::RunGrStar(p, r); },
      rng);
  const double after = dyn.CurrentBandwidth();
  const double tight = dyn.TightBandwidth(rng);
  std::printf("after reoptimization: bandwidth %.4f (slack %.1f%%)\n", after,
              100.0 * (after - tight) / std::max(after, 1e-12));
  return 0;
}
