// The test oracle's own suite: tests/flow_oracle.h's MaxFlow against
// Edmonds-Karp and hand-solved networks. The assignment-flow kernel is
// held to this oracle in tests/assignment_flow_test.cc.

#include <algorithm>
#include <array>
#include <queue>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/random.h"
#include "tests/flow_oracle.h"

namespace slp::flow {
namespace {

// Reference max-flow: plain BFS augmenting paths (Edmonds-Karp) on an
// adjacency-matrix residual graph. O(V E^2); fine for the tiny property
// instances.
int64_t EdmondsKarp(int n, const std::vector<std::array<int64_t, 3>>& edges,
                    int s, int t) {
  std::vector<std::vector<int64_t>> cap(n, std::vector<int64_t>(n, 0));
  for (const auto& e : edges) cap[e[0]][e[1]] += e[2];
  int64_t flow = 0;
  while (true) {
    std::vector<int> prev(n, -1);
    prev[s] = s;
    std::queue<int> q;
    q.push(s);
    while (!q.empty() && prev[t] < 0) {
      int u = q.front();
      q.pop();
      for (int v = 0; v < n; ++v) {
        if (cap[u][v] > 0 && prev[v] < 0) {
          prev[v] = u;
          q.push(v);
        }
      }
    }
    if (prev[t] < 0) break;
    int64_t aug = INT64_MAX;
    for (int v = t; v != s; v = prev[v]) aug = std::min(aug, cap[prev[v]][v]);
    for (int v = t; v != s; v = prev[v]) {
      cap[prev[v]][v] -= aug;
      cap[v][prev[v]] += aug;
    }
    flow += aug;
  }
  return flow;
}

TEST(MaxFlowTest, SingleEdge) {
  MaxFlow mf(2);
  int e = mf.AddEdge(0, 1, 7);
  EXPECT_EQ(mf.Solve(0, 1), 7);
  EXPECT_EQ(mf.flow(e), 7);
}

TEST(MaxFlowTest, SeriesBottleneck) {
  MaxFlow mf(3);
  mf.AddEdge(0, 1, 10);
  mf.AddEdge(1, 2, 3);
  EXPECT_EQ(mf.Solve(0, 2), 3);
}

TEST(MaxFlowTest, ParallelPaths) {
  MaxFlow mf(4);
  mf.AddEdge(0, 1, 5);
  mf.AddEdge(1, 3, 5);
  mf.AddEdge(0, 2, 4);
  mf.AddEdge(2, 3, 4);
  EXPECT_EQ(mf.Solve(0, 3), 9);
}

TEST(MaxFlowTest, ClassicCrossEdgeNetwork) {
  // The classic 6-node example with a cross edge; max flow = 23.
  MaxFlow mf(6);
  mf.AddEdge(0, 1, 16);
  mf.AddEdge(0, 2, 13);
  mf.AddEdge(1, 2, 10);
  mf.AddEdge(2, 1, 4);
  mf.AddEdge(1, 3, 12);
  mf.AddEdge(3, 2, 9);
  mf.AddEdge(2, 4, 14);
  mf.AddEdge(4, 3, 7);
  mf.AddEdge(3, 5, 20);
  mf.AddEdge(4, 5, 4);
  EXPECT_EQ(mf.Solve(0, 5), 23);
}

TEST(MaxFlowTest, DisconnectedSinkGivesZero) {
  MaxFlow mf(4);
  mf.AddEdge(0, 1, 5);
  mf.AddEdge(2, 3, 5);
  EXPECT_EQ(mf.Solve(0, 3), 0);
}

TEST(MaxFlowTest, ZeroCapacityEdge) {
  MaxFlow mf(2);
  mf.AddEdge(0, 1, 0);
  EXPECT_EQ(mf.Solve(0, 1), 0);
}

TEST(MaxFlowTest, FlowConservationOnEdges) {
  MaxFlow mf(5);
  std::vector<int> ids;
  ids.push_back(mf.AddEdge(0, 1, 8));
  ids.push_back(mf.AddEdge(0, 2, 3));
  ids.push_back(mf.AddEdge(1, 3, 4));
  ids.push_back(mf.AddEdge(1, 2, 9));
  ids.push_back(mf.AddEdge(2, 3, 6));
  ids.push_back(mf.AddEdge(3, 4, 20));
  const int64_t f = mf.Solve(0, 4);
  EXPECT_EQ(f, mf.flow(ids[5]));
  EXPECT_EQ(f, mf.flow(ids[0]) + mf.flow(ids[1]));
  // Per-edge flow within capacity.
  const int64_t caps[] = {8, 3, 4, 9, 6, 20};
  for (size_t i = 0; i < ids.size(); ++i) {
    EXPECT_GE(mf.flow(ids[i]), 0);
    EXPECT_LE(mf.flow(ids[i]), caps[i]);
  }
}

TEST(MaxFlowTest, CapacityEscalationResumes) {
  // Bipartite 1 source, 2 middle, 1 sink; raising the source caps admits
  // more flow without recomputing from scratch.
  MaxFlow mf(4);
  int a = mf.AddEdge(0, 1, 1);
  int b = mf.AddEdge(0, 2, 1);
  mf.AddEdge(1, 3, 5);
  mf.AddEdge(2, 3, 5);
  EXPECT_EQ(mf.Solve(0, 3), 2);
  mf.SetCapacity(a, 3);
  mf.SetCapacity(b, 4);
  EXPECT_EQ(mf.Solve(0, 3), 7);
  EXPECT_EQ(mf.flow(a), 3);
  EXPECT_EQ(mf.flow(b), 4);
}

TEST(MaxFlowTest, PushPathSeedsInitialFlow) {
  // s -> a -> t and s -> b -> t, all caps 2. Seed 2 units along the a-path;
  // Solve should add only the b-path's 2 units.
  MaxFlow mf(4);
  int sa = mf.AddEdge(0, 2, 2);
  int at = mf.AddEdge(2, 1, 2);
  int sb = mf.AddEdge(0, 3, 2);
  int bt = mf.AddEdge(3, 1, 2);
  mf.PushPath({sa, at}, 2);
  EXPECT_EQ(mf.flow(sa), 2);
  EXPECT_EQ(mf.Solve(0, 1), 4);
  EXPECT_EQ(mf.flow(sb), 2);
  EXPECT_EQ(mf.flow(bt), 2);
}

TEST(MaxFlowTest, SolveReroutesBadSeedWhenNecessary) {
  // Seeding a path that blocks optimality: Solve must reroute through the
  // residual graph and still reach the true max flow.
  //   s -> a (1), s -> b (1), a -> t (1), a -> c (1), b -> c (0), c -> t (1)
  // Seeding s->a->c->t uses a's capacity on the c route; the only way to
  // reach flow 2 is rerouting a to t directly... which requires the seed's
  // residual arcs.
  MaxFlow mf(5);  // s=0 t=1 a=2 b=3 c=4
  int sa = mf.AddEdge(0, 2, 1);
  int sb = mf.AddEdge(0, 3, 1);
  int at = mf.AddEdge(2, 1, 1);
  int ac = mf.AddEdge(2, 4, 1);
  int bc = mf.AddEdge(3, 4, 1);
  int ct = mf.AddEdge(4, 1, 1);
  mf.PushPath({sa, ac, ct}, 1);
  EXPECT_EQ(mf.Solve(0, 1), 2);
  // Final flow must use both source edges.
  EXPECT_EQ(mf.flow(sa), 1);
  EXPECT_EQ(mf.flow(sb), 1);
  EXPECT_EQ(mf.flow(at) + mf.flow(ct), 2);
  (void)bc;
}

TEST(MaxFlowTest, MinCutSeparatesSourceFromSink) {
  MaxFlow mf(4);
  mf.AddEdge(0, 1, 10);
  mf.AddEdge(1, 2, 1);  // bottleneck
  mf.AddEdge(2, 3, 10);
  mf.Solve(0, 3);
  auto side = mf.MinCutSourceSide(0);
  EXPECT_TRUE(side[0]);
  EXPECT_TRUE(side[1]);
  EXPECT_FALSE(side[2]);
  EXPECT_FALSE(side[3]);
}

TEST(MaxFlowTest, BipartiteAssignmentSaturatesWhenBalanced) {
  // 3 brokers with capacity 2 each, 6 subscribers each connected to all
  // brokers: perfect assignment exists.
  const int nb = 3, ns = 6;
  MaxFlow mf(2 + nb + ns);
  const int s = 0, t = 1;
  for (int b = 0; b < nb; ++b) mf.AddEdge(s, 2 + b, 2);
  for (int j = 0; j < ns; ++j) {
    mf.AddEdge(2 + nb + j, t, 1);
    for (int b = 0; b < nb; ++b) mf.AddEdge(2 + b, 2 + nb + j, 1);
  }
  EXPECT_EQ(mf.Solve(s, t), ns);
}

class MaxFlowRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(MaxFlowRandomTest, MatchesEdmondsKarp) {
  Rng rng(4200 + GetParam());
  const int n = 2 + static_cast<int>(rng.UniformInt(2, 10));
  const int num_edges = static_cast<int>(rng.UniformInt(n, 4 * n));
  std::vector<std::array<int64_t, 3>> edges;
  MaxFlow mf(n);
  for (int e = 0; e < num_edges; ++e) {
    int u = static_cast<int>(rng.UniformInt(0, n - 1));
    int v = static_cast<int>(rng.UniformInt(0, n - 1));
    if (u == v) continue;
    int64_t c = rng.UniformInt(0, 20);
    edges.push_back({u, v, c});
    mf.AddEdge(u, v, c);
  }
  const int64_t expected = EdmondsKarp(n, edges, 0, n - 1);
  EXPECT_EQ(mf.Solve(0, n - 1), expected);

  // Min cut capacity equals max flow (strong duality).
  auto side = mf.MinCutSourceSide(0);
  ASSERT_TRUE(side[0]);
  ASSERT_FALSE(side[n - 1]);
  int64_t cut = 0;
  for (const auto& e : edges) {
    if (side[e[0]] && !side[e[1]]) cut += e[2];
  }
  EXPECT_EQ(cut, expected);
}

INSTANTIATE_TEST_SUITE_P(Sweep, MaxFlowRandomTest, ::testing::Range(0, 60));

}  // namespace
}  // namespace slp::flow
