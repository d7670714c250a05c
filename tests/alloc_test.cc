// Heap-allocation contracts of the Gr placement path. This binary replaces
// the global operator new/delete with counting versions that forward to
// malloc/free, so a test can count the allocations a call makes.
//
//  * Rectangle::EnlargementTo, the inner loop of every Gr cost, allocates
//    nothing.
//  * DynamicAssigner::Add on a warmed multi-level assigner allocates the
//    same constant number of times per call, whatever the tree's size: no
//    per-leaf or per-enlargement allocation hides in the ladder.

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/random.h"
#include "src/core/dynamic.h"
#include "src/geometry/rectangle.h"
#include "src/network/tree_builder.h"
#include "src/workload/grid.h"

namespace {

std::atomic<int64_t> g_allocations{0};

void* CountedAlloc(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

int64_t Allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

}  // namespace

void* operator new(std::size_t n) { return CountedAlloc(n); }
void* operator new[](std::size_t n) { return CountedAlloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace slp {
namespace {

std::vector<double>* g_escaped = nullptr;

TEST(AllocTest, CounterSeesAllocations) {
  const int64_t before = Allocations();
  g_escaped = new std::vector<double>(16);
  const int64_t used = Allocations() - before;
  delete g_escaped;
  EXPECT_EQ(used, 2);  // the vector object and its buffer
}

TEST(AllocTest, EnlargementToAllocatesNothing) {
  Rng rng(3);
  std::vector<geo::Rectangle> rects;
  for (int i = 0; i < 100; ++i) {
    std::vector<double> lo(3), hi(3);
    for (int d = 0; d < 3; ++d) {
      lo[d] = rng.Uniform(0, 1);
      hi[d] = lo[d] + rng.Uniform(0, 0.2);
    }
    rects.emplace_back(std::move(lo), std::move(hi));
  }
  double sum = 0;
  const int64_t before = Allocations();
  for (int i = 0; i < 10000; ++i) {
    sum += rects[i % 100].EnlargementTo(rects[(i * 7 + 3) % 100]);
  }
  const int64_t used = Allocations() - before;
  EXPECT_EQ(used, 0);
  EXPECT_GT(sum, 0);
}

// Allocations of each of 200 Adds on a warmed assigner over a multi-level
// tree of `brokers` brokers. The warm-up admits 2,000 subscribers; the
// measured Adds re-admit 200 of them into the handles their removal freed.
std::vector<int64_t> AllocationsPerAdd(int brokers) {
  wl::GridParams params;
  params.num_subscribers = 2000;
  params.num_brokers = brokers;
  params.seed = 11;
  const wl::Workload w = wl::GenerateGrid(params);
  Rng tree_rng(12);
  net::BrokerTree tree =
      net::BuildMultiLevelTree(w.publisher, w.broker_locations, 3, tree_rng);
  core::SaConfig config;
  config.max_delay = 1.0;
  core::DynamicAssigner dyn(std::move(tree), config, 4000);
  const std::vector<int> handles = dyn.AddBatch(w.subscribers).value();
  for (int k = 0; k < 200; ++k) EXPECT_TRUE(dyn.Remove(handles[k]).ok());

  std::vector<int64_t> per_add;
  per_add.reserve(200);
  for (int k = 0; k < 200; ++k) {
    const int64_t before = Allocations();
    const Result<int> added = dyn.Add(w.subscribers[k]);
    per_add.push_back(Allocations() - before);
    EXPECT_TRUE(added.ok());
  }
  return per_add;
}

TEST(AllocTest, AddAllocatesAConstantPerCallAtAnyTreeSize) {
  const std::vector<int64_t> small = AllocationsPerAdd(50);
  const std::vector<int64_t> large = AllocationsPerAdd(100);
  ASSERT_FALSE(small.empty());
  const int64_t constant = small.front();
  for (size_t k = 0; k < small.size(); ++k) {
    EXPECT_EQ(small[k], constant) << "Add " << k << " at 50 brokers";
    EXPECT_EQ(large[k], constant) << "Add " << k << " at 100 brokers";
  }
  RecordProperty("allocations_per_add", static_cast<int>(constant));
}

}  // namespace
}  // namespace slp
