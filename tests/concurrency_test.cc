// Runtime companions of the compile-time concurrency contracts
// (DESIGN.md §15): multi-thread stress over the capability-guarded
// substrate — ThreadPool shutdown while jobs are queued, and
// failure-handler installation racing pool workers that trip audits. Both
// run in the TSan CI lane via ordinary suite membership; the second is the
// regression test for a data race the annotation pass flushed out (handler
// swap during an in-flight trip).

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/invariant.h"
#include "src/common/parallel.h"

namespace slp {
namespace {

// Destroying the pool while jobs are queued must still run fn(i) exactly
// once for every i: workers exit at the next queue check and each
// in-flight ParallelFor caller drains its own job (the documented
// shutdown contract in parallel.h).
TEST(ConcurrencyTest, ThreadPoolShutdownWhileQueued) {
  constexpr int kCallers = 4;
  constexpr int kIndices = 96;

  auto pool = std::make_unique<ThreadPool>(3);
  // Callers go through a raw pointer captured before they spawn: the
  // contract under test is destruction of the *pool*, not concurrent
  // mutation of the owning unique_ptr.
  ThreadPool* p = pool.get();
  std::vector<std::unique_ptr<std::atomic<int>>> runs;
  for (int i = 0; i < kCallers * kIndices; ++i) {
    runs.push_back(std::make_unique<std::atomic<int>>(0));
  }
  // past_pool[c] == the caller is provably past ParallelFor's queue-push
  // critical section — the point after which it touches no pool member
  // (the supported shutdown window; see parallel.h). Two ways to prove
  // it: fn ran on the caller's own thread (the caller is inside RunJob),
  // or ParallelFor returned entirely (workers drained the job first).
  std::atomic<bool> past_pool[kCallers] = {};

  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      const std::thread::id me = std::this_thread::get_id();
      p->ParallelFor(kIndices, [&, c, me](int i) {
        if (std::this_thread::get_id() == me) {
          past_pool[c].store(true, std::memory_order_relaxed);
        }
        runs[c * kIndices + i]->fetch_add(1, std::memory_order_relaxed);
      });
      past_pool[c].store(true, std::memory_order_relaxed);
    });
  }
  for (int c = 0; c < kCallers; ++c) {
    while (!past_pool[c].load(std::memory_order_relaxed)) {
      std::this_thread::yield();
    }
  }
  pool.reset();  // stop + join workers while plenty of indices remain
  for (auto& t : callers) t.join();

  for (const auto& r : runs) {
    ASSERT_EQ(r->load(), 1) << "an index ran zero or multiple times";
  }
}

std::atomic<long> g_recorded_a{0};
std::atomic<long> g_recorded_b{0};
void RecordA(const audit::Violation&) {
  g_recorded_a.fetch_add(1, std::memory_order_relaxed);
}
void RecordB(const audit::Violation&) {
  g_recorded_b.fetch_add(1, std::memory_order_relaxed);
}

// Regression (TSan): installing a failure handler while pool workers trip
// audits. SetFailureHandler and handler invocation are serialized on one
// mutex, so the swap cannot land mid-invocation and every trip runs
// exactly one of the two recording handlers.
TEST(ConcurrencyTest, HandlerInstallWhileWorkersTrip) {
  constexpr int kTrips = 400;
  constexpr int kSwaps = 200;

  g_recorded_a.store(0);
  g_recorded_b.store(0);
  audit::ResetTripCounts();
  audit::Handler prev = audit::SetFailureHandler(&RecordA);

  std::atomic<bool> done{false};
  std::thread swapper([&] {
    for (int i = 0; i < kSwaps && !done.load(std::memory_order_relaxed);
         ++i) {
      audit::SetFailureHandler(i % 2 == 0 ? &RecordB : &RecordA);
      std::this_thread::yield();
    }
    // Leave a recording handler installed until the workers finish.
    audit::SetFailureHandler(&RecordA);
  });

  ThreadPool::Global().ParallelFor(4, [&](int) {
    for (int i = 0; i < kTrips / 4; ++i) {
      SLP_AUDIT_CHECK(audit::Category::kDcheck, false,
                      "concurrency_test deliberate trip");
    }
  });
  done.store(true, std::memory_order_relaxed);
  swapper.join();

  EXPECT_EQ(audit::trip_count(audit::Category::kDcheck), kTrips);
  EXPECT_EQ(g_recorded_a.load() + g_recorded_b.load(), kTrips);

  audit::SetFailureHandler(prev);
  audit::ResetTripCounts();
}

}  // namespace
}  // namespace slp
