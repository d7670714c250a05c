#include "src/common/invariant.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>

#include "src/common/sync.h"

namespace slp::audit {

namespace {

void DefaultHandler(const Violation& v) {
  std::fprintf(stderr, "INVARIANT VIOLATION [%s] at %s:%d: %s%s%s\n",
               ToString(v.category), v.file, v.line, v.expression,
               v.context.empty() ? "" : " — ", v.context.c_str());
  std::abort();
}

// Guards the handler slot AND serializes handler invocation: Fail() calls
// the handler with g_mu held, so SetFailureHandler cannot return while a
// previously installed handler is still running on a pool worker, and two
// workers tripping at once never run a (possibly state-recording,
// internally unsynchronized) test handler concurrently. Before this lock
// the slot was a bare atomic: the pointer swap itself was race-free, but a
// test could install/uninstall a recording handler while a worker was
// mid-trip — the worker would then mutate the recorder as it was being
// torn down (ConcurrencyTest.HandlerInstallWhileWorkersTrip pins the fixed
// behavior under TSan). The failure path is cold, so the lock costs
// nothing in normal operation. Handlers must not trip audits or call
// SetFailureHandler themselves (non-recursive lock).
Mutex g_mu;
Handler g_handler SLP_GUARDED_BY(g_mu) = &DefaultHandler;

// Pure monotonic counters: relaxed on every access. Nothing is published
// through a trip count — tests read them either on the thread that
// tripped (program order suffices) or after ParallelFor's fork-join
// barrier, whose mutex handshake already provides the happens-before
// edge. seq_cst would buy nothing but a fence on the failure path.
std::atomic<long> g_trips[static_cast<int>(Category::kCount)] = {};

}  // namespace

const char* ToString(Category category) {
  switch (category) {
    case Category::kDcheck: return "DCHECK";
    case Category::kRectangle: return "RECTANGLE";
    case Category::kNesting: return "NESTING";
    case Category::kBasis: return "BASIS";
    case Category::kFlow: return "FLOW";
    case Category::kLiveOverlay: return "LIVE_OVERLAY";
    case Category::kMatchIndex: return "MATCH_INDEX";
    case Category::kDissemination: return "DISSEMINATION";
    case Category::kLiveness: return "LIVENESS";
    case Category::kCount: break;
  }
  return "UNKNOWN";
}

Handler SetFailureHandler(Handler handler) {
  MutexLock lock(g_mu);
  Handler previous = g_handler;
  g_handler = handler != nullptr ? handler : &DefaultHandler;
  return previous;
}

long trip_count(Category category) {
  return g_trips[static_cast<int>(category)].load(std::memory_order_relaxed);
}

void ResetTripCounts() {
  for (auto& t : g_trips) t.store(0, std::memory_order_relaxed);
}

void Fail(Category category, const char* expression, const char* file,
          int line, std::string context) {
  g_trips[static_cast<int>(category)].fetch_add(1, std::memory_order_relaxed);
  Violation v;
  v.category = category;
  v.expression = expression;
  v.file = file;
  v.line = line;
  v.context = std::move(context);
  // Invoke under g_mu — see the note at g_handler. The handler sees the
  // violation fully built (same thread), and the installing thread's
  // writes to the handler's own state are ordered by the lock.
  MutexLock lock(g_mu);
  g_handler(v);
}

}  // namespace slp::audit
