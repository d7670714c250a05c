// Online repair after broker failures (DESIGN.md §9).
//
// When a leaf broker crashes, its subscribers become orphans on the owning
// DynamicAssigner. RepairEngine re-places them with the Gr rule (least
// filter enlargement along the live publisher-to-leaf path) under an
// escalation ladder:
//
//   rung 1  latency-feasible live leaves within the desired cap (β);
//   rung 2  β-escalation: same, within the emergency cap (β_max);
//   rung 3  latency-slack relaxation: any live leaf within β_max,
//           minimizing the latency excess (subscriber becomes kDegraded
//           with the excess quantified);
//   rung 4  load relaxation too: the latency-best live leaf regardless of
//           load (kDegraded, latency and load excess quantified);
//   park    no live leaf at all: kDegraded/unplaced until one recovers.
//
// The engine NEVER aborts, and a Repair() pass leaves no orphan behind:
// every orphan ends placed (kLive or kDegraded) or parked with its
// violation quantified. Degraded subscribers are retried through rungs 1–2
// under per-subscriber exponential backoff (counted in the caller's
// logical ticks), so a recovery or load drain eventually un-degrades them
// without hammering the ladder every tick.
//
// Suspicion-aware mode (DESIGN.md §13): when the owning DynamicAssigner
// carries a placement veto (the liveness tracker vetoes *suspect* leaves),
// every rung skips vetoed leaves as long as a non-vetoed live leaf exists.
// Suspect leaves thus stop receiving new placements, but their existing
// subscribers are NOT evacuated until the tracker declares the leaf dead
// (which fails it and orphans them) — the policy that bounds the churn a
// false suspicion can cause.
//
// Backoff hygiene: backoff entries are erased when an orphan repairs to
// kLive, when a degraded retry succeeds, and — because handles are
// recycled — whenever the tracked handle is vacated or un-degraded through
// any external path (Remove, Reoptimize, recovery): callers that remove
// subscribers directly may call Forget(handle), and every Repair() pass
// additionally prunes entries whose handle is no longer an occupied
// kDegraded subscriber, so a recycled handle can never inherit a stale
// backoff clock.

#ifndef SLP_CORE_REPAIR_H_
#define SLP_CORE_REPAIR_H_

#include <cstdint>
#include <map>

#include "src/common/status.h"
#include "src/core/dynamic.h"

namespace slp::core {

struct RepairOptions {
  // Ticks before the first retry of a degraded subscriber; the wait grows
  // by kBackoffFactor (repair.cc) per failed retry, capped at backoff_max.
  int64_t backoff_base = 4;
  int64_t backoff_max = 1024;
};

struct RepairReport {
  // Orphans present when the pass started.
  int orphans_seen = 0;
  // Orphans placed within all constraints (now kLive).
  int repaired = 0;
  // Orphans placed or parked outside constraints (now kDegraded).
  int degraded = 0;
  // Degraded subscribers whose backoff elapsed and were retried / of those,
  // how many came back to kLive.
  int retried = 0;
  int undegraded = 0;
  // Largest violations quantified this pass.
  double max_latency_violation = 0;
  double max_load_violation = 0;
};

class RepairEngine {
 public:
  explicit RepairEngine(DynamicAssigner* assigner, RepairOptions options = {});

  // One repair pass at logical time `now` (a monotone tick, e.g. the
  // replay's event index; callers outside a simulation can pass an
  // incrementing counter). Processes all current orphans through the
  // ladder, then retries degraded subscribers whose backoff elapsed.
  // Never aborts; leaves no orphan.
  RepairReport Repair(int64_t now = 0);

  // Drops the backoff entry of a handle the caller removed (or otherwise
  // knows left the degraded pool). Safe on handles with no entry. Repair()
  // also prunes stale entries, so calling this is an optimization plus a
  // guard against a recycled handle briefly inheriting an old clock
  // between the removal and the next pass.
  void Forget(int handle) { backoff_.erase(handle); }

  // Live backoff entries (test/inspection surface for the leak contract).
  int backoff_entries() const { return static_cast<int>(backoff_.size()); }

 private:
  struct Backoff {
    int attempts = 0;
    int64_t next = 0;
  };

  // Runs the full ladder for one subscriber, every rung priced by one
  // session of the assigner's GrKernel (DynamicAssigner::Price). Returns
  // the resulting state.
  SubscriberState PlaceWithLadder(int handle, RepairReport* report);
  // Erases entries whose handle is no longer an occupied kDegraded
  // subscriber (removed, reoptimized back to kLive, or orphaned again).
  void PruneStaleBackoff();

  DynamicAssigner* dyn_;
  RepairOptions options_;
  // handle -> retry state. Ordered map: Repair() iterates it to prune, and
  // iteration order must be deterministic (DESIGN.md §10 lint contract).
  std::map<int, Backoff> backoff_;
};

}  // namespace slp::core

#endif  // SLP_CORE_REPAIR_H_
