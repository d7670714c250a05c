// Dynamic subscriber assignment (the paper's first future-work direction,
// Section VIII): subscriptions come and go at runtime.
//
// DynamicAssigner maintains a live deployment with the paper's intended
// division of labor:
//  * arrivals are placed online with the Gr rule — least filter enlargement
//    along the publisher-to-broker path among latency-feasible,
//    non-overloaded leaves;
//  * departures release capacity immediately but leave filters stale
//    (rectangles cannot shrink online without risking false negatives for
//    the remaining subscribers);
//  * the accumulated staleness (fraction of filter volume no live
//    subscription needs) is tracked, and Reoptimize() rebuilds the
//    deployment offline — the paper's "initial subscriber assignment and
//    periodical re-optimization" use case for SLP/Gr*.
//
// Beyond the paper, the assigner models crash-stop broker failures
// (DESIGN.md §9): FailBroker splices an interior broker out of the routing
// tree (safe without filter recomputation, by the nesting condition) or
// orphans a leaf's subscribers; RecoverBroker brings a broker back empty.
// Orphans are re-placed by core::RepairEngine (src/core/repair.h); a
// subscriber the ladder cannot place within constraints is parked
// `degraded` with its violation quantified — no failure path aborts.
//
// Concurrency (DESIGN.md §15): the assigner is thread-confined to its
// owning control thread — it carries no locks on purpose. Everything
// below is a plain sequential mutation of assigner state; the only
// parallelism it touches is *beneath* blocking calls (AddBatch candidate
// builds and Reoptimize's SLP shards fan out over the shared ThreadPool
// and join before returning, and those tasks write disjoint slots of
// locals, never assigner members). Calling any method concurrently with
// any other — including from a pool task — is a contract violation, not
// a supported mode; the capability layer (src/common/sync.h)
// deliberately stops at the pool/audit substrate.

#ifndef SLP_CORE_DYNAMIC_H_
#define SLP_CORE_DYNAMIC_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <queue>
#include <string>
#include <vector>

#include "src/common/invariant.h"
#include "src/common/random.h"
#include "src/common/status.h"
#include "src/core/assignment.h"
#include "src/core/gr_kernel.h"
#include "src/core/problem.h"
#include "src/geometry/rectangle.h"
#include "src/network/broker_tree.h"
#include "src/workload/workload.h"

namespace slp::core {

// Service state of a tracked subscriber.
enum class SubscriberState {
  kLive,      // placed, all constraints met
  kOrphaned,  // assigned broker failed; awaiting repair
  kDegraded,  // placed (or parked) outside constraints; violation quantified
};

// How far a degraded subscriber is outside its constraints.
struct DegradedViolation {
  // Absolute latency excess over the subscriber's bound (0 if met).
  double latency = 0;
  // Subscribers above the β_max cap at the chosen leaf (0 if within).
  double load = 0;
  // True when no live leaf existed at all: the subscriber is parked
  // unassigned (leaf -1) and receives no events until repaired.
  bool unplaced = false;
};

// Cumulative counters of the online-placement work done by Add/AddBatch
// (Add is a batch of one, so both count alike). Each arrival is priced by
// one GrKernel session, and the batch's rung-saturation counters skip
// provably futile β/β_max scans — fewer escalation-ladder solves than the
// always-scan ladder (tests/gr_oracle.h), with the same placements.
struct AddStats {
  int64_t arrivals = 0;
  // Full per-leaf scans of one rung of the Gr escalation ladder
  // (β, β_max, ∞, or the degraded fallback) — the ladder's "solves".
  int64_t escalation_scans = 0;
  // Rung scans proved futile (no leaf has headroom at the rung's cap) and
  // skipped without scanning.
  int64_t escalation_skips = 0;
  // Leaf incorporation costs computed (each at most once per arrival).
  int64_t cost_evals = 0;
};

class DynamicAssigner {
 public:
  // `expected_population` scales the per-broker load caps (β κ_i m); the
  // live population may drift around it between reoptimizations.
  DynamicAssigner(net::BrokerTree tree, SaConfig config,
                  int expected_population);

  // Adds a subscriber and assigns it online: an AddBatch of one, without
  // the batch's vector. Returns a handle for removal, or kInfeasible when
  // no live leaf broker exists at all (every leaf failed) or alpha < 1 —
  // the assigner state is unchanged in that case. If live leaves exist but
  // none meets the subscriber's static latency promise (failures took the
  // close ones), the subscriber is admitted kDegraded with the latency
  // excess quantified. A recycled handle's Add allocates nothing once the
  // filters hold alpha rectangles per node.
  Result<int> Add(const wl::Subscriber& subscriber);

  // Adds a batch of subscribers, placed online in arrival order with
  // exactly the semantics of calling Add once per element — bit-identical
  // placements, filters, loads, states, handles and AddStats. Each arrival
  // is priced by one GrKernel session: one distance per static leaf, each
  // node's enlargement at most once across all rungs. The batch tracks how
  // many live leaves still have headroom at β and β_max (caps are constant
  // within a batch and loads only grow, so a saturated rung stays
  // saturated and its scans are skipped — see AddStats::escalation_skips).
  // The placements are those of the always-scan Gr ladder
  // (tests/gr_oracle.h). Returns one handle per subscriber. kInfeasible
  // with the assigner unchanged when no live leaf broker exists or
  // alpha < 1.
  Result<std::vector<int>> AddBatch(const std::vector<wl::Subscriber>& batch);

  // Work counters accumulated by Add and AddBatch since construction.
  const AddStats& add_stats() const { return add_stats_; }

  // Removes a previously added subscriber (any state). Filters stay as
  // they are (stale but safe). The slot is recycled by a later Add.
  // kInvalidArgument with the assigner unchanged if the handle is vacant
  // or out of range.
  Status Remove(int handle);

  // ---- Crash-stop failure events ----

  // Fails a broker. Interior broker: its children splice up to their
  // nearest live ancestor; assignments are untouched (nesting makes the
  // splice filter-safe). Leaf broker: its subscribers become kOrphaned
  // (load released, leaf cleared) until a repair places them elsewhere.
  Status FailBroker(int node);

  // Recovers a failed broker, empty. A recovered leaf's filter is cleared
  // (its subscribers were re-placed during the outage); a recovered
  // interior broker's filter is rebuilt from its live children and the
  // growth is propagated up so the nesting condition holds again.
  Status RecoverBroker(int node);

  // ---- Repair/inspection surface (used by core::RepairEngine) ----

  const net::BrokerTree& tree() const { return tree_; }
  const SaConfig& config() const { return config_; }

  // Number of slots ever allocated; handles are in [0, slot_count()) and a
  // vacant slot answers is_occupied() == false.
  int slot_count() const { return static_cast<int>(slots_.size()); }
  // Current filter rectangles of a broker node (empty for the publisher).
  const std::vector<geo::Rectangle>& filter(int node) const {
    return filters_[node];
  }

  bool is_occupied(int handle) const {
    return handle >= 0 && handle < slot_count() && slots_[handle].occupied;
  }
  // The accessors below take an occupied handle (load_of: a leaf node);
  // any other argument fails an audit check (abort) in every build type.
  SubscriberState state(int handle) const {
    return OccupiedSlot(handle, "state: handle ").state;
  }
  const wl::Subscriber& subscriber(int handle) const {
    return OccupiedSlot(handle, "subscriber: handle ").subscriber;
  }
  // Assigned leaf node of a placed subscriber; -1 when parked/orphaned.
  int leaf_of(int handle) const {
    return OccupiedSlot(handle, "leaf_of: handle ").leaf;
  }
  // Violation record of a kDegraded subscriber.
  const DegradedViolation& violation(int handle) const {
    return OccupiedSlot(handle, "violation: handle ").violation;
  }

  // Handles currently orphaned (oldest first).
  const std::vector<int>& orphans() const { return orphans_; }
  std::vector<int> degraded_handles() const;

  // Load cap per live leaf at load-balance factor `lbf`:
  // lbf · expected_population / (number of live leaves).
  double LoadCap(double lbf) const;
  // Current load of a live leaf node.
  int load_of(int leaf_node) const;
  // Starts the assigner's Gr session for `s` and returns it: `s` priced
  // against the current filters over the live overlay, latency pass
  // included (config().latency_mode, bound over the designed tree). Valid
  // until the filters or the topology change, or the next Price, Add or
  // AddBatch.
  GrKernel& Price(const wl::Subscriber& s);
  // One rung of the Gr ladder for the subscriber the session prices: among
  // live leaves within its latency bound with room for one more under
  // `cap` (+inf: none checked), skipping vetoed leaves when `use_veto`,
  // the first of least cost; -1 if none.
  int BestLeafWithin(double cap, bool use_veto);

  // Places an orphaned/degraded/live subscriber at `leaf` (a live leaf):
  // releases any previous placement, grows filters along the live path,
  // updates loads, and sets the state/violation. kInvalidArgument if the
  // handle is vacant or `leaf` is not a live leaf.
  Status PlaceAt(int handle, int leaf, SubscriberState new_state,
                 DegradedViolation violation = {});

  // Parks a subscriber unassigned in the degraded state (no live leaf
  // could take it). Releases any previous placement.
  Status Park(int handle, DegradedViolation violation);

  // Subscribers in state kLive.
  int live_count() const { return live_count_; }
  // All tracked subscribers (live + orphaned + degraded).
  int population() const { return population_; }

  // ---- Placement veto (soft-state suspicion policy, DESIGN.md §13) ----
  //
  // An installed veto marks live leaves that should not receive *new*
  // placements (the liveness tracker vetoes suspect leaves: a broker that
  // missed heartbeats keeps its current subscribers — evacuation waits for
  // a death declaration — but stops accumulating new ones, bounding the
  // churn a false suspicion can cause). The veto is advisory: whenever
  // every live leaf is vetoed, placement proceeds as if no veto were
  // installed, so an arrival never bounces on suspicion alone. A default-
  // constructed (empty) function clears the veto; with no veto installed
  // behavior is bit-identical to before the veto existed.
  void set_placement_veto(std::function<bool(int leaf)> veto) {
    placement_veto_ = std::move(veto);
  }
  bool has_placement_veto() const {
    return static_cast<bool>(placement_veto_);
  }
  // True iff a veto is installed and rejects `leaf`.
  bool leaf_vetoed(int leaf) const {
    return placement_veto_ && placement_veto_(leaf);
  }
  // The advisory rule: honor the veto only while some live leaf is not
  // vetoed.
  bool UseVeto() const;

  // Leaf loads by (static) leaf index.
  const std::vector<int>& loads() const { return loads_; }

  // Σ_i Vol(f_i) over live brokers with the current (possibly stale)
  // filters. Failed brokers carry no traffic and are excluded.
  double CurrentBandwidth() const;

  // Σ_i Vol(f'_i) over live brokers if every filter were rebuilt tightly
  // from the live subscriptions (the reoptimization headroom: the same
  // brokers as CurrentBandwidth). Uses ≤α MEB clustering.
  double TightBandwidth(Rng& rng) const;

  // Rebuilds the deployment offline from all tracked subscribers (orphans
  // and degraded included — a global re-solve is their second chance)
  // using the supplied algorithm and installs the fresh assignment and
  // filters over the live topology. Live handles remain valid.
  void Reoptimize(
      const std::function<SaSolution(const SaProblem&, Rng&)>& algorithm,
      Rng& rng);

  // Materializes the current state as a (problem, solution) pair for
  // metrics/validation over the *static* tree. Only kLive subscribers are
  // included (orphans have no placement; degraded ones violate the very
  // constraints validators check).
  std::pair<SaProblem, SaSolution> Snapshot() const;

  // Snapshot over the *live* overlay with compacted node ids (failed
  // brokers dropped): the problem every tracked subscriber — live,
  // orphaned, degraded — should be re-solved against. With no failures
  // the id mapping is the identity.
  struct LiveSnapshot {
    SaProblem problem;
    std::vector<int> row_handle;  // problem row -> assigner handle
    std::vector<int> to_static;   // live node id -> static node id
    std::vector<int> to_live;     // static node id -> live id (-1 = failed)
  };
  // kInfeasible when no subscriber is tracked or no live leaf exists.
  Result<LiveSnapshot> SnapshotLive() const;

 private:
  struct Slot {
    wl::Subscriber subscriber;
    int leaf = -1;  // assigned leaf node; -1 when orphaned/parked/free
    bool occupied = false;
    SubscriberState state = SubscriberState::kLive;
    DegradedViolation violation;
  };

  // slots_[handle] after the accessors' check. Inline because routing calls
  // leaf_of once per match; the report is built out of line.
  const Slot& OccupiedSlot(int handle, const char* what) const {
    SLP_AUDIT_CHECK(audit::Category::kDcheck, is_occupied(handle),
                    BadArgument(what, handle));
    return slots_[handle];
  }
  // `what` followed by `arg`: the context of a failed accessor check.
  [[gnu::cold]] static std::string BadArgument(const char* what, int arg);

  // Starts a batch: kInfeasible when no live leaf exists or alpha < 1;
  // otherwise sets the veto rule, the β/β_max caps and their headroom.
  Status BeginBatch();
  // Places one arrival of the current batch and returns its handle.
  int AdmitOne(const wl::Subscriber& s);
  // Bumps a leaf's load and the population, keeping the batch's headroom.
  void Occupy(int leaf);
  // Fills a slot (recycling the lowest free handle, as Add always has,
  // into the vacated slot's buffers) with a subscriber placed at `leaf`
  // `excess` above its latency bound, and returns the handle. The caller
  // has already grown filters and occupied the leaf.
  int CommitSlot(const wl::Subscriber& s, int leaf, double excess);
  // Releases a slot's current placement (load + leaf), if any.
  void ReleasePlacement(Slot* slot);
  // Drops `handle` from orphans_ if present.
  void DropOrphan(int handle);
  // Installs a fresh solution from a live snapshot back into the slots.
  void InstallLive(const LiveSnapshot& snap, const SaSolution& fresh);

  net::BrokerTree tree_;
  SaConfig config_;
  int expected_population_;
  std::function<bool(int)> placement_veto_;  // empty = no veto

  std::vector<Slot> slots_;
  // Free (unoccupied) slot handles, lowest first — replaces the linear
  // free-slot scan Add used to do (O(population) per arrival). Remove
  // pushes; CommitSlot pops. The heap always holds exactly the vacant
  // handles, so popping the minimum reproduces the historical
  // first-free-slot choice.
  std::priority_queue<int, std::vector<int>, std::greater<>> free_slots_;
  AddStats add_stats_;
  int live_count_ = 0;
  int population_ = 0;
  std::vector<int> orphans_;
  std::vector<int> loads_;       // by static leaf index
  std::vector<int> leaf_index_;  // node id -> leaf index
  FilterTable filters_;
  // The Gr session and the rest of the current batch's state (Add is a
  // batch of one). gr_ is read only through Price, which restarts it, so a
  // copied assigner never reads the session of the one it was copied from.
  GrKernel gr_;
  bool use_veto_ = false;
  double caps_[2] = {0, 0};   // load caps at β, β_max
  int headroom_[2] = {0, 0};  // live leaves with room under each cap
};

}  // namespace slp::core

#endif  // SLP_CORE_DYNAMIC_H_
