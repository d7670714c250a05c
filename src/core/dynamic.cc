#include "src/core/dynamic.h"

#include <algorithm>
#include <limits>
#include <string>
#include <utility>

#include "src/common/invariant.h"
#include "src/common/status.h"
#include "src/core/audit.h"
#include "src/core/filter_adjust.h"
#include "src/geometry/filter.h"
#include "src/geometry/union_volume.h"
#include "src/network/audit.h"

namespace slp::core {

namespace {

// Deterministically covers `rects` with at most `alpha` rectangles by
// repeatedly merging the pair whose enclosure wastes the least volume.
// Used when a recovered interior broker rebuilds its filter from its live
// children; deterministic on purpose (recovery takes no Rng).
std::vector<geo::Rectangle> GreedyMergeToAlpha(
    std::vector<geo::Rectangle> rects, int alpha) {
  if (alpha < 1) alpha = 1;
  while (static_cast<int>(rects.size()) > alpha) {
    double best = std::numeric_limits<double>::infinity();
    size_t bi = 0, bj = 1;
    for (size_t i = 0; i < rects.size(); ++i) {
      for (size_t j = i + 1; j < rects.size(); ++j) {
        const double waste = rects[i].EnclosureVolume(rects[j]) -
                             rects[i].Volume() - rects[j].Volume();
        if (waste < best) {
          best = waste;
          bi = i;
          bj = j;
        }
      }
    }
    rects[bi].Enclose(rects[bj]);
    rects.erase(rects.begin() + bj);
  }
  return rects;
}

}  // namespace

DynamicAssigner::DynamicAssigner(net::BrokerTree tree, SaConfig config,
                                 int expected_population)
    : tree_(std::move(tree)),
      config_(config),
      expected_population_(expected_population) {
  SLP_DCHECK(expected_population_ > 0);
  const auto& leaves = tree_.leaf_brokers();
  SLP_DCHECK(!leaves.empty());
  loads_.assign(leaves.size(), 0);
  leaf_index_.assign(tree_.num_nodes(), -1);
  for (size_t i = 0; i < leaves.size(); ++i) {
    leaf_index_[leaves[i]] = static_cast<int>(i);
  }
  filters_.resize(tree_.num_nodes());
}

double DynamicAssigner::LoadCap(double lbf) const {
  // Equal capacity fractions over *live* leaves; caps scale with the
  // expected population. Losing brokers raises the survivors' caps — the
  // remaining fleet absorbs the load.
  const size_t live = tree_.live_leaf_brokers().size();
  if (live == 0) return 0;
  return lbf * expected_population_ / static_cast<double>(live);
}

int DynamicAssigner::load_of(int leaf_node) const {
  SLP_AUDIT_CHECK(audit::Category::kDcheck,
                  leaf_node >= 0 && leaf_node < tree_.num_nodes() &&
                      leaf_index_[leaf_node] >= 0,
                  BadArgument("load_of: node ", leaf_node));
  return loads_[leaf_index_[leaf_node]];
}

std::string DynamicAssigner::BadArgument(const char* what, int arg) {
  return what + std::to_string(arg);
}

GrKernel& DynamicAssigner::Price(const wl::Subscriber& s) {
  gr_.Start(tree_, filters_, config_.alpha, s.subscription);
  gr_.MeasureLatency(config_, s.location);
  return gr_;
}

bool DynamicAssigner::UseVeto() const {
  if (!placement_veto_) return false;
  for (int leaf : tree_.live_leaf_brokers()) {
    if (!placement_veto_(leaf)) return true;
  }
  return false;
}

int DynamicAssigner::BestLeafWithin(double cap, bool use_veto) {
  int best = -1;
  double best_cost = std::numeric_limits<double>::infinity();
  for (int leaf : tree_.live_leaf_brokers()) {
    if (use_veto && leaf_vetoed(leaf)) continue;
    if (gr_.latency(leaf) > gr_.bound() + 1e-12) continue;
    if (loads_[leaf_index_[leaf]] + 1 > cap + 1e-9) continue;
    const double cost = gr_.Cost(leaf);
    if (cost < best_cost) {
      best_cost = cost;
      best = leaf;
    }
  }
  return best;
}

Result<int> DynamicAssigner::Add(const wl::Subscriber& subscriber) {
  SLP_RETURN_IF_ERROR(BeginBatch());
  return AdmitOne(subscriber);
}

Result<std::vector<int>> DynamicAssigner::AddBatch(
    const std::vector<wl::Subscriber>& batch) {
  SLP_RETURN_IF_ERROR(BeginBatch());
  std::vector<int> handles;
  handles.reserve(batch.size());
  for (const wl::Subscriber& s : batch) handles.push_back(AdmitOne(s));
  return handles;
}

Status DynamicAssigner::BeginBatch() {
  const auto& live_leaves = tree_.live_leaf_brokers();
  if (live_leaves.empty()) {
    return Status::Infeasible("no live leaf broker");
  }
  if (config_.alpha < 1) {
    return Status::Infeasible("filter complexity alpha must be >= 1");
  }
  // The veto predicate is constant within a batch (the tracker only
  // mutates between ticks, never mid-batch).
  use_veto_ = UseVeto();
  // Rung caps are constant for the whole batch: they depend only on the
  // live-leaf count (no topology events inside a batch) and the expected
  // population. Loads only grow within a batch, so once no leaf has
  // headroom at a rung, every later scan of that rung is provably futile
  // — track the headroom counts and skip those scans (counted).
  caps_[0] = LoadCap(config_.beta);
  caps_[1] = LoadCap(config_.beta_max);
  headroom_[0] = headroom_[1] = 0;
  for (int leaf : live_leaves) {
    const int load = loads_[leaf_index_[leaf]];
    for (int rung = 0; rung < 2; ++rung) {
      headroom_[rung] += (load + 1 <= caps_[rung] + 1e-9) ? 1 : 0;
    }
  }
  return Status::OK();
}

int DynamicAssigner::AdmitOne(const wl::Subscriber& s) {
  ++add_stats_.arrivals;
  Price(s);
  const int64_t costs_before = gr_.leaf_costs();
  // The β → β_max → ∞ ladder; the kernel prices each leaf once across it.
  int leaf = -1;
  for (int rung = 0; rung < 3 && leaf < 0; ++rung) {
    if (rung < 2 && headroom_[rung] == 0) {
      ++add_stats_.escalation_skips;
      continue;
    }
    ++add_stats_.escalation_scans;
    leaf = BestLeafWithin(
        rung < 2 ? caps_[rung] : std::numeric_limits<double>::infinity(),
        use_veto_);
  }
  if (leaf < 0) {
    // Failures took every leaf that met the static promise: admit at the
    // smallest latency excess (ties by enlargement cost), recorded below
    // as a degradation.
    ++add_stats_.escalation_scans;
    double best_excess = std::numeric_limits<double>::infinity();
    double best_cost = std::numeric_limits<double>::infinity();
    for (int candidate : tree_.live_leaf_brokers()) {
      if (use_veto_ && leaf_vetoed(candidate)) continue;
      const double excess = gr_.latency(candidate) - gr_.bound();
      const double cost = gr_.Cost(candidate);
      if (excess < best_excess - 1e-12 ||
          (excess < best_excess + 1e-12 && cost < best_cost)) {
        best_excess = excess;
        best_cost = cost;
        leaf = candidate;
      }
    }
  }
  add_stats_.cost_evals += gr_.leaf_costs() - costs_before;

  const Status grown =
      GrowLivePath(tree_, leaf, s.subscription, config_.alpha, &filters_);
  SLP_DCHECK(grown.ok());  // BeginBatch rejected alpha < 1
  Occupy(leaf);
  return CommitSlot(s, leaf, gr_.latency(leaf) - gr_.bound());
}

void DynamicAssigner::Occupy(int leaf) {
  const int idx = leaf_index_[leaf];
  for (int rung = 0; rung < 2; ++rung) {
    // Headroom lost iff the leaf could take this arrival but not one more.
    if (loads_[idx] + 1 <= caps_[rung] + 1e-9 &&
        loads_[idx] + 2 > caps_[rung] + 1e-9) {
      --headroom_[rung];
    }
  }
  ++loads_[idx];
  ++population_;
}

int DynamicAssigner::CommitSlot(const wl::Subscriber& s, int leaf,
                                double excess) {
  int h = static_cast<int>(slots_.size());
  if (free_slots_.empty()) {
    Slot fresh;
    fresh.subscriber = s;  // copied before growing: `s` may be a slot's
    slots_.push_back(std::move(fresh));
  } else {
    h = free_slots_.top();
    free_slots_.pop();
    slots_[h].subscriber = s;  // copy-assignment reuses the vacated buffers
  }
  Slot& slot = slots_[h];
  SLP_DCHECK(!slot.occupied);
  slot.leaf = leaf;
  slot.occupied = true;
  slot.violation = {};
  if (excess > 1e-12) {
    slot.state = SubscriberState::kDegraded;
    slot.violation.latency = excess;
  } else {
    slot.state = SubscriberState::kLive;
    ++live_count_;
  }
  return h;
}

void DynamicAssigner::ReleasePlacement(Slot* slot) {
  if (slot->leaf >= 0) {
    --loads_[leaf_index_[slot->leaf]];
    slot->leaf = -1;
  }
}

void DynamicAssigner::DropOrphan(int handle) {
  orphans_.erase(std::remove(orphans_.begin(), orphans_.end(), handle),
                 orphans_.end());
}

Status DynamicAssigner::Remove(int handle) {
  if (!is_occupied(handle)) {
    return Status::InvalidArgument("Remove: vacant handle");
  }
  Slot& slot = slots_[handle];
  ReleasePlacement(&slot);
  if (slot.state == SubscriberState::kLive) --live_count_;
  if (slot.state == SubscriberState::kOrphaned) DropOrphan(handle);
  --population_;
  slot.occupied = false;
  slot.state = SubscriberState::kLive;
  slot.violation = {};
  free_slots_.push(handle);
  // Filters intentionally stay: shrinking online could uncover remaining
  // subscribers. Staleness is reclaimed by Reoptimize().
  return Status::OK();
}

Status DynamicAssigner::FailBroker(int node) {
  SLP_RETURN_IF_ERROR(tree_.FailBroker(node));
#if SLP_AUDITS_ENABLED
  net::AuditLiveOverlay(tree_);
#endif
  if (leaf_index_[node] < 0) return Status::OK();  // interior: splice only
  // Leaf failure: its subscribers lose their broker.
  for (size_t h = 0; h < slots_.size(); ++h) {
    Slot& slot = slots_[h];
    if (!slot.occupied || slot.leaf != node) continue;
    ReleasePlacement(&slot);
    if (slot.state == SubscriberState::kLive) --live_count_;
    slot.state = SubscriberState::kOrphaned;
    slot.violation = {};
    orphans_.push_back(static_cast<int>(h));
  }
  return Status::OK();
}

Status DynamicAssigner::RecoverBroker(int node) {
  SLP_RETURN_IF_ERROR(tree_.RecoverBroker(node));
#if SLP_AUDITS_ENABLED
  net::AuditLiveOverlay(tree_);
#endif
  if (leaf_index_[node] >= 0) {
    // A recovered leaf comes back empty: its subscribers were re-placed
    // (or parked) during the outage, and a stale filter could violate
    // nesting if ancestors were reoptimized meanwhile.
    filters_[node].clear();
    return Status::OK();
  }
  // Recovered interior broker: while it was down its (spliced) children
  // kept growing through its ancestors, so its own filter is stale.
  // Rebuild it from the live children and propagate the growth upward so
  // f_child ⊆ f_node ⊆ f_ancestors holds again.
  std::vector<geo::Rectangle> child_rects;
  for (int c : tree_.live_children(node)) {
    child_rects.insert(child_rects.end(), filters_[c].begin(),
                       filters_[c].end());
  }
  filters_[node] =
      GreedyMergeToAlpha(std::move(child_rects), config_.alpha);
  for (int a = tree_.live_parent(node); a != net::BrokerTree::kPublisher;
       a = tree_.live_parent(a)) {
    for (const auto& r : filters_[node]) {
      SLP_RETURN_IF_ERROR(Incorporate(r, config_.alpha, &filters_[a]));
    }
  }
  return Status::OK();
}

std::vector<int> DynamicAssigner::degraded_handles() const {
  std::vector<int> out;
  for (size_t h = 0; h < slots_.size(); ++h) {
    if (slots_[h].occupied && slots_[h].state == SubscriberState::kDegraded) {
      out.push_back(static_cast<int>(h));
    }
  }
  return out;
}

Status DynamicAssigner::PlaceAt(int handle, int leaf,
                                SubscriberState new_state,
                                DegradedViolation violation) {
  if (!is_occupied(handle)) {
    return Status::InvalidArgument("PlaceAt: vacant handle");
  }
  if (leaf < 0 || leaf >= tree_.num_nodes() || leaf_index_[leaf] < 0 ||
      tree_.is_failed(leaf)) {
    return Status::InvalidArgument("PlaceAt: not a live leaf");
  }
  if (new_state == SubscriberState::kOrphaned) {
    return Status::InvalidArgument("PlaceAt: cannot place into kOrphaned");
  }
  Slot& slot = slots_[handle];
  SLP_RETURN_IF_ERROR(GrowLivePath(tree_, leaf, slot.subscriber.subscription,
                                   config_.alpha, &filters_));
  ReleasePlacement(&slot);
  slot.leaf = leaf;
  ++loads_[leaf_index_[leaf]];
  if (slot.state == SubscriberState::kLive) --live_count_;
  if (new_state == SubscriberState::kLive) ++live_count_;
  slot.state = new_state;
  slot.violation =
      new_state == SubscriberState::kDegraded ? violation : DegradedViolation{};
  DropOrphan(handle);
  return Status::OK();
}

Status DynamicAssigner::Park(int handle, DegradedViolation violation) {
  if (!is_occupied(handle)) {
    return Status::InvalidArgument("Park: vacant handle");
  }
  Slot& slot = slots_[handle];
  ReleasePlacement(&slot);
  if (slot.state == SubscriberState::kLive) --live_count_;
  slot.state = SubscriberState::kDegraded;
  violation.unplaced = true;
  slot.violation = violation;
  DropOrphan(handle);
  return Status::OK();
}

double DynamicAssigner::CurrentBandwidth() const {
  // Failed brokers carry no traffic.
  double total = 0;
  for (int v = 1; v < tree_.num_nodes(); ++v) {
    if (tree_.is_failed(v)) continue;
    total += geo::UnionVolume(filters_[v]);
  }
  return total;
}

double DynamicAssigner::TightBandwidth(Rng& rng) const {
  if (live_count_ == 0) return 0;
  auto [problem, solution] = Snapshot();
  SaSolution tight = solution;
  for (auto& f : tight.filters) f.Clear();
  AdjustLeafFilters(problem, &tight, rng);
  BuildInternalFilters(problem, &tight, rng);
  // Snapshot's tree keeps the static node ids but not the failures, so the
  // failed brokers are skipped here, as in CurrentBandwidth.
  double total = 0;
  for (int v = 1; v < tree_.num_nodes(); ++v) {
    if (tree_.is_failed(v)) continue;
    total += tight.filters[v].UnionVolume();
  }
  return total;
}

void DynamicAssigner::Reoptimize(
    const std::function<SaSolution(const SaProblem&, Rng&)>& algorithm,
    Rng& rng) {
  if (population_ == 0) {
    for (auto& f : filters_) f.clear();
    return;
  }
  Result<LiveSnapshot> snap = SnapshotLive();
  if (!snap.ok()) return;  // no live leaf: nothing to install onto
  InstallLive(snap.value(), algorithm(snap.value().problem, rng));
#if SLP_AUDITS_ENABLED
  AuditLiveFilters(*this);
#endif
}

void DynamicAssigner::InstallLive(const LiveSnapshot& snap,
                                  const SaSolution& fresh) {
  const SaProblem& problem = snap.problem;
  std::fill(loads_.begin(), loads_.end(), 0);
  live_count_ = 0;
  orphans_.clear();
  for (size_t row = 0; row < snap.row_handle.size(); ++row) {
    Slot& slot = slots_[snap.row_handle[row]];
    const int live_leaf = fresh.assignment[row];
    slot.leaf = snap.to_static[live_leaf];
    ++loads_[leaf_index_[slot.leaf]];
    // A fresh solve may still be forced outside the static latency promise
    // (failures, or greedy best-effort under load pressure): quantify
    // instead of pretending. With no failures this equals the snapshot
    // problem's own bound check.
    const GrKernel& gr = Price(slot.subscriber);
    const double excess = gr.latency(slot.leaf) - gr.bound();
    if (excess > 1e-12) {
      slot.state = SubscriberState::kDegraded;
      slot.violation = {};
      slot.violation.latency = excess;
    } else {
      slot.state = SubscriberState::kLive;
      slot.violation = {};
      ++live_count_;
    }
  }
  for (auto& f : filters_) f.clear();
  for (int lv = 0; lv < problem.tree().num_nodes(); ++lv) {
    const int v = snap.to_static[lv];
    filters_[v].assign(fresh.filters[lv].rects().begin(),
                       fresh.filters[lv].rects().end());
  }
}

std::pair<SaProblem, SaSolution> DynamicAssigner::Snapshot() const {
  SLP_DCHECK(live_count_ > 0);
  std::vector<wl::Subscriber> subs;
  std::vector<int> assignment;
  subs.reserve(live_count_);
  for (const Slot& slot : slots_) {
    if (!slot.occupied || slot.state != SubscriberState::kLive) continue;
    subs.push_back(slot.subscriber);
    assignment.push_back(slot.leaf);
  }
  // Copy the static tree via re-adding nodes (BrokerTree is append-only).
  net::BrokerTree tree_copy(tree_.location(net::BrokerTree::kPublisher));
  for (int v = 1; v < tree_.num_nodes(); ++v) {
    tree_copy.AddBroker(tree_.location(v), tree_.parent(v));
  }
  tree_copy.Finalize();
  SaProblem problem(std::move(tree_copy), std::move(subs), config_);

  SaSolution solution;
  solution.algorithm = "Dynamic";
  solution.assignment = std::move(assignment);
  solution.filters.reserve(tree_.num_nodes());
  for (int v = 0; v < tree_.num_nodes(); ++v) {
    solution.filters.emplace_back(filters_[v]);
  }
  return {std::move(problem), std::move(solution)};
}

Result<DynamicAssigner::LiveSnapshot> DynamicAssigner::SnapshotLive() const {
  if (population_ == 0) {
    return Status::Infeasible("no tracked subscribers");
  }
  if (tree_.live_leaf_brokers().empty()) {
    return Status::Infeasible("no live leaf broker");
  }
  // Keep exactly the live nodes on a live path to some live leaf; a live
  // interior broker whose leaves all failed would otherwise become a leaf
  // of the compacted tree and attract subscribers it cannot serve.
  std::vector<bool> keep(tree_.num_nodes(), false);
  for (int leaf : tree_.live_leaf_brokers()) {
    for (int v = leaf; v != net::BrokerTree::kPublisher;
         v = tree_.live_parent(v)) {
      if (keep[v]) break;
      keep[v] = true;
    }
  }
  std::vector<int> to_live(tree_.num_nodes(), -1);
  std::vector<int> to_static;
  net::BrokerTree live_tree(tree_.location(net::BrokerTree::kPublisher));
  to_static.push_back(net::BrokerTree::kPublisher);
  to_live[net::BrokerTree::kPublisher] = net::BrokerTree::kPublisher;
  for (int v = 1; v < tree_.num_nodes(); ++v) {
    if (!keep[v]) continue;
    const int lp = to_live[tree_.live_parent(v)];
    to_live[v] = live_tree.AddBroker(tree_.location(v), lp);
    to_static.push_back(v);
  }
  live_tree.Finalize();

  std::vector<wl::Subscriber> subs;
  std::vector<int> row_handle;
  subs.reserve(population_);
  for (size_t h = 0; h < slots_.size(); ++h) {
    if (!slots_[h].occupied) continue;
    subs.push_back(slots_[h].subscriber);
    row_handle.push_back(static_cast<int>(h));
  }
  LiveSnapshot snap{
      SaProblem(std::move(live_tree), std::move(subs), config_),
      std::move(row_handle), std::move(to_static), std::move(to_live)};
  return snap;
}

}  // namespace slp::core
