// The routing kernel shared by sim::Simulate and sim::ReplayWithFaults
// (DESIGN.md §11). Internal: callers outside src/sim use those two.
//
// In the paper's forwarding model (Section II) an event enters a broker
// iff its parent forwarded it and it lies inside the broker's filter, and
// a leaf delivers it to each assigned subscriber whose subscription
// matches. So the event's matching subscriptions decide every delivery,
// and Router::Route handles one event in three steps:
//  1. a DFS from the publisher that enters each broker it visits by the
//     caller's test, counting broker hits and marking the leaves reached;
//  2. one walk over the event's matching subscriptions, telling the
//     caller's hook for each whether its subscriber's leaf was reached
//     (and marking a reached leaf served);
//  3. a clear that counts every reached but unserved leaf as a wasted hit.
// Simulate routes the designed tree, entering brokers by one broker-index
// probe per event; the replay routes the believed live overlay, testing
// each visited broker's current filter, and an actually-down broker
// receives the message its believed parent sent but forwards nothing.
//
// The probes come from a Matcher. Production uses the grid indexes of
// src/match (IndexedMatcher); tests substitute a brute-force scan through
// the detail:: entry points of Simulate and ReplayWithFaults.

#ifndef SLP_SIM_ROUTE_H_
#define SLP_SIM_ROUTE_H_

#include <cstdint>
#include <vector>

#include "src/geometry/point.h"
#include "src/match/bitset.h"
#include "src/match/match_index.h"
#include "src/network/broker_tree.h"
#include "src/sim/dissemination.h"

namespace slp::sim::detail {

// The point probes of routing: broker filters (Simulate only) and
// subscriptions. The Index* calls replace what is indexed; the probes are
// const and may run concurrently from several Routers.
class Matcher {
 public:
  Matcher() = default;
  Matcher(const Matcher&) = delete;
  Matcher& operator=(const Matcher&) = delete;
  virtual ~Matcher() = default;

  // Broker filters: one entry per filter rectangle, owner = node id.
  virtual void IndexBrokers(const std::vector<match::OwnedRect>& rects,
                            int num_nodes) = 0;
  // Subscriptions: one entry per subscriber, owner = subscriber id.
  virtual void IndexSubscriptions(const std::vector<match::OwnedRect>& rects,
                                  int num_subscribers) = 0;

  // Sets the bit of every broker whose filter contains e and appends each
  // such broker to `hits` once.
  virtual void ProbeBrokers(const geo::Point& e, match::BitSet* brokers,
                            std::vector<int32_t>* hits) const = 0;
  // Appends every subscriber whose subscription contains e.
  virtual void AppendSubscriptions(const geo::Point& e,
                                   std::vector<int32_t>* out) const = 0;
};

// The production matcher: one grid index per side, audited against its
// input under SLP_AUDITS_ENABLED.
class IndexedMatcher final : public Matcher {
 public:
  void IndexBrokers(const std::vector<match::OwnedRect>& rects,
                    int num_nodes) override;
  void IndexSubscriptions(const std::vector<match::OwnedRect>& rects,
                          int num_subscribers) override;
  void ProbeBrokers(const geo::Point& e, match::BitSet* brokers,
                    std::vector<int32_t>* hits) const override {
    brokers_.Probe(e, brokers, hits);
  }
  void AppendSubscriptions(const geo::Point& e,
                           std::vector<int32_t>* out) const override {
    subscriptions_.AppendContaining(e, out);
  }

 private:
  match::MatchIndex brokers_;
  match::MatchIndex subscriptions_;
};

// One thread's routing workspace: the event's marks, cleared in O(marks)
// after every event, so routing allocates nothing per event.
class Router {
 public:
  Router(const Matcher& matcher, int num_nodes)
      : matcher_(matcher), reached_(num_nodes), served_(num_nodes) {}

  // Routes e and counts broker_hits, total_messages and wasted_leaf_hits
  // into `stats`. The caller describes the overlay and the subscribers:
  //  * children(v) -> const std::vector<int>&: v's children in the routed
  //    overlay (called for the publisher and for forwarding brokers);
  //  * enters(v) -> bool: whether e lies inside v's filter (called for
  //    every broker the DFS visits);
  //  * forwards(v) -> bool: whether an entered broker passes e on (a leaf
  //    that does not forward is not reached);
  //  * leaf_of(s) -> int: subscriber s's leaf, or -1 if it has none;
  //  * on_match(s, leaf, reached): called once per subscriber whose
  //    subscription contains e; `reached` is whether e arrived at `leaf`.
  template <typename Children, typename Enters, typename Forwards,
            typename LeafOf, typename OnMatch>
  void Route(const geo::Point& e, const net::BrokerTree& tree,
             Children&& children, Enters&& enters, Forwards&& forwards,
             LeafOf&& leaf_of, OnMatch&& on_match,
             DisseminationStats* stats) {
    const std::vector<int>& roots = children(net::BrokerTree::kPublisher);
    stack_.assign(roots.begin(), roots.end());
    while (!stack_.empty()) {
      const int v = stack_.back();
      stack_.pop_back();
      if (!enters(v)) continue;
      ++stats->broker_hits[v];
      ++stats->total_messages;
      if (!forwards(v)) continue;
      if (tree.is_leaf(v)) {
        reached_.Set(v);
        reached_leaves_.push_back(v);
      } else {
        const std::vector<int>& kids = children(v);
        stack_.insert(stack_.end(), kids.begin(), kids.end());
      }
    }

    matches_.clear();
    matcher_.AppendSubscriptions(e, &matches_);
    for (const int32_t s : matches_) {
      const int leaf = leaf_of(s);
      const bool reached = leaf >= 0 && reached_.Test(leaf);
      if (reached) served_.Set(leaf);
      on_match(s, leaf, reached);
    }

    for (const int v : reached_leaves_) {
      if (!served_.Test(v)) ++stats->wasted_leaf_hits;
      reached_.Reset(v);
      served_.Reset(v);
    }
    reached_leaves_.clear();
  }

 private:
  const Matcher& matcher_;
  match::BitSet reached_;  // leaves the event arrived at
  match::BitSet served_;   // reached leaves with a matching subscriber
  std::vector<int> reached_leaves_;
  std::vector<int> stack_;
  std::vector<int32_t> matches_;
};

}  // namespace slp::sim::detail

#endif  // SLP_SIM_ROUTE_H_
