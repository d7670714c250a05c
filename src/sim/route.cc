#include "src/sim/route.h"

#include "src/common/invariant.h"
#include "src/match/audit.h"

namespace slp::sim::detail {

void IndexedMatcher::IndexBrokers(const std::vector<match::OwnedRect>& rects,
                                  int num_nodes) {
  brokers_ = match::BuildIndex(rects, num_nodes);
#if SLP_AUDITS_ENABLED
  match::AuditIndex(brokers_, rects, "routing broker index");
#endif
}

void IndexedMatcher::IndexSubscriptions(
    const std::vector<match::OwnedRect>& rects, int num_subscribers) {
  subscriptions_ = match::BuildIndex(rects, num_subscribers);
#if SLP_AUDITS_ENABLED
  match::AuditIndex(subscriptions_, rects, "routing subscription index");
#endif
}

}  // namespace slp::sim::detail
