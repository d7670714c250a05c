// Deep auditors for assignment-layer invariants (DESIGN.md §10).
//
// AuditNesting re-derives the paper's two structural conditions over a
// finished (problem, solution) pair:
//  * coverage — every subscriber is assigned to a leaf broker whose filter
//    contains its subscription in a single rectangle;
//  * nesting — every non-publisher broker's filter is rectangle-wise
//    covered by its parent's filter;
// plus finiteness of every installed rectangle. Violations are reported
// through slp::audit::Fail with Category::kNesting (rectangle finiteness
// goes to Category::kRectangle via the geometry auditor).
//
// AuditLiveFilters checks the weaker invariant DynamicAssigner maintains
// incrementally: for every *placed* tracked subscriber, each broker on the
// live path from the publisher to its leaf has a filter rectangle
// containing the subscription. (Rectangle-wise nesting is not guaranteed
// between reoptimizations — incremental least-enlargement merges only
// preserve per-subscription coverage — so that stronger check belongs to
// AuditNesting on fresh solutions, not here.)
//
// The auditor functions are compiled in all build types so tests can drive
// them directly; library call sites are wired under SLP_AUDITS_ENABLED.

#ifndef SLP_CORE_AUDIT_H_
#define SLP_CORE_AUDIT_H_

namespace slp::core {

class SaProblem;
struct SaSolution;
class DynamicAssigner;

// Audits coverage + nesting + rectangle sanity of a complete solution.
void AuditNesting(const SaProblem& problem, const SaSolution& solution);

// Audits per-subscriber live-path coverage of a dynamic deployment.
void AuditLiveFilters(const DynamicAssigner& dyn);

}  // namespace slp::core

#endif  // SLP_CORE_AUDIT_H_
