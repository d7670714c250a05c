// Deep auditor for the matching engine (DESIGN.md §10/§11): on a
// deterministic sample of probe points, the grid index's answer must equal
// a linear scan over the reference rectangles the index was built from.
//
// The probe sample is adversarial by construction: for a strided subset of
// reference rectangles it takes all 2^d corners, the face centers (the
// edge midpoints when d = 2), and the center — the corner/face probes are
// exactly the points where a closed-vs-half-open containment mismatch (or
// a grid cell-range off-by-one) shows up. Violations are reported through
// slp::audit::Fail with Category::kMatchIndex.
//
// As with every auditor, the function is compiled in all build types
// (tests drive it directly with a recording handler); library call sites
// at engine-build boundaries are wired under SLP_AUDITS_ENABLED.

#ifndef SLP_MATCH_AUDIT_H_
#define SLP_MATCH_AUDIT_H_

#include <string>
#include <vector>

#include "src/match/match_index.h"

namespace slp::match {

// Checks `index` against `reference` (the OwnedRect list it was built
// from): rectangle and owner counts, then probe-vs-linear-scan agreement
// on the boundary-heavy sample plus every point of `extra_probes`.
// `context` names the index's owner in failure messages.
void AuditIndex(const MatchIndex& index,
                const std::vector<OwnedRect>& reference,
                const std::string& context,
                const std::vector<geo::Point>& extra_probes = {});

}  // namespace slp::match

#endif  // SLP_MATCH_AUDIT_H_
