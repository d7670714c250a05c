// Invariant-audit framework: debug-only checks and deep structural
// auditors with per-category trip accounting (DESIGN.md §10).
//
// Three layers:
//
//  * SLP_DCHECK(expr) — a debug-only assertion for programming errors.
//    Compiled out entirely in Release builds (NDEBUG): the expression is
//    never evaluated, so it must be side-effect free.
//
//  * SLP_INVARIANT(category, expr, context) — a debug-only *categorized*
//    check with a context string, used at call sites that guard one of
//    the paper's structural invariants (nesting, basis coherence, flow
//    conservation, ...). Also compiled out in Release.
//
//  * SLP_AUDIT_CHECK(category, expr, context) — the always-compiled
//    check the deep auditors (AuditNesting, AuditFlowConservation, the
//    simplex's tableau self-audit, ...) are built from. Auditor
//    *functions* exist in every build type so tests can drive them
//    directly; only their library *call sites* (wired at phase
//    boundaries, gated on SLP_AUDITS_ENABLED) vanish in Release.
//
// Every failing check bumps an atomic per-category trip counter and
// invokes the installed failure handler. The default handler prints a
// structured message (category, expression, file:line, context) and
// aborts; tests install a recording handler instead, so a seeded
// corruption can be asserted to trip exactly the intended auditor
// without death tests.

#ifndef SLP_COMMON_INVARIANT_H_
#define SLP_COMMON_INVARIANT_H_

#include <string>

namespace slp::audit {

// Violation categories, one per auditor family. kDcheck covers plain
// SLP_DCHECK failures (uncategorized programming errors).
enum class Category : int {
  kDcheck = 0,
  kRectangle,      // lo <= hi, finite coordinates
  kNesting,        // filter nesting / subscriber containment
  kBasis,          // LP basis coherence, B·B^-1 residual, eta length
  kFlow,           // per-node flow balance + capacity bounds
  kLiveOverlay,    // parent/child symmetry, spliced reachability
  kMatchIndex,     // grid-index probe answers ≡ linear rectangle scan
  kDissemination,  // dissemination counter identities (cross-counter sums)
  kLiveness,       // lease-tracker state vs overlay state coherence
  kCount,
};

const char* ToString(Category category);

// A structured invariant-violation record handed to the failure handler.
struct Violation {
  Category category = Category::kDcheck;
  const char* expression = "";  // the failing condition, verbatim
  const char* file = "";
  int line = 0;
  std::string context;  // auditor-supplied detail (node ids, values, ...)
};

using Handler = void (*)(const Violation&);

// Installs `handler` as the process-wide failure handler and returns the
// previous one. Passing nullptr restores the default (print + abort).
// A non-default handler may return, in which case execution continues —
// that is the recording-handler contract tests rely on.
//
// Concurrency contract (DESIGN.md §15): handler installation and handler
// invocation are serialized on one internal mutex, so (a) SetFailureHandler
// does not return while a previously installed handler is still executing
// on another thread, and (b) a recording handler is never run by two
// tripping threads at once — its internal state needs no synchronization
// of its own. In exchange, a handler must not trip an audit or call
// SetFailureHandler itself (the lock is not recursive).
Handler SetFailureHandler(Handler handler);

// Violations reported in `category` since the last ResetTripCounts().
long trip_count(Category category);
void ResetTripCounts();

// Reports a violation: bumps the category counter, then invokes the
// installed handler.
void Fail(Category category, const char* expression, const char* file,
          int line, std::string context = {});

}  // namespace slp::audit

// Library call sites wire the deep auditors only when this is 1 (debug
// builds). Release keeps the auditors linkable but never calls them from
// library code, so hot paths carry zero audit cost.
#ifdef NDEBUG
#define SLP_AUDITS_ENABLED 0
#else
#define SLP_AUDITS_ENABLED 1
#endif

// Always-compiled categorized check; the building block of the auditors.
#define SLP_AUDIT_CHECK(category, expr, context)                          \
  do {                                                                    \
    if (!(expr)) {                                                        \
      ::slp::audit::Fail((category), #expr, __FILE__, __LINE__, (context)); \
    }                                                                     \
  } while (false)

#if SLP_AUDITS_ENABLED

#define SLP_DCHECK(expr) \
  SLP_AUDIT_CHECK(::slp::audit::Category::kDcheck, expr, std::string())

#define SLP_INVARIANT(category, expr, context) \
  SLP_AUDIT_CHECK(category, expr, context)

#else  // !SLP_AUDITS_ENABLED

// Release: the condition is swallowed unevaluated. The dead `(void)`
// reference keeps variables used only in checks from tripping
// -Wunused-variable.
#define SLP_DCHECK(expr)         \
  do {                           \
    if (false) {                 \
      (void)(expr);              \
    }                            \
  } while (false)

#define SLP_INVARIANT(category, expr, context) \
  do {                                         \
    if (false) {                               \
      (void)(category);                        \
      (void)(expr);                            \
      (void)(context);                         \
    }                                          \
  } while (false)

#endif  // SLP_AUDITS_ENABLED

#endif  // SLP_COMMON_INVARIANT_H_
