#!/usr/bin/env python3
"""Repo-specific determinism and invariant-hygiene lint (DESIGN.md §10).

Checks library code under src/ for constructs the project bans:

  * raw assert() — library code must use SLP_DCHECK / SLP_INVARIANT so
    failures route through the audit framework (static_assert is fine);
  * SLP_CHECK — the aborting check is reserved for tests and the
    benchmark/example drivers; library code must not abort (the macro's
    definition in src/common/status.h is the one permitted occurrence);
  * nondeterministic randomness — rand()/srand()/random_device; all
    randomness must flow through the seeded slp::Rng (src/common/random.*),
    which is also the only place allowed to name mt19937;
  * wall clocks — std::chrono, <chrono>, steady_clock / system_clock /
    high_resolution_clock, clock_gettime, gettimeofday, and any include of
    src/common/timer.h: a library result depends only on its inputs, seeds
    and logical ticks, and a time budget is the caller's business, between
    calls. src/common/timer.h (the bench and test harness's WallTimer) is
    the one file allowed to read the clock;
  * unordered-container iteration — range-for over an unordered_map/set
    member feeds hash-order into whatever it computes, which breaks the
    repo's run-to-run determinism contract (see DESIGN.md §7). Ordered or
    indexed containers must be used wherever iteration order can reach
    output, float accumulation, or tie-breaking;
  * raw synchronization primitives — std::mutex / std::shared_mutex /
    lock_guard / unique_lock / condition_variable and friends bypass the
    Clang thread-safety annotations (DESIGN.md §15); all locking must go
    through the capability-annotated wrappers in src/common/sync.h, the
    single allowlisted file.

Exit status 0 when clean; 1 with a findings report otherwise.
Usage: python3 scripts/lint.py [repo_root]
       python3 scripts/lint.py --self-test

--self-test runs every checker against embedded positive/negative
fixtures (including the comment/string stripper) and exits nonzero on any
divergence; the CI lint job runs it before linting the tree.
"""

import pathlib
import re
import sys

FINDINGS = []
WARNINGS = []

# Flat-layout hygiene: the hot-path row tables (the flow's covers, the
# match index's cells) are flat CSR arrays, not vector-of-vector rows; new
# nested-vector storage in the core/match hot paths usually belongs in
# that layout instead. The check is WARNING-level only (never affects the
# exit status): the counts below are the grandfathered occurrences per
# file at the time of the CSR refactor — a file exceeding its baseline (or
# a new file introducing one) gets a nudge, not a failure.
NESTED_VECTOR_DIRS = ("src/core", "src/match")
NESTED_VECTOR_BASELINE = {
    "src/core/filter_adjust.cc": 3,
    "src/core/filter_assign.cc": 1,
    "src/core/filter_gen.cc": 2,
    "src/core/gr_kernel.h": 1,  # FilterTable, moved from dynamic.h
    "src/core/greedy.cc": 2,
    "src/core/lp_relax.cc": 2,
    "src/core/slp.cc": 4,
    "src/core/slp.h": 1,
    "src/core/subscription_assign.cc": 1,  # enrichment's pending rects
}


def strip_comments_and_strings(text):
    """Blanks out comments and string/char literals, preserving line count.

    Keeps column positions of surviving code roughly intact so findings can
    report meaningful lines.
    """
    out = []
    i, n = 0, len(text)
    mode = "code"  # code | line_comment | block_comment | string | char
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if mode == "code":
            if c == "/" and nxt == "/":
                mode = "line_comment"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                mode = "block_comment"
                out.append("  ")
                i += 2
                continue
            if c == '"':
                mode = "string"
                out.append(" ")
                i += 1
                continue
            if c == "'":
                mode = "char"
                out.append(" ")
                i += 1
                continue
            out.append(c)
        elif mode == "line_comment":
            if c == "\n":
                mode = "code"
                out.append("\n")
            else:
                out.append(" ")
        elif mode == "block_comment":
            if c == "*" and nxt == "/":
                mode = "code"
                out.append("  ")
                i += 2
                continue
            out.append("\n" if c == "\n" else " ")
        else:  # string or char
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if (mode == "string" and c == '"') or (mode == "char" and c == "'"):
                mode = "code"
                out.append(" ")
            else:
                out.append("\n" if c == "\n" else " ")
        i += 1
    return "".join(out)


def report(path, line, rule, message):
    FINDINGS.append(f"{path}:{line}: [{rule}] {message}")


def line_of(text, match_start):
    return text.count("\n", 0, match_start) + 1


def check_asserts(path, code):
    for m in re.finditer(r"(?<![\w.])assert\s*\(", code):
        before = code[max(0, m.start() - 7):m.start()]
        if before.endswith("static_"):
            continue
        report(path, line_of(code, m.start()), "no-raw-assert",
               "use SLP_DCHECK / SLP_INVARIANT instead of assert()")


def check_slp_check(path, code):
    if path.as_posix().endswith("src/common/status.h"):
        return  # the macro's own definition/documentation
    for m in re.finditer(r"\bSLP_CHECK\s*\(", code):
        report(path, line_of(code, m.start()), "no-abort-in-library",
               "SLP_CHECK aborts; library code must use SLP_DCHECK or "
               "return a Status")


def check_randomness(path, code):
    for m in re.finditer(r"(?<![\w:])(rand|srand)\s*\(", code):
        report(path, line_of(code, m.start()), "no-unseeded-rng",
               f"{m.group(1)}() is nondeterministic; use slp::Rng")
    for m in re.finditer(r"\brandom_device\b", code):
        report(path, line_of(code, m.start()), "no-unseeded-rng",
               "std::random_device is nondeterministic; use slp::Rng")
    if not path.as_posix().endswith(("src/common/random.h",
                                     "src/common/random.cc")):
        for m in re.finditer(r"\bmt19937(_64)?\b", code):
            report(path, line_of(code, m.start()), "no-unseeded-rng",
                   "raw engines belong in src/common/random.*; take an "
                   "slp::Rng& instead")


CLOCK_RE = re.compile(
    r"\bstd::chrono\b|<chrono>|\b(?:steady_clock|system_clock|"
    r"high_resolution_clock|clock_gettime|gettimeofday)\b")

# The harness's WallTimer: bench/ and tests/ include it, src/ does not.
CLOCK_ALLOWLIST = ("src/common/timer.h",)

TIMER_INCLUDE_RE = re.compile(r'"src/common/timer\.h"')


def check_wall_clock(path, code, raw):
    if not path.as_posix().endswith(CLOCK_ALLOWLIST):
        for m in CLOCK_RE.finditer(code):
            report(path, line_of(code, m.start()), "no-wall-clock",
                   f"{m.group(0)} reads the wall clock; library results "
                   "depend only on inputs, seeds and logical ticks")
    # The include path is a string literal, which the stripper blanks, so
    # the path is matched on the raw line of each #include that survives
    # stripping (an include quoted in a comment does not).
    for number, (code_line, raw_line) in enumerate(
            zip(code.split("\n"), raw.split("\n")), 1):
        if (re.match(r"\s*#\s*include\b", code_line)
                and TIMER_INCLUDE_RE.search(raw_line)):
            report(path, number, "no-wall-clock",
                   "src/common/timer.h is the harness's WallTimer; library "
                   "code must not time itself")


def unordered_members(code):
    """Names of fields/variables declared with an unordered container type."""
    names = set()
    for m in re.finditer(
            r"std::unordered_(?:map|set|multimap|multiset)\s*<[^;{}()]*?>\s*"
            r"(\w+)\s*[;{=]", code):
        names.add(m.group(1))
    return names


def check_unordered_iteration(path, code):
    names = unordered_members(code)
    if not names:
        return
    # Range-for directly over the container (not .find/.at/.count access).
    for m in re.finditer(r"for\s*\(\s*[^;)]*?:\s*(\w+)\s*\)", code):
        if m.group(1) in names:
            report(path, line_of(code, m.start()), "no-unordered-iteration",
                   f"range-for over unordered container '{m.group(1)}' is "
                   "hash-order-dependent; iterate a sorted copy or an "
                   "ordered container")
    # Iterator walks: container.begin() outside of find/erase idioms.
    for m in re.finditer(r"\b(\w+)\.(?:begin|cbegin)\s*\(\s*\)", code):
        if m.group(1) in names:
            report(path, line_of(code, m.start()), "no-unordered-iteration",
                   f"iterating unordered container '{m.group(1)}' is "
                   "hash-order-dependent")


RAW_SYNC_RE = re.compile(
    r"\bstd::(mutex|shared_mutex|recursive_mutex|timed_mutex|"
    r"recursive_timed_mutex|shared_timed_mutex|lock_guard|unique_lock|"
    r"scoped_lock|shared_lock|condition_variable|condition_variable_any)\b")

# The annotated wrappers are the one place allowed to name the std
# primitives they wrap.
RAW_SYNC_ALLOWLIST = ("src/common/sync.h",)


def check_raw_sync(path, code):
    if path.as_posix().endswith(RAW_SYNC_ALLOWLIST):
        return
    for m in RAW_SYNC_RE.finditer(code):
        report(path, line_of(code, m.start()), "no-raw-sync-primitive",
               f"std::{m.group(1)} bypasses the thread-safety "
               "annotations; use the capability-annotated wrappers in "
               "src/common/sync.h (slp::Mutex/MutexLock/CondVar, "
               "DESIGN.md §15)")


def check_nested_vectors(path, code):
    rel = path.as_posix()
    if not rel.startswith(NESTED_VECTOR_DIRS):
        return
    count = len(re.findall(r"std::vector<\s*std::vector<", code))
    baseline = NESTED_VECTOR_BASELINE.get(rel, 0)
    if count > baseline:
        first = re.search(r"std::vector<\s*std::vector<", code)
        WARNINGS.append(
            f"{rel}:{line_of(code, first.start())}: [prefer-flat-layout] "
            f"{count} nested vector<vector<...>> (baseline {baseline}); "
            "hot-path row storage belongs in a flat CSR layout "
            "(CoverTable, src/core/subscription_assign.h)")


ALL_CHECKS = (check_asserts, check_slp_check, check_randomness,
              check_unordered_iteration, check_raw_sync, check_nested_vectors)


# Each case: (name, pretend-path, snippet, expected finding rules,
# expected warning rules). The snippets are run through the real stripper
# and the real checkers, so the self-test breaks the moment a regex or an
# allowlist drifts from what the fixtures pin.
SELF_TEST_CASES = [
    ("clean code", "src/core/ok.cc",
     "int F(int x) { static_assert(sizeof(int) == 4); return x + 1; }",
     set(), set()),
    ("raw assert", "src/core/bad.cc",
     "void F(int x) { assert(x > 0); }",
     {"no-raw-assert"}, set()),
    ("abort in library", "src/core/bad.cc",
     "void F(bool ok) { SLP_CHECK(ok); }",
     {"no-abort-in-library"}, set()),
    ("SLP_CHECK allowed in status.h", "src/common/status.h",
     "#define SLP_CHECK(expr) DoCheck(expr)",
     set(), set()),
    ("nondeterministic rng", "src/core/bad.cc",
     "int F() { srand(7); std::random_device rd; return rand(); }",
     {"no-unseeded-rng"}, set()),
    ("raw engine outside random.*", "src/core/bad.cc",
     "std::mt19937 engine;",
     {"no-unseeded-rng"}, set()),
    ("raw engine allowed in random.h", "src/common/random.h",
     "std::mt19937_64 engine_;",
     set(), set()),
    # One case per banned clock name, so a regex that loses any of them
    # fails the self-test.
    *[(f"wall clock: {snippet}", "src/sim/bad.cc", snippet,
       {"no-wall-clock"}, set()) for snippet in (
           "#include <chrono>",
           "auto d = std::chrono::seconds(1);",
           "auto t = steady_clock::now();",
           "auto t = system_clock::now();",
           "auto t = high_resolution_clock::now();",
           "timespec ts; clock_gettime(CLOCK_MONOTONIC, &ts);",
           "timeval tv; gettimeofday(&tv, nullptr);",
           "#include \"src/common/timer.h\"",
       )],
    ("timer.h may read the clock", "src/common/timer.h",
     "#include <chrono>\n"
     "class WallTimer { using Clock = std::chrono::steady_clock; };",
     set(), set()),
    ("clock names in comments/strings ignored", "src/core/ok.cc",
     "// #include \"src/common/timer.h\" std::chrono steady_clock\n"
     "/* clock_gettime gettimeofday <chrono> */\n"
     "const char* s = \"system_clock\";",
     set(), set()),
    ("unordered iteration", "src/core/bad.cc",
     "struct S { std::unordered_map<int, int> m_;\n"
     "  int F() { int s = 0; for (auto& kv : m_) s += kv.second;\n"
     "            auto it = m_.begin(); return s; } };",
     {"no-unordered-iteration"}, set()),
    ("unordered lookup is fine", "src/core/ok.cc",
     "struct S { std::unordered_map<int, int> m_;\n"
     "  bool F(int k) const { return m_.find(k) != m_.end(); } };",
     set(), set()),
    ("raw mutex", "src/core/bad.cc",
     "struct S { std::mutex mu_; };",
     {"no-raw-sync-primitive"}, set()),
    ("raw scoped locks and cv", "src/liveness/bad.cc",
     "void F(std::mutex& m) { std::lock_guard<std::mutex> l(m); }\n"
     "std::condition_variable cv; std::shared_mutex rw;\n"
     "std::unique_lock<std::mutex> u; std::scoped_lock s;",
     {"no-raw-sync-primitive"}, set()),
    ("sync.h is allowlisted", "src/common/sync.h",
     "class Mutex { std::mutex mu_; };\n"
     "class CondVar { std::condition_variable cv_;\n"
     "  void W() { std::unique_lock<std::mutex> l; } };",
     set(), set()),
    ("annotated wrappers are fine", "src/core/ok.cc",
     "struct S { slp::Mutex mu_;\n"
     "  void F() { slp::MutexLock lock(mu_); } };",
     set(), set()),
    ("banned tokens in comments/strings ignored", "src/core/ok.cc",
     "// std::mutex assert( rand() SLP_CHECK(\n"
     "/* std::lock_guard random_device */\n"
     "const char* s = \"std::condition_variable mt19937\";",
     set(), set()),
    ("nested vector over baseline warns", "src/core/fresh.cc",
     "std::vector<std::vector<int>> rows;",
     set(), {"prefer-flat-layout"}),
    ("nested vector outside core/match ok", "src/lp/fresh.cc",
     "std::vector<std::vector<int>> rows;",
     set(), set()),
]


def run_checks(path, raw):
    code = strip_comments_and_strings(raw)
    for check in ALL_CHECKS:
        check(path, code)
    check_wall_clock(path, code, raw)


def self_test():
    failures = []
    for name, fake_path, snippet, want_findings, want_warnings in \
            SELF_TEST_CASES:
        FINDINGS.clear()
        WARNINGS.clear()
        path = pathlib.PurePosixPath(fake_path)
        run_checks(path, snippet)
        got_findings = {f.split("[", 1)[1].split("]", 1)[0] for f in FINDINGS}
        got_warnings = {w.split("[", 1)[1].split("]", 1)[0] for w in WARNINGS}
        if got_findings != want_findings or got_warnings != want_warnings:
            failures.append(
                f"  {name}: expected findings {sorted(want_findings)} / "
                f"warnings {sorted(want_warnings)}, got "
                f"{sorted(got_findings)} / {sorted(got_warnings)}")
    FINDINGS.clear()
    WARNINGS.clear()
    if failures:
        print(f"lint.py --self-test: {len(failures)} case(s) FAILED")
        for f in failures:
            print(f)
        return 1
    print(f"lint.py --self-test: {len(SELF_TEST_CASES)} cases ok")
    return 0


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "--self-test":
        return self_test()
    root = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else ".").resolve()
    src = root / "src"
    if not src.is_dir():
        print(f"lint.py: no src/ under {root}", file=sys.stderr)
        return 2
    files = sorted(
        p for p in src.rglob("*") if p.suffix in (".h", ".cc", ".cpp"))
    for path in files:
        run_checks(path.relative_to(root), path.read_text())
    if WARNINGS:
        print(f"lint.py: {len(WARNINGS)} warning(s) (non-fatal)")
        for w in WARNINGS:
            print("  " + w)
    if FINDINGS:
        print(f"lint.py: {len(FINDINGS)} finding(s)")
        for f in FINDINGS:
            print("  " + f)
        return 1
    print(f"lint.py: clean ({len(files)} files)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
