#!/usr/bin/env python3
"""PGX.D repo linter: project-specific invariants generic tools can't see.

Rules (see docs/ARCHITECTURE.md "Correctness tooling"):

  hot-path-std-function    no std::function in files marked hot-path
  hot-path-naked-new       no naked new expressions in hot-path files
  hot-path-std-set         no std::set/std::multiset in hot-path files
  hot-path-functional-include
                           no #include <functional> in hot-path files;
                           default comparators use sort::Less
                           (sort/comparator.hpp)
  determinism-wall-clock   no wall/monotonic clock reads in src/sim, src/sort
  determinism-unseeded-rng no random_device/rand()/default-seeded engines
                           in src/sim, src/sort
  task-ref-capture         no by-reference lambda captures handed to
                           coroutine spawns, and no [&]-capturing lambda
                           coroutines (dangling across suspension)
  include-pragma-once      every header starts with #pragma once
  include-relative-parent  no #include "../..." uphill includes
  telemetry-lookup-in-loop no instrument lookup-by-name inside a loop body
                           (resolve once, bump the cached reference)
  nolint-justification     every NOLINT names its check and a reason;
                           every pgxd-lint: allow(...) carries a reason

File markers and suppressions:

  // pgxd-lint: hot-path                      marks a file hot-path
  // pgxd-lint: allow(rule-name) -- reason    suppresses `rule-name` on this
                                              line or the next one

The linter is stdlib-only and runs from ctest (tests/lint_selftest keeps
every rule honest) and from `scripts/check.sh lint`.
"""

import argparse
import os
import re
import sys

HOT_PATH_MARKER = "pgxd-lint: hot-path"
# Fixture-only marker: forces the determinism scope for files that don't
# live under src/sim or src/sort (the self-test corpus).
DETERMINISM_MARKER = "pgxd-lint: determinism-scope"
ALLOW_RE = re.compile(r"pgxd-lint:\s*allow\(([a-z0-9-]+)\)(\s*--\s*(\S.*))?")

# Directories scanned relative to the repo root, and the subset where the
# determinism contract applies (simulated time + seeded streams only).
SCAN_DIRS = ("src", "tests", "bench", "tools", "examples")
DETERMINISM_DIRS = ("src/sim", "src/sort")
SKIP_DIR_NAMES = {"lint_selftest", "protocol_selftest", "__pycache__"}

ALL_RULES = (
    "hot-path-std-function",
    "hot-path-naked-new",
    "hot-path-std-set",
    "hot-path-functional-include",
    "determinism-wall-clock",
    "determinism-unseeded-rng",
    "task-ref-capture",
    "include-pragma-once",
    "include-relative-parent",
    "telemetry-lookup-in-loop",
    "nolint-justification",
)


class Violation:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line  # 1-based
        self.rule = rule
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def strip_code(text):
    """Returns `text` with comments and string/char literals blanked out
    (replaced by spaces, newlines preserved) so code patterns can't match
    inside them. Keeps instrument-name string *openers* intact is NOT done:
    callers that need string contents must use the raw text."""
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
                out.append('"')
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
        elif mode == "string":
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == '"':
                mode = "code"
                out.append('"')
            else:
                out.append("\n" if c == "\n" else " ")
        elif mode == "char":
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == "'":
                mode = "code"
                out.append(" ")
            else:
                out.append("\n" if c == "\n" else " ")
        i += 1
    return "".join(out)


class FileCtx:
    def __init__(self, path, rel, text):
        self.path = path
        self.rel = rel.replace(os.sep, "/")
        self.text = text
        self.lines = text.splitlines()
        self.code = strip_code(text)
        self.code_lines = self.code.splitlines()
        self.hot_path = HOT_PATH_MARKER in text
        self.is_header = rel.endswith((".hpp", ".h"))
        # allowed[rule] -> set of 1-based line numbers where it applies
        self.allowed = {}
        self.allow_without_reason = []  # line numbers
        for idx, line in enumerate(self.lines, start=1):
            m = ALLOW_RE.search(line)
            if not m:
                continue
            rule = m.group(1)
            if not m.group(3):
                self.allow_without_reason.append((idx, rule))
                continue
            # A trailing allow covers its own line; a standalone-comment
            # allow covers the next line.
            self.allowed.setdefault(rule, set()).update({idx, idx + 1})

    def suppressed(self, rule, line):
        return line in self.allowed.get(rule, set())

    def in_determinism_scope(self):
        return (DETERMINISM_MARKER in self.text or
                any(self.rel.startswith(d + "/") for d in DETERMINISM_DIRS))

    def in_tests(self):
        return self.rel.startswith("tests/")


def code_matches(ctx, pattern):
    """Yields (line_no, match) for `pattern` over comment/string-stripped
    code."""
    for idx, line in enumerate(ctx.code_lines, start=1):
        for m in re.finditer(pattern, line):
            yield idx, m


def check_hot_path(ctx, out):
    if not ctx.hot_path:
        return
    for line, _ in code_matches(ctx, r"\bstd::function\s*<"):
        out.append(Violation(ctx.rel, line, "hot-path-std-function",
                             "std::function in a hot-path file; use a "
                             "template parameter or function pointer"))
    for line, _ in code_matches(ctx, r"\bnew\b(?!\s*\()"):
        out.append(Violation(ctx.rel, line, "hot-path-naked-new",
                             "naked new in a hot-path file; use "
                             "containers"))
    for line, _ in code_matches(ctx, r"\bstd::(multi)?set\s*<"):
        out.append(Violation(ctx.rel, line, "hot-path-std-set",
                             "std::set in a hot-path file; use a sorted "
                             "vector or bitmap"))
    for line, _ in code_matches(ctx, r"#\s*include\s*<functional>"):
        out.append(Violation(ctx.rel, line, "hot-path-functional-include",
                             "<functional> in a hot-path file; default "
                             "comparators use sort::Less "
                             "(sort/comparator.hpp) — justify real uses "
                             "with allow(...)"))


WALL_CLOCK_RE = (r"\b(system_clock|steady_clock|high_resolution_clock)\b"
                 r"|\bgettimeofday\s*\(|\bclock_gettime\s*\("
                 r"|\bstd::time\s*\(|\btime\s*\(\s*(NULL|nullptr|0)\s*\)")
UNSEEDED_RNG_RE = (r"\bstd::random_device\b|\brandom_device\b"
                   r"|\bstd::rand\s*\(|\bsrand\s*\("
                   r"|\b(mt19937(_64)?|default_random_engine|minstd_rand0?)"
                   r"\s*(\{\s*\}|\(\s*\))")


def check_determinism(ctx, out):
    if not ctx.in_determinism_scope():
        return
    for line, _ in code_matches(ctx, WALL_CLOCK_RE):
        out.append(Violation(ctx.rel, line, "determinism-wall-clock",
                             "wall/monotonic clock read inside the "
                             "determinism contract (src/sim, src/sort); use "
                             "sim::Simulator::now()"))
    for line, _ in code_matches(ctx, UNSEEDED_RNG_RE):
        out.append(Violation(ctx.rel, line, "determinism-unseeded-rng",
                             "unseeded/system RNG inside the determinism "
                             "contract; use pgxd::Rng with an explicit seed"))


def lambda_body_span(code, open_bracket):
    """Given the index of a lambda's '[', returns (body_start, body_end)
    indices of its outermost braces, or None when it can't be found."""
    depth = 0
    i = open_bracket
    n = len(code)
    # Skip the capture list.
    while i < n:
        if code[i] == "[":
            depth += 1
        elif code[i] == "]":
            depth -= 1
            if depth == 0:
                break
        i += 1
    # Find the body's opening brace (skipping parameter list / specifiers).
    while i < n and code[i] != "{":
        if code[i] == ";":
            return None  # not a lambda after all (e.g. array subscript)
        i += 1
    if i == n:
        return None
    start = i
    depth = 0
    while i < n:
        if code[i] == "{":
            depth += 1
        elif code[i] == "}":
            depth -= 1
            if depth == 0:
                return (start, i + 1)
        i += 1
    return None


REF_LAMBDA_RE = re.compile(r"\[\s*&")


def check_task_ref_capture(ctx, out):
    code = ctx.code
    # (a) a by-reference lambda passed straight into a coroutine spawn.
    for m in re.finditer(r"\bspawn\s*\(\s*\[\s*&", code):
        line = code.count("\n", 0, m.start()) + 1
        out.append(Violation(ctx.rel, line, "task-ref-capture",
                             "by-reference lambda capture passed to spawn(); "
                             "captures dangle once the caller's frame "
                             "suspends — capture by value"))
    # (b) any [&]-capturing lambda whose body is itself a coroutine. Library
    # code only: tests construct-and-run within one scope (cluster.run /
    # sim.run holds the lambda alive through the whole simulation), which is
    # safe by construction.
    if ctx.in_tests():
        return
    for m in REF_LAMBDA_RE.finditer(code):
        span = lambda_body_span(code, m.start())
        if span is None:
            continue
        body = code[span[0]:span[1]]
        if re.search(r"\bco_(await|return|yield)\b", body):
            line = code.count("\n", 0, m.start()) + 1
            out.append(Violation(ctx.rel, line, "task-ref-capture",
                                 "by-reference capture in a lambda coroutine; "
                                 "references dangle across suspension — "
                                 "capture by value or pass parameters"))


def check_include_hygiene(ctx, out):
    if ctx.is_header:
        has_pragma = False
        for line in ctx.lines:
            s = line.strip()
            if not s or s.startswith("//") or s.startswith("/*") or \
               s.startswith("*"):
                continue
            has_pragma = s.startswith("#pragma once")
            break
        if not has_pragma:
            out.append(Violation(ctx.rel, 1, "include-pragma-once",
                                 "header must open with #pragma once "
                                 "(after the file comment)"))
    for idx, line in enumerate(ctx.lines, start=1):
        if re.match(r'\s*#\s*include\s+"\.\./', line):
            out.append(Violation(ctx.rel, idx, "include-relative-parent",
                                 "uphill relative include; include from the "
                                 "src/ root (e.g. \"common/rng.hpp\")"))


LOOKUP_RE = re.compile(r"\.\s*(counter|gauge|histogram)\s*\(\s*\"")


def check_telemetry_lookup_in_loop(ctx, out):
    # Brace-depth tracker: remember the depth at which each `for`/`while`
    # statement opened; a name lookup while inside any loop scope flags.
    # Heuristic (single pass, no parse) but backed by fixtures. Library and
    # bench code only: registry tests probe names in loops on purpose.
    if ctx.in_tests():
        return
    code = ctx.code
    raw = ctx.text
    loop_stack = []  # brace depths at which a loop body opened
    depth = 0
    pending_loop = 0  # loop headers seen whose body brace hasn't opened yet
    i, n = 0, len(code)
    line = 1
    while i < n:
        c = code[i]
        if c == "\n":
            line += 1
            i += 1
            continue
        if c == "{":
            depth += 1
            if pending_loop > 0:
                loop_stack.append(depth)
                pending_loop -= 1
            i += 1
            continue
        if c == "}":
            if loop_stack and loop_stack[-1] == depth:
                loop_stack.pop()
            depth -= 1
            i += 1
            continue
        m = re.match(r"\b(for|while)\s*\(", code[i:])
        if m and (i == 0 or not code[i - 1].isalnum() and code[i - 1] != "_"):
            # Skip the parenthesized header so `;` inside for(...) doesn't
            # cancel the pending body, and so lookups in headers count too.
            j = i + m.end() - 1
            pdepth = 0
            while j < n:
                if code[j] == "(":
                    pdepth += 1
                elif code[j] == ")":
                    pdepth -= 1
                    if pdepth == 0:
                        break
                elif code[j] == "\n":
                    pass
                j += 1
            header = code[i:j + 1]
            hm = LOOKUP_RE.search(header)
            if hm:
                hline = line + code.count("\n", i, i + hm.start())
                out.append(Violation(
                    ctx.rel, hline, "telemetry-lookup-in-loop",
                    "instrument lookup-by-name inside a loop; resolve the "
                    "instrument once outside and bump the reference"))
            line += code.count("\n", i, j + 1)
            pending_loop += 1
            i = j + 1
            # A brace-less loop body (single statement) is rare here; if the
            # next non-space char isn't '{', treat the single statement as
            # the body up to ';'.
            k = i
            while k < n and code[k] in " \t\n":
                k += 1
            if k < n and code[k] != "{":
                stmt_end = code.find(";", k)
                if stmt_end != -1:
                    body = code[k:stmt_end]
                    bm = LOOKUP_RE.search(body)
                    if bm:
                        bline = line + code.count("\n", i, k + bm.start())
                        out.append(Violation(
                            ctx.rel, bline, "telemetry-lookup-in-loop",
                            "instrument lookup-by-name inside a loop; "
                            "resolve the instrument once outside and bump "
                            "the reference"))
                pending_loop -= 1
            continue
        if loop_stack:
            lm = LOOKUP_RE.match(code[i:])
            if lm:
                out.append(Violation(
                    ctx.rel, line, "telemetry-lookup-in-loop",
                    "instrument lookup-by-name inside a loop; resolve the "
                    "instrument once outside and bump the reference"))
                i += lm.end()
                continue
        i += 1
    _ = raw  # (raw text reserved for future string-content rules)


NOLINT_RE = re.compile(r"//\s*NOLINT(NEXTLINE)?(\(([^)]*)\))?(:\s*(\S.*))?")


def check_nolint_justification(ctx, out):
    for idx, line in enumerate(ctx.lines, start=1):
        m = NOLINT_RE.search(line)
        if m:
            if not m.group(3):
                out.append(Violation(ctx.rel, idx, "nolint-justification",
                                     "NOLINT must name the suppressed "
                                     "check(s): NOLINT(check): reason"))
            elif not m.group(5):
                out.append(Violation(ctx.rel, idx, "nolint-justification",
                                     "NOLINT must carry a justification: "
                                     "NOLINT(check): reason"))
    for idx, rule in ctx.allow_without_reason:
        out.append(Violation(ctx.rel, idx, "nolint-justification",
                             f"pgxd-lint: allow({rule}) must carry a "
                             "justification: allow(rule) -- reason"))


CHECKS = (check_hot_path, check_determinism, check_task_ref_capture,
          check_include_hygiene, check_telemetry_lookup_in_loop,
          check_nolint_justification)


def lint_file(path, rel):
    try:
        with open(path, encoding="utf-8", errors="replace") as f:
            text = f.read()
    except OSError as e:
        return [Violation(rel, 0, "io", str(e))]
    ctx = FileCtx(path, rel, text)
    found = []
    for check in CHECKS:
        check(ctx, found)
    return [v for v in found if not ctx.suppressed(v.rule, v.line)]


def iter_sources(root):
    for top in SCAN_DIRS:
        base = os.path.join(root, top)
        if not os.path.isdir(base):
            continue
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames[:] = [d for d in sorted(dirnames)
                           if d not in SKIP_DIR_NAMES and
                           not d.startswith("build")]
            for fn in sorted(filenames):
                if fn.endswith((".hpp", ".h", ".cpp", ".cc")):
                    full = os.path.join(dirpath, fn)
                    yield full, os.path.relpath(full, root)


def run_lint(root, paths):
    violations = []
    if paths:
        for p in paths:
            full = os.path.abspath(p)
            violations.extend(lint_file(full, os.path.relpath(full, root)))
    else:
        for full, rel in iter_sources(root):
            violations.extend(lint_file(full, rel))
    for v in violations:
        print(v)
    if violations:
        print(f"lint_pgxd: {len(violations)} violation(s)", file=sys.stderr)
        return 1
    print("lint_pgxd: clean")
    return 0


def run_selftest(fixture_dir):
    """Fixtures are named <rule>__bad_*.cpp/.hpp (must trigger exactly that
    rule) or <rule>__good_*.cpp/.hpp (must be clean). Any rule with no bad
    fixture fails the self-test, so a rule can't silently stop firing."""
    failures = []
    covered = set()
    entries = sorted(os.listdir(fixture_dir))
    if not entries:
        print("lint_pgxd --selftest: no fixtures found", file=sys.stderr)
        return 1
    for fn in entries:
        if not fn.endswith((".hpp", ".h", ".cpp", ".cc")):
            continue
        m = re.match(r"([a-z0-9-]+)__(bad|good)_", fn)
        if not m:
            failures.append(f"{fn}: fixture name must be "
                            f"<rule>__bad_*/<rule>__good_*")
            continue
        rule, kind = m.group(1), m.group(2)
        if rule not in ALL_RULES:
            failures.append(f"{fn}: unknown rule '{rule}'")
            continue
        path = os.path.join(fixture_dir, fn)
        found = lint_file(path, fn)
        fired = {v.rule for v in found}
        if kind == "bad":
            covered.add(rule)
            if rule not in fired:
                failures.append(f"{fn}: expected rule '{rule}' to fire; "
                                f"got {sorted(fired) or 'nothing'}")
        else:
            if fired:
                failures.append(f"{fn}: expected clean; fired "
                                f"{sorted(fired)}")
    for rule in ALL_RULES:
        if rule not in covered:
            failures.append(f"rule '{rule}' has no __bad_ fixture — it could "
                            f"stop firing without anyone noticing")
    for f in failures:
        print(f"SELFTEST FAIL {f}", file=sys.stderr)
    if failures:
        return 1
    print(f"lint_pgxd --selftest: {len(covered)} rules verified against "
          f"{len(entries)} fixtures")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--root", default=None,
                    help="repo root (default: parent of this script)")
    ap.add_argument("--selftest", metavar="DIR",
                    help="run the fixture self-test against DIR")
    ap.add_argument("--list-rules", action="store_true")
    ap.add_argument("paths", nargs="*",
                    help="lint only these files (default: whole repo)")
    args = ap.parse_args()
    if args.list_rules:
        for r in ALL_RULES:
            print(r)
        return 0
    if args.selftest:
        return run_selftest(args.selftest)
    root = args.root or os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    return run_lint(root, args.paths)


if __name__ == "__main__":
    sys.exit(main())
