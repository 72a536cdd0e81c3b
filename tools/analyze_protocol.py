#!/usr/bin/env python3
"""PGX.D protocol analyzer: static deadlock-and-protocol checks over src/.

Where lint_pgxd.py guards style-level invariants, this tool checks the
message-protocol shape the runtime wait-for graph (src/sim/wait_graph.hpp)
can only verify dynamically:

  tag-unpaired             every kTag* constant used as a send endpoint
                           (post/send) in a file must also appear as a
                           receive endpoint (recv/recv_n/recv_until/
                           try_recv/recv_sort) in that file, and vice
                           versa — a one-sided tag is a send nobody
                           receives (leaks into quiescence checks) or a
                           recv nobody satisfies (deadlock)
  tag-opaque               in a file that declares kTag* constants, every
                           endpoint call names one in its arguments (a
                           ternary between two is fine) — a tag held in a
                           variable drops out of tag-unpaired silently;
                           a forwarder that passes its caller's tag on
                           carries an allow(tag-opaque) marker
  collective-in-rank-branch
                           no collective or barrier call inside an `if`
                           whose condition compares `rank`: collectives
                           are lockstep, and a rank-gated participant
                           hangs every other member
  recovery-unbounded-wait  inside `// pgxd-protocol: recovery-path` ..
                           `// pgxd-protocol: end-recovery-path` regions,
                           no plain blocking recv/recv_n, no barrier, and
                           no unbounded collective — recovery code runs
                           while ranks are crashing and must only use
                           try_recv / recv_until / bounded_* wrappers
  lock-order-unannotated   every std::mutex declared in src/ carries a
                           `// pgxd-lock-order: <label> rank <N>`
                           annotation (same line or the line above)
  lock-order-cycle         within one file stem (hpp + cpp), nested
                           lock_guard/unique_lock/scoped_lock
                           acquisitions must follow strictly increasing
                           pgxd-lock-order ranks — a rank <= an already
                           held rank is a potential lock-order cycle

Markers and suppressions:

  // pgxd-protocol: recovery-path          opens a crash-concurrent region
  // pgxd-protocol: end-recovery-path      closes it
  // pgxd-protocol: allow(rule) -- reason  suppresses `rule` on this line
                                           or the next one
  // pgxd-lock-order: <label> rank <N>     ranks a mutex for cycle checks

Stdlib-only; runs from ctest (tests/protocol_selftest keeps every rule
honest) and from `scripts/check.sh analyze`.
"""

import argparse
import os
import re
import sys

RECOVERY_BEGIN = "pgxd-protocol: recovery-path"
RECOVERY_END = "pgxd-protocol: end-recovery-path"
ALLOW_RE = re.compile(r"pgxd-protocol:\s*allow\(([a-z0-9-]+)\)"
                      r"(\s*--\s*(\S.*))?")
LOCK_ORDER_RE = re.compile(r"pgxd-lock-order:\s*([\w.-]+)\s+rank\s+(\d+)")

# The protocol rules only bind library code; tests and tools exercise the
# comm layer in deliberately odd shapes (one-sided sends, rank-0-only
# probes) that are safe because the whole scenario is in one file's view.
SCAN_DIRS = ("src",)
SKIP_DIR_NAMES = {"protocol_selftest", "__pycache__"}

ALL_RULES = (
    "tag-unpaired",
    "tag-opaque",
    "collective-in-rank-branch",
    "recovery-unbounded-wait",
    "lock-order-unannotated",
    "lock-order-cycle",
)

# MPI-style collective entry-point names (broadcast/gather/all-to-all
# families and their group-scoped forms). Sorted longest first so the regex
# alternation can't shadow a longer name with a shorter prefix at the same
# position.
COLLECTIVES = (
    "group_all_to_all", "group_broadcast", "group_gather",
    "all_to_all", "all_gather", "all_reduce", "broadcast", "gather",
)
BOUNDED_COLLECTIVES = tuple("bounded_" + c for c in COLLECTIVES)

SEND_CALL_RE = re.compile(r"[.>]\s*(post|send)\s*\(")
RECV_CALL_RE = re.compile(r"(?:[.>]\s*(?:recv|recv_n|recv_until|try_recv)"
                          r"|\brecv_sort)\s*\(")
COLLECTIVE_CALL_RE = re.compile(
    r"(?<![\w])(" + "|".join(COLLECTIVES + BOUNDED_COLLECTIVES) +
    r")\s*\(")
TAG_TOKEN_RE = re.compile(r"\bkTag\w*\b")
TAG_DECL_RE = re.compile(r"\bkTag\w*\s*=")

BARRIER_CALL_RE = re.compile(r"[.>]\s*barrier\s*\(")
# Unbounded blocking waits: a bare member recv (try_recv/recv_until have a
# word char before "recv", so the lookbehind rejects them), recv_n, and
# the unbounded collective family (bounded_ prefixed names likewise fail
# the lookbehind).
UNBOUNDED_RECV_RE = re.compile(r"(?<![\w])recv\s*\(")
RECV_N_RE = re.compile(r"\brecv_n\s*\(")
UNBOUNDED_COLLECTIVE_RE = re.compile(
    r"(?<![\w])(" + "|".join(COLLECTIVES) + r")\s*\(")

MUTEX_DECL_RE = re.compile(r"^\s*(?:mutable\s+)?std::mutex\s+(\w+)\s*;")
GUARD_RE = re.compile(
    r"\b(?:std::)?(lock_guard|unique_lock|scoped_lock)\s*"
    r"(?:<[^<>]*>)?\s*\w+\s*[({]([^;{}]*)[)}]")
RANK_BRANCH_RE = re.compile(
    r"(?:\brank\b|\brank\s*\(\s*\))[^&|]*(?:==|!=|<=|>=|<|>)"
    r"|(?:==|!=|<=|>=|<|>)[^&|]*\brank\b")


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
    (spaces, newlines preserved) so code patterns can't match inside
    them."""
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
        self.stem = os.path.splitext(os.path.basename(rel))[0]
        self.text = text
        self.lines = text.splitlines()
        self.code = strip_code(text)
        self.code_lines = self.code.splitlines()
        # allowed[rule] -> set of 1-based line numbers where it applies
        self.allowed = {}
        self.allow_without_reason = []
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
        # Recovery-path regions: set of 1-based lines between markers (a
        # begin without an end extends to EOF — the region is a contract,
        # not a scope, so the conservative reading is the safe one).
        self.recovery_lines = set()
        in_region = False
        for idx, line in enumerate(self.lines, start=1):
            if RECOVERY_END in line:
                in_region = False
                continue
            if RECOVERY_BEGIN in line:
                in_region = True
                continue
            if in_region:
                self.recovery_lines.add(idx)
        # pgxd-lock-order annotations -> the member the annotation ranks:
        # the std::mutex declaration on the same line or the next one.
        self.lock_ranks = {}  # member identifier -> (rank, line)
        self.annotated_decl_lines = set()
        for idx, line in enumerate(self.lines, start=1):
            m = LOCK_ORDER_RE.search(line)
            if not m:
                continue
            rank = int(m.group(2))
            for decl_line in (idx, idx + 1):
                if decl_line > len(self.code_lines):
                    continue
                d = MUTEX_DECL_RE.match(self.code_lines[decl_line - 1])
                if d:
                    self.lock_ranks[d.group(1)] = (rank, decl_line)
                    self.annotated_decl_lines.add(decl_line)
                    break

    def suppressed(self, rule, line):
        return line in self.allowed.get(rule, set())


def line_of(code, pos):
    return code.count("\n", 0, pos) + 1


def paren_span(code, open_paren):
    """Returns the index one past the ')' matching code[open_paren] == '(',
    or None."""
    depth = 0
    for i in range(open_paren, len(code)):
        if code[i] == "(":
            depth += 1
        elif code[i] == ")":
            depth -= 1
            if depth == 0:
                return i + 1
    return None


def brace_span(code, start):
    """From `start`, skips whitespace; if the next char is '{' returns the
    span (open, close+1) of the brace block, else the span of the single
    statement up to ';' (None when neither closes)."""
    i = start
    n = len(code)
    while i < n and code[i] in " \t\n":
        i += 1
    if i >= n:
        return None
    if code[i] != "{":
        end = code.find(";", i)
        return (i, end + 1) if end != -1 else None
    depth = 0
    for j in range(i, n):
        if code[j] == "{":
            depth += 1
        elif code[j] == "}":
            depth -= 1
            if depth == 0:
                return (i, j + 1)
    return None


def endpoint_calls(code):
    """Yields (side, line, name, args) for every endpoint call in `code`:
    side is "send", "recv" or "both" (collectives), name the called
    function and args its parenthesized argument text."""
    for regexp, side in ((SEND_CALL_RE, "send"), (RECV_CALL_RE, "recv"),
                         (COLLECTIVE_CALL_RE, "both")):
        for m in regexp.finditer(code):
            op = code.find("(", m.end() - 1)
            if op == -1:
                continue
            end = paren_span(code, op)
            if end is None:
                continue
            name = code[m.start():op].lstrip(".>").strip()
            yield side, line_of(code, m.start()), name, code[op:end]


def check_tag_pairing(ctx, out):
    """Per-file send/recv endpoint graph over kTag* constants. Per-file is
    the right scope: every protocol in this repo keeps both endpoints of a
    tag in one header (the sorter, spark, radix, queries, analytics), so a
    tag leaving that file's view one-sided is a protocol hole, not a
    modularity choice."""
    sends = {}  # tag name -> first line seen
    recvs = {}

    def record(table, args_text, base_line):
        for t in TAG_TOKEN_RE.finditer(args_text):
            name = t.group(0)
            ln = base_line + args_text.count("\n", 0, t.start())
            table.setdefault(name, ln)

    for side, ln, _, args in endpoint_calls(ctx.code):
        if side in ("send", "both"):
            record(sends, args, ln)
        if side in ("recv", "both"):
            record(recvs, args, ln)

    for name, ln in sorted(sends.items()):
        if name not in recvs:
            out.append(Violation(
                ctx.rel, ln, "tag-unpaired",
                f"{name} is sent here but never received in this file — "
                f"an unreceived tag strands frames in mailboxes (or hides "
                f"a missing receive loop)"))
    for name, ln in sorted(recvs.items()):
        if name not in sends:
            out.append(Violation(
                ctx.rel, ln, "tag-unpaired",
                f"{name} is received here but never sent in this file — "
                f"a recv with no matching send deadlocks"))


def check_tag_opaque(ctx, out):
    """tag-unpaired only sees the kTag* tokens written inside an endpoint
    call, so a tag passed through a variable drops out of the pairing
    check without a word. In a file that declares kTag* constants every
    endpoint must therefore name one."""
    if not TAG_DECL_RE.search(ctx.code):
        return
    for _, ln, name, args in endpoint_calls(ctx.code):
        if not TAG_TOKEN_RE.search(args):
            out.append(Violation(
                ctx.rel, ln, "tag-opaque",
                f"'{name}' names no kTag* constant, so the pairing check "
                f"cannot see its tag — name the tags inline (a ternary "
                f"between two is fine)"))


def check_collective_in_rank_branch(ctx, out):
    """Collectives and barriers are lockstep: every member must reach the
    call. An `if` that compares `rank` and then invokes one gates a
    participant out and hangs the rest."""
    code = ctx.code
    for m in re.finditer(r"\bif\s*\(", code):
        op = code.find("(", m.start())
        end = paren_span(code, op)
        if end is None:
            continue
        header = code[op:end]
        if not RANK_BRANCH_RE.search(header):
            continue
        bodies = []
        body = brace_span(code, end)
        if body is None:
            continue
        bodies.append(body)
        # The else branch of a rank-comparison if is rank-gated too.
        after = body[1]
        while after < len(code) and code[after] in " \t\n":
            after += 1
        if code[after:after + 4] == "else" and \
                not (code[after + 4:after + 4 + 1].isalnum() or
                     code[after + 4:after + 4 + 1] == "_"):
            else_body = brace_span(code, after + 4)
            if else_body is not None:
                bodies.append(else_body)
        for lo, hi in bodies:
            text = code[lo:hi]
            for c in COLLECTIVE_CALL_RE.finditer(text):
                ln = line_of(code, lo + c.start())
                out.append(Violation(
                    ctx.rel, ln, "collective-in-rank-branch",
                    f"collective '{c.group(1)}' inside a rank-comparison "
                    f"branch; collectives are lockstep — hoist the call "
                    f"out of the branch"))
            for b in BARRIER_CALL_RE.finditer(text):
                ln = line_of(code, lo + b.start())
                out.append(Violation(
                    ctx.rel, ln, "collective-in-rank-branch",
                    "barrier inside a rank-comparison branch; every rank "
                    "must arrive or nobody is released"))


def check_recovery_unbounded_wait(ctx, out):
    if not ctx.recovery_lines:
        return
    for idx, line in enumerate(ctx.code_lines, start=1):
        if idx not in ctx.recovery_lines:
            continue
        for regexp, what in (
                (UNBOUNDED_RECV_RE,
                 "plain blocking recv in a recovery-path region; use "
                 "try_recv or recv_until with a deadline"),
                (RECV_N_RE,
                 "recv_n in a recovery-path region blocks until all n "
                 "frames land; a crashed sender stalls it forever"),
                (BARRIER_CALL_RE,
                 "barrier in a recovery-path region; a crashed rank never "
                 "arrives — use a bounded collective wrapper"),
                (UNBOUNDED_COLLECTIVE_RE,
                 "unbounded collective in a recovery-path region; use its "
                 "bounded_ deadline-checked wrapper")):
            for _ in regexp.finditer(line):
                out.append(Violation(ctx.rel, idx, "recovery-unbounded-wait",
                                     what))


def check_lock_annotations(ctx, out):
    for idx, line in enumerate(ctx.code_lines, start=1):
        m = MUTEX_DECL_RE.match(line)
        if not m:
            continue
        if idx in ctx.annotated_decl_lines:
            continue
        out.append(Violation(
            ctx.rel, idx, "lock-order-unannotated",
            f"std::mutex {m.group(1)} has no pgxd-lock-order annotation; "
            f"add '// pgxd-lock-order: <label> rank <N>' on this line or "
            f"the one above so cycle analysis can rank it"))


def check_lock_order(ctx, stem_ranks, out):
    """Flags a guard acquisition whose pgxd-lock-order rank is <= a rank
    already held in an enclosing scope. Single-file-stem scope: the hpp
    declaring the mutexes and its cpp share one ranking."""
    ranks = stem_ranks.get(ctx.stem)
    if not ranks:
        return
    code = ctx.code
    acquisitions = []  # (pos, line, [(member, rank)])
    for m in GUARD_RE.finditer(code):
        members = []
        for arg in m.group(2).split(","):
            t = re.search(r"(\w+)\s*$", arg.strip())
            if t and t.group(1) in ranks:
                members.append((t.group(1), ranks[t.group(1)][0]))
        if members:
            acquisitions.append((m.start(), line_of(code, m.start()),
                                 members))
    if not acquisitions:
        return
    acquisitions.reverse()  # pop from the back in document order
    held = []  # (depth, member, rank)
    depth = 0
    for i, c in enumerate(code):
        if c == "{":
            depth += 1
        elif c == "}":
            while held and held[-1][0] >= depth:
                held.pop()
            depth -= 1
        while acquisitions and acquisitions[-1][0] <= i:
            _, ln, members = acquisitions.pop()
            for member, rank in members:
                for hdepth, hmember, hrank in held:
                    if rank <= hrank:
                        out.append(Violation(
                            ctx.rel, ln, "lock-order-cycle",
                            f"acquiring '{member}' (lock-order rank {rank})"
                            f" while holding '{hmember}' (rank {hrank}); "
                            f"acquisition ranks must strictly increase — "
                            f"potential lock-order cycle"))
            # scoped_lock acquires its arguments atomically; record the
            # strongest rank once.
            top = max(r for _, r in members)
            held.append((depth, members[-1][0], top))


def check_marker_hygiene(ctx, out):
    for idx, rule in ctx.allow_without_reason:
        out.append(Violation(
            ctx.rel, idx, rule if rule in ALL_RULES else "tag-unpaired",
            f"pgxd-protocol: allow({rule}) must carry a justification: "
            f"allow(rule) -- reason"))


def analyze_files(files):
    """files: list of (path, rel). Returns all violations after building
    the cross-file per-stem lock-rank maps."""
    ctxs = []
    violations = []
    for path, rel in files:
        try:
            with open(path, encoding="utf-8", errors="replace") as f:
                text = f.read()
        except OSError as e:
            violations.append(Violation(rel, 0, "io", str(e)))
            continue
        ctxs.append(FileCtx(path, rel, text))
    stem_ranks = {}
    for ctx in ctxs:
        if ctx.lock_ranks:
            merged = stem_ranks.setdefault(ctx.stem, {})
            merged.update(ctx.lock_ranks)
    for ctx in ctxs:
        found = []
        check_tag_pairing(ctx, found)
        check_tag_opaque(ctx, found)
        check_collective_in_rank_branch(ctx, found)
        check_recovery_unbounded_wait(ctx, found)
        check_lock_annotations(ctx, found)
        check_lock_order(ctx, stem_ranks, found)
        check_marker_hygiene(ctx, found)
        violations.extend(v for v in found
                          if not ctx.suppressed(v.rule, v.line))
    return violations


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


def run_analysis(root, paths):
    if paths:
        files = [(os.path.abspath(p),
                  os.path.relpath(os.path.abspath(p), root)) for p in paths]
    else:
        files = list(iter_sources(root))
    violations = analyze_files(files)
    for v in violations:
        print(v)
    if violations:
        print(f"analyze_protocol: {len(violations)} violation(s)",
              file=sys.stderr)
        return 1
    print(f"analyze_protocol: clean ({len(files)} files)")
    return 0


def run_selftest(fixture_dir):
    """Fixtures are named <rule>__bad_*.cpp/.hpp (must trigger exactly that
    rule) or <rule>__good_*.cpp/.hpp (must be clean). Any rule with no bad
    fixture fails the self-test, so a rule can't silently stop firing."""
    failures = []
    covered = set()
    entries = sorted(os.listdir(fixture_dir))
    if not entries:
        print("analyze_protocol --selftest: no fixtures found",
              file=sys.stderr)
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
        found = analyze_files([(path, fn)])
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
            failures.append(f"rule '{rule}' has no __bad_ fixture — it "
                            f"could stop firing without anyone noticing")
    for f in failures:
        print(f"SELFTEST FAIL {f}", file=sys.stderr)
    if failures:
        return 1
    print(f"analyze_protocol --selftest: {len(covered)} rules verified "
          f"against {len(entries)} fixtures")
    return 0


def main():
    ap = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--root", default=None,
                    help="repo root (default: parent of this script)")
    ap.add_argument("--selftest", metavar="DIR",
                    help="run the fixture self-test against DIR")
    ap.add_argument("--list-rules", action="store_true")
    ap.add_argument("paths", nargs="*",
                    help="analyze only these files (default: src/)")
    args = ap.parse_args()
    if args.list_rules:
        for r in ALL_RULES:
            print(r)
        return 0
    if args.selftest:
        return run_selftest(args.selftest)
    root = args.root or os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    return run_analysis(root, args.paths)


if __name__ == "__main__":
    sys.exit(main())
