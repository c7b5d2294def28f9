#!/usr/bin/env python3
"""scanraw-lint: project-specific static checks for the SCANRAW tree.

Rules
-----
raw-mutex        std::mutex / std::condition_variable / std::lock_guard /
                 std::unique_lock / std::scoped_lock / std::shared_mutex are
                 banned in src/ outside common/thread_annotations.h. Use the
                 annotated Mutex / MutexLock / CondVar wrappers so Clang's
                 thread-safety analysis sees every lock.
unchecked-value  `.value()` on a Result/optional without a preceding `ok()`
                 (or has_value()) check in the same function scope. Prefer
                 SCANRAW_ASSIGN_OR_RETURN or an explicit ok() branch.
sleep-in-src     std::this_thread::sleep_for / sleep_until in src/ non-test
                 code. Time-based waits belong on a CondVar::WaitFor so
                 shutdown can interrupt them and TSan can see the ordering.
include-guard    Headers must carry the canonical SCANRAW_<PATH>_H_ include
                 guard (#ifndef/#define pair plus a commented #endif);
                 #pragma once is banned for consistency.
byte-loop        Per-byte `for` scans that compare an indexed byte against a
                 character literal are banned in src/format/ and
                 src/scanraw/ non-test code — the conversion hot path. Use
                 the bulk scanners in common/byte_scan.h (FindByte / FindN /
                 FindAll), which dispatch to SIMD, instead of advancing one
                 byte per iteration.
state-file-write WriteStringToFile in src/ non-test code (outside its
                 definition in io/file.cc). A crash mid-write leaves a torn
                 or empty file; state that must survive restart goes through
                 AtomicWriteFile (temp + fsync + rename).
flight-record-path
                 Mutex acquisition, IO calls, or heap allocation inside the
                 flight recorder's record-path functions (Record* and
                 FlightRecord, in files named *flight_recorder*). The record
                 path must be callable from any pipeline thread and from the
                 crash path: relaxed atomic stores only — no locks, no
                 open/write/fprintf, no new/malloc.
stderr-write     Direct stderr writes (fprintf(stderr, ...), fputs(...,
                 stderr), std::cerr, perror) in src/ non-test code outside
                 obs/log.cc. Diagnostics go through the leveled LOG_* macros
                 in obs/log.h so a resident server gets one rate-limited,
                 machine-parseable stream; obs/log.cc is the logger's
                 terminal sink and the only sanctioned writer.
mutex-rank       Every Mutex member declaration in src/ must name a
                 LockRank (`Mutex mu_{LockRank::kX, "Class.mu"};`) so the
                 lock participates in the whole-program acquisition order
                 checked by tools/lock_graph.py and the runtime sentinel
                 (see DESIGN.md "Lock hierarchy").
condvar-wait-loop
                 CondVar Wait/WaitFor calls must sit inside a predicate
                 loop (`while`/`for`/`do`, not a bare `if`): condition
                 variables wake spuriously, and an `if` turns a spurious
                 wakeup into a missed-predicate bug that only TSan-sized
                 schedules expose. Inside an unconditional loop
                 (`while (true)`, `for (;;)`) an `if` must check the
                 predicate before the wait: a wait that runs first sleeps
                 out a whole interval when Stop() lands before it.
thread-spawn     Starting a thread (std::thread / std::jthread construction,
                 pthread_create, std::async) in src/ non-test code. Work
                 runs on the process-wide worker pool, periodic work on
                 Ticker::Shared() (one housekeeping thread for every tick),
                 and a few long-lived services own threads; every sanctioned
                 site carries `// scanraw-lint: allow(thread-spawn) <reason>`,
                 so a per-query or per-timer thread cannot come back without
                 review. The allow marker needs the reason.
numeric-at       `NumericAt(` in src/exec/ non-test code. It is a per-value
                 type switch, reached per row through a std::map column
                 lookup; the engine resolves each column once per chunk and
                 runs kernels typed on the column's array. Like thread-spawn,
                 the allow marker needs a reason.

Suppressions: append `// scanraw-lint: allow(<rule>)` to the offending line
or place it on the line directly above.

Usage: scanraw_lint.py [path...]     (default: src/, relative to repo root)
Exit status: 0 clean, 1 findings, 2 usage/IO error.
"""

import os
import re
import sys

# Overridable so the unit tests can lint fixture trees laid out in a
# temporary directory as if they were the repo.
REPO_ROOT = os.environ.get(
    "SCANRAW_LINT_ROOT",
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

# The annotated wrapper header is the one place raw primitives may live —
# plus the lock-discipline sentinel beneath it, whose registry cannot use
# scanraw::Mutex without recursing into its own hooks.
RAW_MUTEX_EXEMPT = ("common/thread_annotations.h", "common/lock_debug.cc")

RAW_MUTEX_RE = re.compile(
    r"std::(mutex|shared_mutex|recursive_mutex|timed_mutex|condition_variable"
    r"(_any)?|lock_guard|unique_lock|scoped_lock|shared_lock)\b")
SLEEP_RE = re.compile(r"std::this_thread::sleep_(for|until)\b")
# Dot access only: Results/optionals are held by value in this tree, while
# `->value()` is the Counter/Gauge accessor (a plain uint64, not a Result).
VALUE_CALL_RE = re.compile(r"[\w\)\]>]\s*\.\s*value\s*\(\s*\)")
OK_CHECK_RE = re.compile(r"\b(ok|has_value|IsOk)\s*\(")
ALLOW_RE = re.compile(r"//\s*scanraw-lint:\s*allow\(([\w-]+)\)")
# A function-definition-ish line: `... ) {` at low indent, not a control-flow
# statement. Used to bound the backwards scan for the unchecked-value rule.
FUNC_START_RE = re.compile(r"^[\w\}].*\)\s*(const\s*)?(noexcept\s*)?\{?\s*$")
CONTROL_KEYWORD_RE = re.compile(r"^\s*(if|for|while|switch|catch|else)\b")

MAX_SCOPE_LOOKBACK = 50  # lines; fallback when no function start is found

# state-file-write: the io/ implementation is where the primitive lives (and
# AtomicWriteFile itself is built on top of the writable-file layer there).
STATE_WRITE_EXEMPT = ("io/file.cc", "io/file.h")
STATE_WRITE_RE = re.compile(r"\bWriteStringToFile\s*\(")

# flight-record-path: files and function names forming the record path.
FLIGHT_FILE_MARKER = "flight_recorder"
# A definition-looking line whose function name is Record* or FlightRecord*
# (optionally class-qualified). Declarations (ending in `;` before any `{`)
# are skipped by the body scan.
FLIGHT_FUNC_RE = re.compile(
    r"^[\w][\w:\s<>*&]*\b(?:\w+::)?(Record\w*|FlightRecord\w*)\s*\(")
FLIGHT_FORBIDDEN = (
    ("mutex acquisition",
     re.compile(r"\bMutexLock\b|\bCondVar\b|\.\s*[Ll]ock\s*\(")),
    ("IO call",
     re.compile(r"\b(fopen|fclose|fwrite|fread|fprintf|fputs|fflush|fsync|"
                r"fdatasync|open|write|read|pread|pwrite)\s*\(")),
    ("heap allocation",
     re.compile(r"\bnew\b|\b(malloc|calloc|realloc)\s*\(")),
)

# stderr-write: the logger's terminal sink is the one sanctioned writer.
STDERR_EXEMPT = ("obs/log.cc",)
STDERR_WRITE_RE = re.compile(
    r"\bfprintf\s*\(\s*stderr\b|\bfputs\s*\([^)]*,\s*stderr\s*\)|"
    r"\bfputc\s*\([^)]*,\s*stderr\s*\)|\bstd::cerr\b|\bperror\s*\(")

# mutex-rank: a Mutex member declaration; `MutexLock`, `Mutex*` and
# `Mutex&` deliberately do not match. The wrapper header itself is exempt
# (it defines the type and documents the unranked constructor).
MUTEX_RANK_EXEMPT = ("common/thread_annotations.h",)
MUTEX_MEMBER_DECL_RE = re.compile(r"\b(?:mutable\s+)?Mutex\s+\w+\s*[;{]")

# condvar-wait-loop: a CondVar wait call; `WaitForWrites()` and other
# longer names do not match (the `(` must directly follow Wait/WaitFor).
WAIT_CALL_RE = re.compile(r"\b\w+\s*(?:\.|->)\s*Wait(?:For)?\s*\(")
LOOP_KEYWORD_RE = re.compile(r"\b(while|for|do)\b")
UNCONDITIONAL_LOOP_RE = re.compile(
    r"\bwhile\s*\(\s*(true|1)\s*\)|\bfor\s*\(\s*;\s*;\s*\)")
IF_RE = re.compile(r"\bif\s*\(")

# thread-spawn: thread construction, not mentions of the type
# (`std::thread thread_;`, `std::thread::hardware_concurrency()`).
THREAD_SPAWN_RE = re.compile(
    r"\bstd::j?thread\s*(?:\w+\s*)?[({]|\bpthread_create\s*\(|"
    r"\bstd::async\s*\(")
ALLOW_THREAD_SPAWN_RE = re.compile(
    r"//\s*scanraw-lint:\s*allow\(thread-spawn\)\s*\S")

# numeric-at: the execution engine, where per-value access is banned.
NUMERIC_AT_DIRS = ("src/exec/",)
NUMERIC_AT_RE = re.compile(r"\bNumericAt\s*\(")
ALLOW_NUMERIC_AT_RE = re.compile(
    r"//\s*scanraw-lint:\s*allow\(numeric-at\)\s*\S")

# byte-loop: hot-path directories where per-byte scan loops are banned.
BYTE_LOOP_DIRS = ("src/format/", "src/scanraw/")
# A `for` header that advances one element at a time.
FOR_INCREMENT_RE = re.compile(r"\bfor\s*\([^)]*\+\+")
# An indexed byte compared against a character literal, e.g.
# `data[i] == '\n'` or `buf[pos] != ','`.
CHAR_COMPARE_RE = re.compile(r"\w+\s*\[[^\]]*\]\s*[!=]=\s*'(\\.|[^'\\])'")
BYTE_LOOP_WINDOW = 3  # lines after the for-header to look for the compare


def is_suppressed(lines, idx, rule):
    for probe in (idx, idx - 1):
        if 0 <= probe < len(lines):
            m = ALLOW_RE.search(lines[probe])
            if m and m.group(1) == rule:
                return True
    return False


def strip_comments(line):
    """Removes // comments and collapses string literals so lint patterns
    never match inside either. Block comments are rare in this tree and
    handled line-locally."""
    line = re.sub(r'"(\\.|[^"\\])*"', '""', line)
    line = re.sub(r"/\*.*?\*/", "", line)
    return line.split("//")[0]


def check_raw_mutex(rel, lines, findings):
    if any(rel.endswith(e) for e in RAW_MUTEX_EXEMPT):
        return
    for i, line in enumerate(lines):
        code = strip_comments(line)
        m = RAW_MUTEX_RE.search(code)
        if m and not is_suppressed(lines, i, "raw-mutex"):
            findings.append((rel, i + 1, "raw-mutex",
                             f"use the annotated wrapper from "
                             f"common/thread_annotations.h instead of "
                             f"std::{m.group(1)}"))


def check_sleep(rel, lines, findings):
    for i, line in enumerate(lines):
        if SLEEP_RE.search(strip_comments(line)) and \
                not is_suppressed(lines, i, "sleep-in-src"):
            findings.append((rel, i + 1, "sleep-in-src",
                             "use CondVar::WaitFor instead of "
                             "std::this_thread::sleep_for"))


def scope_start(lines, idx):
    """Best-effort index of the enclosing function body start: walk upwards
    past balanced braces until a definition-looking line at brace depth
    <= 0, bounded by MAX_SCOPE_LOOKBACK."""
    depth = 0
    lo = max(0, idx - MAX_SCOPE_LOOKBACK)
    for j in range(idx - 1, lo - 1, -1):
        code = strip_comments(lines[j])
        depth += code.count("}") - code.count("{")
        if depth < 0 and FUNC_START_RE.match(code) and \
                not CONTROL_KEYWORD_RE.match(code):
            return j
    return lo


def check_unchecked_value(rel, lines, findings):
    for i, line in enumerate(lines):
        code = strip_comments(line)
        if not VALUE_CALL_RE.search(code):
            continue
        if OK_CHECK_RE.search(code):
            continue  # checked on the same line (e.g. `r.ok() ? r.value()...`)
        if is_suppressed(lines, i, "unchecked-value"):
            continue
        start = scope_start(lines, i)
        checked = any(OK_CHECK_RE.search(strip_comments(lines[j]))
                      for j in range(start, i))
        if not checked:
            findings.append((rel, i + 1, "unchecked-value",
                             ".value() without a preceding ok() check in "
                             "the same scope"))


def check_include_guard(rel, lines, findings):
    for i, line in enumerate(lines):
        if re.match(r"\s*#\s*pragma\s+once\b", line) and \
                not is_suppressed(lines, i, "include-guard"):
            findings.append((rel, i + 1, "include-guard",
                             "#pragma once is banned; use a "
                             "SCANRAW_<PATH>_H_ ifndef guard"))
            return
    ifndef = None
    ifndef_line = 0
    for i, line in enumerate(lines):
        m = re.match(r"\s*#\s*ifndef\s+(\w+)", line)
        if m:
            ifndef, ifndef_line = m.group(1), i
            break
        if re.match(r"\s*#\s*(if|include|define)\b", line):
            break  # preprocessor activity before any guard
    if ifndef is None:
        if not is_suppressed(lines, 0, "include-guard"):
            findings.append((rel, 1, "include-guard",
                             "header has no include guard"))
        return
    if is_suppressed(lines, ifndef_line, "include-guard"):
        return
    # The #define must immediately follow the #ifndef with the same token.
    if ifndef_line + 1 >= len(lines) or not re.match(
            rf"\s*#\s*define\s+{re.escape(ifndef)}\s*$",
            lines[ifndef_line + 1]):
        findings.append((rel, ifndef_line + 2, "include-guard",
                         f"#define {ifndef} must directly follow the "
                         f"#ifndef"))
        return
    # Canonical token for headers under a src/ root.
    parts = rel.replace(os.sep, "/").split("/")
    if "src" in parts:
        sub = "/".join(parts[parts.index("src") + 1:])
        expected = "SCANRAW_" + re.sub(r"[^A-Za-z0-9]", "_", sub).upper() + "_"
        if ifndef != expected:
            findings.append((rel, ifndef_line + 1, "include-guard",
                             f"guard is {ifndef}, expected {expected}"))
            return
    # Closing #endif should name the guard in a trailing comment.
    for line in reversed(lines):
        stripped = line.strip()
        if not stripped:
            continue
        if not re.match(rf"#\s*endif\s*//\s*{re.escape(ifndef)}\b", stripped):
            findings.append((rel, len(lines), "include-guard",
                             f"closing #endif must carry a "
                             f"`// {ifndef}` comment"))
        return


def check_state_file_write(rel, lines, findings):
    if any(rel.replace(os.sep, "/").endswith(e) for e in STATE_WRITE_EXEMPT):
        return
    for i, line in enumerate(lines):
        if STATE_WRITE_RE.search(strip_comments(line)) and \
                not is_suppressed(lines, i, "state-file-write"):
            findings.append((rel, i + 1, "state-file-write",
                             "WriteStringToFile is not crash-safe; use "
                             "AtomicWriteFile for state files"))


def check_stderr_write(rel, lines, findings):
    if any(rel.replace(os.sep, "/").endswith(e) for e in STDERR_EXEMPT):
        return
    for i, line in enumerate(lines):
        if STDERR_WRITE_RE.search(strip_comments(line)) and \
                not is_suppressed(lines, i, "stderr-write"):
            findings.append((rel, i + 1, "stderr-write",
                             "direct stderr write in src/; use the LOG_* "
                             "macros from obs/log.h (obs/log.cc is the only "
                             "sanctioned writer)"))


def in_dirs(rel, dirs):
    norm = rel.replace(os.sep, "/")
    return any(norm.startswith(d) or f"/{d}" in norm for d in dirs)


def check_byte_loop(rel, lines, findings):
    if not in_dirs(rel, BYTE_LOOP_DIRS):
        return
    for i, line in enumerate(lines):
        code = strip_comments(line)
        if not FOR_INCREMENT_RE.search(code):
            continue
        hi = min(len(lines), i + BYTE_LOOP_WINDOW + 1)
        hit = next((j for j in range(i, hi)
                    if CHAR_COMPARE_RE.search(strip_comments(lines[j]))),
                   None)
        if hit is None:
            continue
        if is_suppressed(lines, i, "byte-loop") or \
                is_suppressed(lines, hit, "byte-loop"):
            continue
        findings.append((rel, i + 1, "byte-loop",
                         "per-byte scan loop in the conversion hot path; "
                         "use FindByte/FindN/FindAll from "
                         "common/byte_scan.h"))


def check_flight_record_path(rel, lines, findings):
    if FLIGHT_FILE_MARKER not in os.path.basename(rel):
        return
    i, n = 0, len(lines)
    while i < n:
        if not FLIGHT_FUNC_RE.match(strip_comments(lines[i])):
            i += 1
            continue
        # Find the body's opening brace; a `;` first means a declaration.
        j, opened = i, False
        while j < n:
            code = strip_comments(lines[j])
            brace, semi = code.find("{"), code.find(";")
            if brace != -1 and (semi == -1 or brace < semi):
                opened = True
                break
            if semi != -1:
                break
            j += 1
        if not opened:
            i = j + 1
            continue
        # Scan the body, tracking brace depth until it closes.
        depth, k = 0, j
        while k < n:
            code = strip_comments(lines[k])
            depth += code.count("{") - code.count("}")
            for what, pat in FLIGHT_FORBIDDEN:
                if pat.search(code) and \
                        not is_suppressed(lines, k, "flight-record-path"):
                    findings.append((rel, k + 1, "flight-record-path",
                                     f"{what} in a flight-recorder record "
                                     f"path; Record* must stay lock-free, "
                                     f"IO-free, and allocation-free"))
            if depth <= 0:
                break
            k += 1
        i = k + 1


def check_mutex_rank(rel, lines, findings):
    if any(rel.replace(os.sep, "/").endswith(e) for e in MUTEX_RANK_EXEMPT):
        return
    for i, line in enumerate(lines):
        code = strip_comments(line)
        m = MUTEX_MEMBER_DECL_RE.search(code)
        if not m:
            continue
        # Tolerate the rank on a continuation line of a `{`-initializer.
        probe = code
        if m.group(0).endswith("{") and i + 1 < len(lines):
            probe += strip_comments(lines[i + 1])
        if "LockRank::" in probe:
            continue
        if is_suppressed(lines, i, "mutex-rank"):
            continue
        findings.append((rel, i + 1, "mutex-rank",
                         "Mutex member must declare a LockRank "
                         "(`Mutex mu_{LockRank::kX, \"Class.mu\"};`); see "
                         "DESIGN.md \"Lock hierarchy\""))


def block_header(lines, j):
    """The statement opening a block on line j: line j joined with the
    continuation lines above it (a multi-line `while (a &&\\n b) {`)."""
    parts = [strip_comments(lines[j]).strip()]
    k = j - 1
    while k >= 0 and len(parts) < 4:
        prev = strip_comments(lines[k]).strip()
        if not prev or prev.startswith("#") or prev.endswith((";", "{", "}")):
            break
        parts.insert(0, prev)
        k -= 1
    return " ".join(parts)


def check_condvar_wait_loop(rel, lines, findings):
    for i, line in enumerate(lines):
        code = strip_comments(line)
        if not WAIT_CALL_RE.search(code):
            continue
        if LOOP_KEYWORD_RE.search(code):
            continue  # same-line `while (!ready) cv.Wait(lock);`
        if is_suppressed(lines, i, "condvar-wait-loop"):
            continue
        # Walk outwards to the innermost enclosing loop (the predicate
        # re-check may sit one level out, e.g.
        # `for (;;) { { lock; if (!stop_) cv.WaitFor(...); } ... }`).
        loop_line = None
        depth = 0
        min_depth = 0
        lo = max(0, i - MAX_SCOPE_LOOKBACK)
        for j in range(i - 1, lo - 1, -1):
            cj = strip_comments(lines[j])
            depth += cj.count("}") - cj.count("{")
            if depth >= min_depth:
                continue
            min_depth = depth
            header = block_header(lines, j)
            # A bare `{` opener: the loop header may sit on the line above.
            if header == "{" and j > 0:
                header = block_header(lines, j - 1)
            if LOOP_KEYWORD_RE.search(header):
                loop_line = (j, header)
                break
            if FUNC_START_RE.match(header) and \
                    not CONTROL_KEYWORD_RE.match(header):
                break  # reached the function definition: no loop found
        if loop_line is None:
            findings.append((rel, i + 1, "condvar-wait-loop",
                             "CondVar wait not wrapped in a predicate loop; "
                             "use `while (!cond) cv.Wait(lock);` (condition "
                             "variables wake spuriously)"))
            continue
        j, header = loop_line
        checked = any(IF_RE.search(strip_comments(lines[k]))
                      for k in range(j + 1, i + 1))
        if UNCONDITIONAL_LOOP_RE.search(header) and not checked:
            findings.append((rel, i + 1, "condvar-wait-loop",
                             "CondVar wait runs before any predicate check "
                             "in an unconditional loop; check first "
                             "(`if (!stop_) cv.WaitFor(...)`) or a Stop() "
                             "that lands before the wait sleeps a whole "
                             "interval"))


def check_thread_spawn(rel, lines, findings):
    for i, line in enumerate(lines):
        if not THREAD_SPAWN_RE.search(strip_comments(line)):
            continue
        if any(ALLOW_THREAD_SPAWN_RE.search(lines[k])
               for k in (i, i - 1) if k >= 0):
            continue
        findings.append((rel, i + 1, "thread-spawn",
                         "thread started outside the sanctioned sites; run "
                         "the work on ThreadPool::Shared(), periodic work "
                         "on Ticker::Shared(), or add "
                         "`// scanraw-lint: allow(thread-spawn) <reason>`"))


def check_numeric_at(rel, lines, findings):
    if not in_dirs(rel, NUMERIC_AT_DIRS):
        return
    for i, line in enumerate(lines):
        if not NUMERIC_AT_RE.search(strip_comments(line)):
            continue
        if any(ALLOW_NUMERIC_AT_RE.search(lines[k])
               for k in (i, i - 1) if k >= 0):
            continue
        findings.append((rel, i + 1, "numeric-at",
                         "per-value NumericAt in the execution engine; "
                         "resolve the column once per chunk and run a "
                         "kernel over its typed array, or add "
                         "`// scanraw-lint: allow(numeric-at) <reason>`"))


def is_test_file(rel):
    base = os.path.basename(rel)
    return ("test" in base) or ("/tests/" in rel.replace(os.sep, "/"))


def lint_file(path, findings):
    rel = os.path.relpath(path, REPO_ROOT)
    try:
        with open(path, encoding="utf-8", errors="replace") as f:
            lines = f.read().splitlines()
    except OSError as e:
        print(f"scanraw-lint: cannot read {rel}: {e}", file=sys.stderr)
        sys.exit(2)
    in_src = rel.replace(os.sep, "/").startswith("src/")
    if in_src and not is_test_file(rel):
        check_raw_mutex(rel, lines, findings)
        check_sleep(rel, lines, findings)
        check_stderr_write(rel, lines, findings)
        check_byte_loop(rel, lines, findings)
        check_state_file_write(rel, lines, findings)
        check_flight_record_path(rel, lines, findings)
        check_mutex_rank(rel, lines, findings)
        check_condvar_wait_loop(rel, lines, findings)
        check_thread_spawn(rel, lines, findings)
        check_numeric_at(rel, lines, findings)
    check_unchecked_value(rel, lines, findings)
    if rel.endswith(".h"):
        check_include_guard(rel, lines, findings)


def collect(paths):
    out = []
    for p in paths:
        if os.path.isdir(p):
            for root, _, names in os.walk(p):
                for n in sorted(names):
                    if n.endswith((".h", ".cc")):
                        out.append(os.path.join(root, n))
        elif os.path.isfile(p):
            out.append(p)
        else:
            print(f"scanraw-lint: no such path: {p}", file=sys.stderr)
            sys.exit(2)
    return out


def main(argv):
    paths = argv[1:] or [os.path.join(REPO_ROOT, "src")]
    findings = []
    files = collect(paths)
    for f in files:
        lint_file(f, findings)
    for rel, lineno, rule, msg in findings:
        print(f"{rel}:{lineno}: [{rule}] {msg}")
    if findings:
        print(f"scanraw-lint: {len(findings)} finding(s) in "
              f"{len(files)} file(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
