#!/usr/bin/env python3
"""Project-invariant linter (DESIGN.md §11).

Codifies the repo-wide rules that clang-tidy and the compiler cannot
express, so they are CI gates instead of review folklore:

  raw-sync          std::mutex / std::condition_variable / std::lock_guard /
                    std::unique_lock / std::scoped_lock / std::shared_mutex
                    appear only inside src/util/sync.hpp. Everything else
                    uses the capability-annotated util::Mutex family, which
                    is what keeps -Werror=thread-safety meaningful (the
                    analysis cannot see through the std types).
  wall-clock        std::chrono::system_clock appears only in util/timer —
                    durations and deadlines everywhere else come from
                    steady_clock so an NTP step cannot corrupt SLO math.
  cloexec           Raw ::socket()/::socketpair()/::accept()/::accept4()
                    calls live only in the cloexec_* helpers of
                    src/parallel/socket_transport.cpp,
                    so every fd the serving stack creates carries FD_CLOEXEC
                    (a leaked listener fd in a spawned worker would keep the
                    address bound after the router dies).
  naked-new         No naked `new` expressions: ownership goes through
                    make_unique/make_shared/containers. The deliberate
                    leaked-singleton idiom in tests carries an explicit
                    `lint: allow(naked-new)` waiver.
  byte-budget       The byte decoders (mps/serialization.cpp,
                    serve/model_bundle.cpp, serve/shard_wire.cpp,
                    kernel/distributed_gram.cpp) name no istream, ifstream
                    or stringstream: they decode bytes in hand through
                    io::Reader, whose every read is bounded by the bytes
                    left, so a hostile length or shape fails before any
                    allocation sized from it.
  tsa-escape        Every QKMPS_NO_THREAD_SAFETY_ANALYSIS carries an
                    adjacent comment naming the discipline that replaces
                    the static check.

A finding can be waived with a comment containing `lint: allow(<rule>)`
on the offending line or the line above; waivers are themselves listed in
the report so they stay auditable.

Usage: scripts/lint_invariants.py [--root DIR]
Exit status 0 iff no violations. Report goes to stdout.
"""

from __future__ import annotations

import argparse
import pathlib
import re
import sys

SCOPES = ("src", "tools", "tests", "bench", "examples")
EXTENSIONS = {".cpp", ".hpp", ".h", ".cc"}

SYNC_HEADER = pathlib.Path("src/util/sync.hpp")
TIMER_FILES = {pathlib.Path("src/util/timer.hpp"), pathlib.Path("src/util/timer.cpp")}
SOCKET_FILE = pathlib.Path("src/parallel/socket_transport.cpp")
BYTE_DECODERS = {
    pathlib.Path("src/mps/serialization.cpp"),
    pathlib.Path("src/serve/model_bundle.cpp"),
    pathlib.Path("src/serve/shard_wire.cpp"),
    pathlib.Path("src/kernel/distributed_gram.cpp"),
}

RAW_SYNC = re.compile(
    r"std::(mutex|condition_variable\w*|lock_guard|unique_lock|scoped_lock|"
    r"shared_mutex|shared_lock|recursive_mutex|timed_mutex)\b"
)
WALL_CLOCK = re.compile(r"\bsystem_clock\b")
RAW_SOCKET = re.compile(r"::\s*(socket|socketpair|accept4?)\s*\(")
NAKED_NEW = re.compile(r"\bnew\b\s*(\(|[A-Za-z_:][\w:<]*)")
STREAM = re.compile(r"\b(istream|ifstream|fstream|[io]?stringstream)\b")
TSA_ESCAPE = re.compile(r"\bQKMPS_NO_THREAD_SAFETY_ANALYSIS\b")
FUNC_DEF = re.compile(r"^\w[\w:<>*&\s]*\b(\w+)\s*\([^;]*$|^\w[\w:<>*&\s]*\b(\w+)\s*\(.*\)\s*\{")
ALLOW = re.compile(r"lint:\s*allow\(([\w-]+)\)")


def strip_code(text: str) -> list[str]:
    """Returns lines with comments and string/char literals blanked out,
    preserving line numbering so findings map back to the source."""
    out = []
    i, n = 0, len(text)
    state = "code"  # code | line_comment | block_comment | string | char
    cur = []
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "\n":
            out.append("".join(cur))
            cur = []
            if state == "line_comment":
                state = "code"
            i += 1
            continue
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line_comment"
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block_comment"
                i += 2
                continue
            if c == '"':
                state = "string"
                i += 1
                continue
            if c == "'":
                # A quote inside a numeric literal is a C++14 digit
                # separator (0x51'4B'42'4C, 100'000), not a char literal.
                token = re.search(r"[\w.']*$", "".join(cur)).group()
                if re.match(r"\.?\d", token):
                    cur.append(c)
                else:
                    state = "char"
                i += 1
                continue
            cur.append(c)
            i += 1
            continue
        if state == "block_comment":
            if c == "*" and nxt == "/":
                state = "code"
                i += 2
                continue
            i += 1
            continue
        if state in ("string", "char"):
            if c == "\\":
                i += 2
                continue
            if (state == "string" and c == '"') or (state == "char" and c == "'"):
                state = "code"
            i += 1
            continue
        i += 1  # line_comment
    out.append("".join(cur))
    return out


class Report:
    def __init__(self) -> None:
        self.violations: list[str] = []
        self.waived: list[str] = []

    def add(self, rel: pathlib.Path, lineno: int, rule: str, msg: str,
            raw_lines: list[str]) -> None:
        here = raw_lines[lineno - 1] if lineno - 1 < len(raw_lines) else ""
        above = raw_lines[lineno - 2] if lineno >= 2 else ""
        for candidate in (here, above):
            m = ALLOW.search(candidate)
            if m and m.group(1) == rule:
                self.waived.append(f"{rel}:{lineno}: [{rule}] waived: {msg}")
                return
        self.violations.append(f"{rel}:{lineno}: [{rule}] {msg}")


def lint_file(root: pathlib.Path, rel: pathlib.Path, report: Report) -> None:
    text = (root / rel).read_text(encoding="utf-8", errors="replace")
    raw_lines = text.splitlines()
    code_lines = strip_code(text)

    in_cloexec_helper = False
    for lineno, code in enumerate(code_lines, start=1):
        if rel != SYNC_HEADER:
            m = RAW_SYNC.search(code)
            if m:
                report.add(rel, lineno, "raw-sync",
                           f"std::{m.group(1)} outside util/sync.hpp — use the "
                           "annotated util::Mutex family", raw_lines)
        if rel not in TIMER_FILES and WALL_CLOCK.search(code):
            report.add(rel, lineno, "wall-clock",
                       "system_clock outside util/timer — use steady_clock",
                       raw_lines)

        if RAW_SOCKET.search(code):
            # Track whether we are inside a cloexec_* helper: the only
            # place a raw socket syscall is allowed to appear.
            if not (rel == SOCKET_FILE and in_cloexec_helper):
                report.add(rel, lineno, "cloexec",
                           "raw socket/socketpair/accept call — go through "
                           "a cloexec_* helper of socket_transport.cpp so "
                           "the fd carries FD_CLOEXEC", raw_lines)
        if rel == SOCKET_FILE:
            if re.search(r"\bcloexec_\w+\s*\([^;]*\)\s*\{?\s*$", code) and \
               not code.lstrip().startswith("return") and "=" not in code:
                in_cloexec_helper = True
            elif code.startswith("}"):
                in_cloexec_helper = False

        m = NAKED_NEW.search(code)
        if m and not re.search(r"\boperator\s+new\b", code):
            report.add(rel, lineno, "naked-new",
                       "naked `new` — use make_unique/make_shared or add an "
                       "explicit waiver", raw_lines)

        m = STREAM.search(code)
        if rel in BYTE_DECODERS and m:
            report.add(rel, lineno, "byte-budget",
                       f"{m.group(1)} in a byte decoder — decode the bytes "
                       "in hand with io::Reader", raw_lines)

        if TSA_ESCAPE.search(code) and "#define" not in code:
            window = raw_lines[max(0, lineno - 4):lineno]
            if not any("//" in ln or "/*" in ln for ln in window):
                report.add(rel, lineno, "tsa-escape",
                           "QKMPS_NO_THREAD_SAFETY_ANALYSIS without an "
                           "adjacent comment naming the replacement "
                           "discipline", raw_lines)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", default=".", help="repository root")
    args = parser.parse_args()
    root = pathlib.Path(args.root).resolve()

    files = []
    for scope in SCOPES:
        base = root / scope
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*")):
            if path.suffix in EXTENSIONS and path.is_file():
                files.append(path.relative_to(root))

    report = Report()
    for rel in files:
        lint_file(root, rel, report)

    for line in report.waived:
        print(line)
    for line in report.violations:
        print(line)
    print(f"lint_invariants: {len(files)} files, "
          f"{len(report.violations)} violation(s), "
          f"{len(report.waived)} waiver(s)")
    return 1 if report.violations else 0


if __name__ == "__main__":
    sys.exit(main())
