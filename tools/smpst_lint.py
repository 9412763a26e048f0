#!/usr/bin/env python3
"""smpst_lint: repo-invariant linter for the spanning-tree codebase.

Enforces concurrency contracts that generic tools (clang-tidy, TSan) do not
express:

  SL001 implicit-memory-order
      Every operation on a std::atomic / std::atomic_ref / std::atomic_flag
      variable declared in src/core, src/sched or src/obs must name an
      explicit
      std::memory_order.  Defaulted seq_cst hides the author's intent and
      makes the memory-order audit unreviewable.  Compound operators
      (++, --, +=, =, ...) on atomics are implicit seq_cst and are flagged
      too.

  SL002 failpoint-under-lock
      SMPST_FAILPOINT / SMPST_FAILPOINT_TRIGGERED must not execute while a
      scoped lock guard (LockGuard, std::lock_guard, std::unique_lock,
      std::scoped_lock) is held.  A failpoint may throw or sleep; doing so
      under a lock turns an injected fault into a lock-hold-time bug that
      no production code path has.

  SL003 failpoint-in-barrier-window
      SMPST_FAILPOINT must not appear between a split-phase barrier
      `.arrive(` and the matching `.wait(` on the same object.  A throw in
      that window strands the other parties at the barrier forever.

  SL004 raw-concurrency-primitive
      src/core, src/sched and src/obs must not use raw std::mutex,
      std::recursive_mutex, std::timed_mutex, std::shared_mutex,
      std::lock_guard, std::unique_lock, std::scoped_lock,
      std::condition_variable(_any), std::thread or std::jthread.  The
      annotated wrappers in support/thread_annotations.hpp (smpst::Mutex,
      LockGuard, CondVar) carry Clang thread-safety attributes; raw
      primitives silently opt out of -Wthread-safety.
      Designated-owner exception: sched/thread_pool.* is the one
      translation unit allowed to own std::thread directly — every other
      file must go through ThreadPool.

  SL005 include-hygiene
      First-party includes must be quoted, project-root-relative (no "../"
      or "./" prefixes), headers under src/ must carry #pragma once, and
      nobody includes <bits/...> internals.

Usage:
  tools/smpst_lint.py [--root DIR] [paths...]
  tools/smpst_lint.py --scope core file1.cpp ...   # force core/sched rules
                                                   # (used by fixture tests)

With no paths, lints every .hpp/.cpp under src/.  Exit status is 1 when any
finding is reported, 0 when clean.
"""

from __future__ import annotations

import argparse
import pathlib
import re
import sys
from dataclasses import dataclass

ATOMIC_METHODS = (
    "load|store|exchange|fetch_add|fetch_sub|fetch_and|fetch_or|fetch_xor|"
    "compare_exchange_weak|compare_exchange_strong|test_and_set|test|clear|"
    "wait"
)

# Declarations that introduce an atomic variable we then track by name.
ATOMIC_DECL_RE = re.compile(
    r"std\s*::\s*atomic(?:_ref)?\s*<[^<>;]*(?:<[^<>;]*>[^<>;]*)?>\s*"
    r"(?P<ptr>\*\s*)?(?P<name>\w+)"
)
ATOMIC_FLAG_DECL_RE = re.compile(r"std\s*::\s*atomic_flag\s+(?P<name>\w+)")

FENCE_RE = re.compile(r"\batomic_thread_fence\s*\(")

# Guard declarations, with or without explicit template arguments — CTAD
# (`LockGuard lk(m);`) acquires exactly like `LockGuard<Mutex> lk(m);`.
LOCK_GUARD_RE = re.compile(
    r"\b(?:smpst\s*::\s*)?(?:LockGuard|"
    r"std\s*::\s*lock_guard|"
    r"std\s*::\s*unique_lock|"
    r"std\s*::\s*scoped_lock)\s*(?:<[^>]*>)?\s+\w+\s*[({]"
)

# User-defined scoped-capability RAII classes (declared with
# SMPST_SCOPED_CAPABILITY) acquire in their constructor just like LockGuard;
# their names are collected across the linted set so SL002/SL003 treat a
# `ShardGuard g(x);` declaration as an acquisition.
SCOPED_CAPABILITY_DECL_RE = re.compile(
    r"\b(?:class|struct)\s+SMPST_SCOPED_CAPABILITY\s+(?P<name>\w+)")

FAILPOINT_RE = re.compile(r"\bSMPST_FAILPOINT(?:_TRIGGERED)?\s*\(")

BANNED_PRIMITIVES = [
    ("std::mutex", re.compile(r"\bstd\s*::\s*mutex\b")),
    ("std::recursive_mutex", re.compile(r"\bstd\s*::\s*recursive_mutex\b")),
    ("std::timed_mutex", re.compile(r"\bstd\s*::\s*timed_mutex\b")),
    ("std::shared_mutex", re.compile(r"\bstd\s*::\s*shared_mutex\b")),
    ("std::lock_guard", re.compile(r"\bstd\s*::\s*lock_guard\b")),
    ("std::unique_lock", re.compile(r"\bstd\s*::\s*unique_lock\b")),
    ("std::scoped_lock", re.compile(r"\bstd\s*::\s*scoped_lock\b")),
    ("std::condition_variable",
     re.compile(r"\bstd\s*::\s*condition_variable(?:_any)?\b")),
    ("std::thread", re.compile(r"\bstd\s*::\s*(?:j)?thread\b")),
]

INCLUDE_RE = re.compile(r'^\s*#\s*include\s+(?:"(?P<quoted>[^"]+)"|'
                        r"<(?P<angled>[^>]+)>)")


@dataclass
class Finding:
    path: str
    line: int
    rule: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def strip_comments_and_strings(text: str) -> str:
    """Blank out comments and string/char literals, preserving newlines so
    line numbers survive."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            while i < n and text[i] != "\n":
                i += 1
        elif c == "/" and nxt == "*":
            i += 2
            while i < n and not (text[i] == "*" and i + 1 < n
                                 and text[i + 1] == "/"):
                if text[i] == "\n":
                    out.append("\n")
                i += 1
            i = min(i + 2, n)
        elif c == '"' or c == "'":
            quote = c
            i += 1
            while i < n and text[i] != quote:
                if text[i] == "\\":
                    i += 1
                elif text[i] == "\n":
                    out.append("\n")
                i += 1
            i += 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


def line_of(text: str, pos: int) -> int:
    return text.count("\n", 0, pos) + 1


def extract_call_args(text: str, open_paren: int) -> str | None:
    """Return the text between the paren at `open_paren` and its match."""
    depth = 0
    for i in range(open_paren, len(text)):
        if text[i] == "(":
            depth += 1
        elif text[i] == ")":
            depth -= 1
            if depth == 0:
                return text[open_paren + 1:i]
    return None


# ---------------------------------------------------------------- SL001 ----

def check_memory_order(path: str, text: str) -> list[Finding]:
    findings: list[Finding] = []
    names = {m.group("name") for m in ATOMIC_DECL_RE.finditer(text)}
    names |= {m.group("name") for m in ATOMIC_FLAG_DECL_RE.finditer(text)}
    if names:
        alt = "|".join(sorted(re.escape(n) for n in names))
        call_re = re.compile(
            rf"\b(?:this\s*->\s*)?(?P<var>{alt})\s*"
            rf"(?:\[[^\]]*\]\s*)?(?:\.|->)\s*"
            rf"(?P<method>{ATOMIC_METHODS})\s*\(")
        for m in call_re.finditer(text):
            args = extract_call_args(text, m.end() - 1)
            if args is None or "memory_order" not in args:
                findings.append(Finding(
                    path, line_of(text, m.start()), "SL001",
                    f"atomic op '{m.group('var')}.{m.group('method')}' "
                    f"defaults to seq_cst; name the memory_order explicitly"))
        # Compound / assignment operators on atomics are implicit seq_cst.
        op_re = re.compile(
            rf"\b(?:this\s*->\s*)?(?P<var>{alt})\s*"
            rf"(?P<op>\+\+|--|(?:[-+|&^])?=(?!=))")
        for m in op_re.finditer(text):
            # `name =` inside its own declaration (e.g. `atomic<int> x = ...`
            # or brace-init) is construction, not an atomic RMW; skip when the
            # declaration regex covers this position.
            decl_here = any(d.start("name") == m.start("var")
                            for d in ATOMIC_DECL_RE.finditer(text))
            if decl_here:
                continue
            findings.append(Finding(
                path, line_of(text, m.start()), "SL001",
                f"operator '{m.group('op')}' on atomic "
                f"'{m.group('var')}' is implicit seq_cst; use an explicit "
                f"fetch_/store/load with a named memory_order"))
    for m in FENCE_RE.finditer(text):
        args = extract_call_args(text, m.end() - 1)
        if args is None or "memory_order" not in args:
            findings.append(Finding(
                path, line_of(text, m.start()), "SL001",
                "atomic_thread_fence without an explicit memory_order"))
    return findings


# --------------------------------------------------------- SL002 / SL003 ----

def check_failpoint_placement(path: str, text: str,
                              extra_guards: frozenset[str] = frozenset()
                              ) -> list[Finding]:
    findings: list[Finding] = []
    events: list[tuple[int, str, re.Match]] = []
    guard_starts: set[int] = set()
    for m in LOCK_GUARD_RE.finditer(text):
        events.append((m.start(), "guard", m))
        guard_starts.add(m.start())
    if extra_guards:
        alt = "|".join(sorted(re.escape(g) for g in extra_guards))
        cap_re = re.compile(rf"\b(?:{alt})\s+\w+\s*[({{]")
        for m in cap_re.finditer(text):
            # Skip the class definition itself (`class ... Name {`) and any
            # position the base regex already claimed.
            head = text[max(0, m.start() - 64):m.start()]
            if re.search(r"\b(?:class|struct)\s+\w*\s*$", head):
                continue
            if m.start() not in guard_starts:
                events.append((m.start(), "guard", m))
    for m in FAILPOINT_RE.finditer(text):
        events.append((m.start(), "failpoint", m))
    arrive_re = re.compile(r"\b(?P<obj>\w+)\s*(?:\.|->)\s*arrive\s*\(")
    wait_re = re.compile(r"\b(?P<obj>\w+)\s*(?:\.|->)\s*wait\s*\(")
    for m in arrive_re.finditer(text):
        events.append((m.start(), "arrive", m))
    for m in wait_re.finditer(text):
        events.append((m.start(), "wait", m))
    events.sort(key=lambda e: e[0])
    ei = 0

    guard_depths: list[int] = []   # brace depth at each active guard's scope
    arrived: dict[str, int] = {}   # barrier object -> brace depth at arrive
    depth = 0
    for i, c in enumerate(text):
        while ei < len(events) and events[ei][0] == i:
            _, kind, m = events[ei]
            ei += 1
            if kind == "guard":
                guard_depths.append(depth)
            elif kind == "arrive":
                arrived[m.group("obj")] = depth
            elif kind == "wait":
                arrived.pop(m.group("obj"), None)
            elif kind == "failpoint":
                if guard_depths:
                    findings.append(Finding(
                        path, line_of(text, i), "SL002",
                        "failpoint executes while a scoped lock guard is "
                        "held; move it outside the guarded region"))
                if arrived:
                    objs = ", ".join(sorted(arrived))
                    findings.append(Finding(
                        path, line_of(text, i), "SL003",
                        f"failpoint between barrier arrive and wait "
                        f"(object: {objs}); a throw here strands the other "
                        f"parties"))
        if c == "{":
            depth += 1
        elif c == "}":
            # A guard/window recorded at depth d stays alive until its
            # *enclosing* scope closes (depth drops below d).  `depth <= d`
            # would wrongly release it when a sibling nested block — or the
            # guard's own brace-initializer `LockGuard lk{m};` — closes.
            depth -= 1
            while guard_depths and depth < guard_depths[-1]:
                guard_depths.pop()
            for obj in [o for o, d in arrived.items() if depth < d]:
                del arrived[obj]
    return findings


# ---------------------------------------------------------------- SL004 ----

def check_raw_primitives(path: str, text: str,
                         thread_owner: bool) -> list[Finding]:
    findings: list[Finding] = []
    for label, pattern in BANNED_PRIMITIVES:
        if label == "std::thread" and thread_owner:
            continue
        for m in pattern.finditer(text):
            findings.append(Finding(
                path, line_of(text, m.start()), "SL004",
                f"raw {label} in core/sched; use the annotated wrappers in "
                f"support/thread_annotations.hpp"
                + (" (only sched/thread_pool.* may own std::thread)"
                   if label == "std::thread" else "")))
    return findings


# ---------------------------------------------------------------- SL005 ----

def check_include_hygiene(path: str, raw_text: str, stripped_text: str,
                          is_src_header: bool) -> list[Finding]:
    findings: list[Finding] = []
    for lineno, line in enumerate(raw_text.splitlines(), start=1):
        m = INCLUDE_RE.match(line)
        if not m:
            continue
        quoted, angled = m.group("quoted"), m.group("angled")
        if quoted is not None and (quoted.startswith("../")
                                   or quoted.startswith("./")):
            findings.append(Finding(
                path, lineno, "SL005",
                f'relative include "{quoted}"; use a project-root-relative '
                f"path"))
        if angled is not None and angled.startswith("bits/"):
            findings.append(Finding(
                path, lineno, "SL005",
                f"<{angled}> is a libstdc++ internal header"))
    if is_src_header and "#pragma once" not in stripped_text:
        findings.append(Finding(path, 1, "SL005",
                                "header under src/ lacks #pragma once"))
    return findings


# ----------------------------------------------------------------- driver ----

def classify(root: pathlib.Path, path: pathlib.Path,
             forced_scope: str | None) -> tuple[bool, bool, bool]:
    """Return (core_or_sched, thread_owner, is_src_header)."""
    try:
        rel = path.resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        rel = path.as_posix()
    core_or_sched = ("src/core/" in f"/{rel}" or "src/sched/" in f"/{rel}"
                     or "src/obs/" in f"/{rel}" or "src/storage/" in f"/{rel}")
    if forced_scope in ("core", "sched"):
        core_or_sched = True
    thread_owner = bool(re.search(r"sched/thread_pool\.(hpp|cpp)$", rel))
    if forced_scope and path.name.startswith("thread_owner"):
        thread_owner = True
    is_src_header = rel.startswith("src/") and rel.endswith(".hpp")
    if forced_scope:
        is_src_header = path.suffix == ".hpp"
    return core_or_sched, thread_owner, is_src_header


def lint_file(root: pathlib.Path, path: pathlib.Path,
              forced_scope: str | None,
              extra_guards: frozenset[str] = frozenset()) -> list[Finding]:
    raw = path.read_text(encoding="utf-8", errors="replace")
    text = strip_comments_and_strings(raw)
    rel = str(path)
    core_or_sched, thread_owner, is_src_header = classify(
        root, path, forced_scope)
    findings: list[Finding] = []
    if core_or_sched:
        findings += check_memory_order(rel, text)
        findings += check_raw_primitives(rel, text, thread_owner)
    findings += check_failpoint_placement(rel, text, extra_guards)
    findings += check_include_hygiene(rel, raw, text, is_src_header)
    return findings


def collect_scoped_capabilities(targets: list[pathlib.Path]) -> frozenset[
        str]:
    """Names of SMPST_SCOPED_CAPABILITY RAII classes across the linted set
    (acquisitions by such a class's constructor count as guards)."""
    names: set[str] = set()
    for t in targets:
        try:
            text = strip_comments_and_strings(
                t.read_text(encoding="utf-8", errors="replace"))
        except OSError:
            continue
        for m in SCOPED_CAPABILITY_DECL_RE.finditer(text):
            names.add(m.group("name"))
    # LockGuard's own declaration is SMPST_SCOPED_CAPABILITY; the base
    # regex already handles it (including CTAD).
    names.discard("LockGuard")
    return frozenset(names)


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("paths", nargs="*", help="files or dirs to lint "
                    "(default: <root>/src)")
    ap.add_argument("--root", default=".", help="project root "
                    "(default: cwd)")
    ap.add_argument("--scope", choices=["core", "sched", "auto"],
                    default="auto",
                    help="force core/sched rule scope on the given files "
                    "(fixture tests)")
    args = ap.parse_args(argv)

    root = pathlib.Path(args.root)
    targets: list[pathlib.Path] = []
    if args.paths:
        for p in args.paths:
            pp = pathlib.Path(p)
            if pp.is_dir():
                targets += sorted(pp.rglob("*.hpp")) + sorted(
                    pp.rglob("*.cpp"))
            else:
                targets.append(pp)
    else:
        src = root / "src"
        targets = sorted(src.rglob("*.hpp")) + sorted(src.rglob("*.cpp"))

    forced = args.scope if args.scope != "auto" else None
    extra_guards = collect_scoped_capabilities(targets)
    findings: list[Finding] = []
    for t in targets:
        findings += lint_file(root, t, forced, extra_guards)

    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    for f in findings:
        print(f.render())
    if findings:
        print(f"smpst_lint: {len(findings)} finding(s) in "
              f"{len(targets)} file(s)", file=sys.stderr)
        return 1
    print(f"smpst_lint: clean ({len(targets)} files)", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
