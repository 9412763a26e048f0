#!/usr/bin/env python3
"""smpst_analyze: semantic concurrency analyzer for the spanning-tree repo.

Where tools/smpst_lint.py matches tokens, this tool builds a model of the
sources (tools/analyze/cpp_model.py): classes and their members, functions
and lambdas, reference aliases, call graphs, and lock scopes.  That model
closes the regex linter's blind spots:

  SA1 benign-race discipline
      Every access to the traversal's deliberately-racy storage (the
      `color` / `parent` arrays of the state structs in src/core) from a
      *concurrent* context — code reachable from a worker lambda handed to
      ThreadPool::run — must go through SMPST_BENIGN_RACE_LOAD/STORE or
      race_cas() (support/race.hpp).  Caught even through reference
      aliases (`auto& c = st.color; c[v] = 1;`) and raw-pointer escapes
      (`st.color.get()`).  Taking the address for prefetching
      (`&st.color[x]`) is allowed: no value is read or written.
      Sequential phases (constructors, code running before the pool enters
      or after it joins) may use plain accesses.

  SA2 memory-order explicitness
      Operations on std::atomic variables must name a std::memory_order —
      including variables whose atomic-ness hides behind a `using` alias,
      overloaded operators (++, --, +=, =) that are implicit seq_cst RMWs,
      and implicit conversion reads (`if (done_)`).  This is the semantic
      version of SL001: the variable's *type* is resolved, not its
      spelling at the declaration site.

  SA3 static lock-order extraction
      Walks every LockGuard / Mutex::lock scope, resolves each mutex
      expression to its declaring class member, and builds the cross-TU
      lock acquisition graph (lock A held while B is acquired => edge
      A -> B, including acquisitions made by callees).  Fails on (a) any
      edge between ranked mutexes that does not strictly increase the
      lockdep rank (src/support/lock_order.hpp), and (b) any cycle in the
      graph.  This is the static mirror of the runtime lockdep layer; it
      sees orders that no test happened to execute.

  SA4 loop-thread blocking-call detection
      Computes the set of functions reachable from TcpServer::run — the
      epoll loop thread — and rejects blocking operations on any of those
      paths: condition-variable waits, sleeps, file streams / stdio,
      ThreadPool::run region joins (a compute barrier), and acquisitions
      of mutexes not on the audited bounded-hold allowlist.  The loop
      thread may block in exactly one place: its own epoll_wait.

Inputs: the CMake-exported build/compile_commands.json enumerates the
translation units (fall back to globbing src/ when it is absent — e.g.
before the first configure).  Headers under src/ are always modelled.

Silencing a false positive (see docs/CONCURRENCY.md for policy):

    some_call();  // smpst-analyze: allow(SA4): <why this is safe>

on the flagged line (or the line above) suppresses that finding; for SA4
the annotation on a call site also prunes the call edge, so everything
behind a justified boundary is skipped.  Where the model cannot see an
effect (std::function indirection), declare it:

    sink_(line);  // smpst-analyze: calls(smpst::net::TcpServer::post_response)
    handler();    // smpst-analyze: acquires(TcpServer::mail_mutex_)

Usage:
  tools/analyze/smpst_analyze.py [--root DIR] [--compile-commands PATH]
                                 [--only SA1,SA3] [--backend builtin|libclang]
                                 [--scope auto|fixture] [paths...]

Exit status 1 when any finding is reported, 0 when clean.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import re
import sys
from dataclasses import dataclass

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

import cpp_model  # noqa: E402
from cpp_model import (Function, Project, SourceFile, line_of)  # noqa: E402

# ------------------------------------------------------------------ policy --

#: SA1: member names of the deliberately-racy traversal storage (src/core).
RACY_MEMBERS = {"color", "colour", "parent"}

#: SA1/SA2: the sanctioned access wrappers.
RACE_WRAPPERS = ("SMPST_BENIGN_RACE_LOAD", "SMPST_BENIGN_RACE_STORE",
                 "race_cas")

#: SA2: atomic member functions that take a memory_order.
ATOMIC_METHODS = ("load", "store", "exchange", "fetch_add", "fetch_sub",
                  "fetch_and", "fetch_or", "fetch_xor",
                  "compare_exchange_weak", "compare_exchange_strong",
                  "test_and_set", "test", "clear", "wait")

#: SA4: mutexes the loop thread may take — audited bounded-hold-time only.
#: Keyed by `Class::member` suffix.  Justifications live in
#: docs/CONCURRENCY.md ("Loop-thread mutex allowlist").
SA4_MUTEX_ALLOWLIST = {
    "TcpServer::mail_mutex_",       # mailbox swap/append: O(1) holds
    "Session::mutex_",              # slot-buffer bookkeeping: O(response)
    "BoundedQueue::mutex_",         # try_push/try_pop: O(1), never waits
    "GraphRegistry::mutex_",        # map lookup/insert: no I/O under lock
    "MetricsRegistry::mutex_",      # registry map: O(log n) lookups
    "QueryExecutor::drain_mutex_",  # rejection's empty critical section: O(1)
}

#: SA4: call names that block, with a short reason each.
SA4_BLOCKING_CALLS = {
    "sleep_for": "sleeps the calling thread",
    "sleep_until": "sleeps the calling thread",
    "usleep": "sleeps the calling thread",
    "nanosleep": "sleeps the calling thread",
    "select": "blocking readiness wait outside the epoll loop",
    "ppoll": "blocking readiness wait outside the epoll loop",
    "fopen": "synchronous file I/O",
    "freopen": "synchronous file I/O",
    "fread": "synchronous file I/O",
    "fwrite": "synchronous file I/O",
    "fgets": "synchronous file I/O",
    "system": "spawns and waits on a subprocess",
    "popen": "spawns and waits on a subprocess",
}

#: SA4: condition-variable wait method names.
SA4_WAIT_METHODS = {"wait", "wait_for", "wait_until"}

#: SA4: types whose construction implies file I/O.
SA4_STREAM_RE = re.compile(r"\bstd\s*::\s*(?:i|o)?fstream\b")

#: SA4 entry points (qualified-name suffixes).
SA4_ENTRIES = ("TcpServer::run",)

#: Lambdas passed to these (receiver, callee) pairs run on OTHER threads;
#: they must never be treated as synchronous calls (cpp_model already keeps
#: lambda bodies out of the enclosing function).  Lambdas passed to
#: ThreadPool::run are the SA1 concurrent roots.
CONCURRENT_SINK_CALLEES = {"run"}

RANK_CONST_RE = re.compile(
    r"inline\s+constexpr\s+Rank\s+(k\w+)\s*\{\s*(\d+)\s*,")
RANK_REF_RE = re.compile(r"(?:lockdep\s*::\s*)?rank\s*::\s*(k\w+)")

LOCK_CLASS_BASENAMES = {"Mutex", "SpinLock"}


@dataclass
class Finding:
    path: str
    line: int
    rule: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


# ---------------------------------------------------------------- analyzer --

class Analyzer:
    def __init__(self, root: pathlib.Path, files: list[pathlib.Path],
                 fixture_mode: bool = False):
        self.root = root.resolve()
        self.fixture_mode = fixture_mode
        self.sources: list[SourceFile] = []
        for p in sorted(set(files)):
            rel = self._rel(p)
            self.sources.append(cpp_model.parse_file(p, rel))
        self.project = Project(self.sources)
        self.by_rel = {sf.rel: sf for sf in self.sources}
        self.fn_file: dict[int, SourceFile] = {}
        for sf in self.sources:
            for fn in sf.functions:
                self.fn_file[id(fn)] = sf
        self.ranks = self._load_ranks()
        self.mutex_rank = self._index_mutex_ranks()
        self.findings: list[Finding] = []
        self._acquired_memo: dict[int, set[str]] = {}

    # -- infrastructure -----------------------------------------------------

    def _rel(self, p: pathlib.Path) -> str:
        try:
            return p.resolve().relative_to(self.root).as_posix()
        except ValueError:
            return p.as_posix()

    def _load_ranks(self) -> dict[str, int]:
        ranks: dict[str, int] = {}
        hdr = self.root / "src" / "support" / "lock_order.hpp"
        texts = []
        if hdr.exists():
            texts.append(hdr.read_text(encoding="utf-8", errors="replace"))
        for sf in self.sources:        # fixtures may declare their own
            texts.append(sf.code)
        for t in texts:
            for m in RANK_CONST_RE.finditer(t):
                ranks.setdefault(m.group(1), int(m.group(2)))
        return ranks

    def _index_mutex_ranks(self) -> dict[str, tuple[str, int] | None]:
        """lock identity (`Class::member` qualified) -> (rank const, order)
        or None for unranked mutexes."""
        out: dict[str, tuple[str, int] | None] = {}
        for sf in self.sources:
            for k in sf.classes:
                for mem in k.members.values():
                    t = self.project.resolve_alias(mem.type_str, k, sf)
                    base = t.split("<")[0].split("::")[-1].strip()
                    if base not in LOCK_CLASS_BASENAMES:
                        continue
                    ident = k.qname + "::" + mem.name
                    rm = RANK_REF_RE.search(mem.init)
                    if rm is not None and rm.group(1) in self.ranks:
                        out[ident] = (rm.group(1), self.ranks[rm.group(1)])
                    else:
                        out[ident] = None
        return out

    def _in_scope(self, sf: SourceFile, dirs: tuple[str, ...]) -> bool:
        if self.fixture_mode:
            return True
        return any(sf.rel.startswith(d) for d in dirs)

    def _allowed(self, sf: SourceFile, line: int, rule: str) -> bool:
        for ln in (line, line - 1):
            for ann in sf.annotations.get(ln, []):
                if ann.kind == "allow" and rule in ann.args:
                    return True
        return False

    def _emit(self, sf: SourceFile | None, line: int, rule: str,
              msg: str) -> None:
        if sf is None:
            self.findings.append(Finding("<unknown>", line, rule, msg))
            return
        if self._allowed(sf, line, rule):
            return
        self.findings.append(Finding(sf.rel, line, rule, msg))

    def _enclosing_fn_map(self) -> dict[int, Function]:
        out: dict[int, Function] = {}
        for sf in self.sources:
            for fn in sf.functions:
                for lam in fn.lambdas:
                    out[id(lam)] = fn
        return out

    # -- SA1 ----------------------------------------------------------------

    def check_sa1(self) -> None:
        scope = ("src/core/",)
        racy_classes: dict[str, set[str]] = {}
        for sf in self.sources:
            if not self._in_scope(sf, scope):
                continue
            for k in sf.classes:
                hits = RACY_MEMBERS & set(k.members)
                if hits:
                    racy_classes[k.qname] = hits
        if not racy_classes:
            return
        concurrent = self._concurrent_functions()
        names = "|".join(sorted(RACY_MEMBERS))
        # The lookbehind keeps the second `&` of `x && st.parent[w]` from
        # reading as address-of: that is an access, not a prefetch address.
        access_re = re.compile(
            rf"(?P<addr>(?<!&)&\s*)?"
            rf"(?P<chain>(?:\b\w+(?:\[[^\]]*\])?\s*(?:\.|->)\s*)*)"
            rf"\b(?P<mem>{names})\s*(?P<how>\[|\.\s*(?:get|data)\s*\()")
        for fn in concurrent:
            sf = self.fn_file[id(fn)]
            if not self._in_scope(sf, scope):
                continue
            own = fn.own_text(sf.code)
            wrapped = self._wrapper_spans(own)
            for m in access_re.finditer(own):
                racy = self._is_racy_access(m, fn, sf, racy_classes)
                if not racy:
                    continue
                pos = fn.start + m.start("mem")
                if any(a <= m.start("mem") < b for a, b in wrapped):
                    continue
                if m.group("addr") and m.group("how") == "[":
                    continue    # &arr[i]: address-of for prefetch, no access
                what = ("raw pointer escape defeats the benign-race "
                        "annotation layer"
                        if m.group("how") != "[" else
                        "plain access in a concurrent context")
                self._emit(sf, line_of(sf.code, pos), "SA1",
                           f"'{m.group('chain')}{m.group('mem')}': {what}; "
                           f"use SMPST_BENIGN_RACE_LOAD/STORE or race_cas "
                           f"(support/race.hpp)")
            # Reference aliases of racy storage: uses of the alias.
            for alias, expr in fn.aliases.items():
                am = re.search(rf"\b({names})$", expr)
                if am is None:
                    continue
                alias_re = re.compile(rf"\b{re.escape(alias)}\s*\[")
                for m in alias_re.finditer(own):
                    if any(a <= m.start() < b for a, b in wrapped):
                        continue
                    pos = fn.start + m.start()
                    self._emit(sf, line_of(sf.code, pos), "SA1",
                               f"'{alias}' aliases racy storage "
                               f"'{expr}'; plain access in a concurrent "
                               f"context; use SMPST_BENIGN_RACE_LOAD/STORE "
                               f"or race_cas")

    def _is_racy_access(self, m: re.Match, fn: Function, sf: SourceFile,
                        racy_classes: dict[str, set[str]]) -> bool:
        chain = m.group("chain").replace(" ", "").rstrip(".")
        chain = re.sub(r"->$", "", chain)
        mem = m.group("mem")
        if chain:
            t = self.project.type_of_expr(chain, fn, sf)
            if t is None:
                # Unresolvable owner: conservatively racy when any in-scope
                # class has a racy member of this name.
                return any(mem in hits for hits in racy_classes.values())
            k = self.project.class_of_type(
                t, self.project._klass_of(fn), sf)
            return k is not None and k.qname in racy_classes \
                and mem in racy_classes[k.qname]
        # Implicit this.
        return fn.klass in racy_classes and mem in racy_classes[fn.klass]

    def _wrapper_spans(self, own: str) -> list[tuple[int, int]]:
        spans = []
        for m in re.finditer(
                r"\b(?:" + "|".join(RACE_WRAPPERS) + r")\s*\(", own):
            close = cpp_model._match_paren(own, m.end() - 1)
            if close != -1:
                spans.append((m.start(), close))
        return spans

    def _concurrent_functions(self) -> list[Function]:
        encl = self._enclosing_fn_map()
        seeds: list[Function] = []
        for sf in self.sources:
            for fn in sf.functions:
                if fn.kind != "lambda" or fn.passed_to is None:
                    continue
                if fn.passed_to not in CONCURRENT_SINK_CALLEES:
                    continue
                recv = (fn.passed_recv or "").rstrip(".->")
                parent = encl.get(id(fn))
                pool_like = "pool" in recv.lower()
                if parent is not None and recv:
                    t = self.project.type_of_expr(recv, parent, sf)
                    if t is not None and "ThreadPool" in t:
                        pool_like = True
                if pool_like:
                    seeds.append(fn)
        reached: dict[int, Function] = {id(s): s for s in seeds}
        work = list(seeds)
        while work:
            fn = work.pop()
            sf = self.fn_file[id(fn)]
            for call in fn.calls:
                for callee in self.project.resolve_call(call, fn, sf):
                    if id(callee) not in reached:
                        reached[id(callee)] = callee
                        work.append(callee)
        return list(reached.values())

    # -- SA2 ----------------------------------------------------------------

    def check_sa2(self) -> None:
        scope = ("src/core/", "src/sched/", "src/obs/", "src/service/",
                 "src/net/", "src/support/")
        for sf in self.sources:
            if not self._in_scope(sf, scope):
                continue
            for fn in sf.functions:
                self._sa2_function(sf, fn)

    def _is_atomic_type(self, type_str: str, klass, sf) -> bool:
        if type_str.rstrip().endswith("*"):
            return False        # pointer TO an atomic, not an atomic
        t = self.project.resolve_alias(type_str, klass, sf)
        return re.match(r"(?:std\s*::\s*)?atomic(?:_ref|_flag)?\s*(?:<|$)",
                        t) is not None

    def _sa2_function(self, sf: SourceFile, fn: Function) -> None:
        own = fn.own_text(sf.code)
        klass = self.project._klass_of(fn)
        # 1) Method calls on expressions that resolve to atomic types.
        meth = "|".join(ATOMIC_METHODS)
        call_re = re.compile(
            rf"(?P<expr>(?:\b\w+(?:\[[^\]]*\])?\s*(?:\.|->)\s*)*"
            rf"\b\w+(?:\[[^\]]*\])?)\s*(?:\.|->)\s*"
            rf"(?P<method>{meth})\s*\(")
        for m in call_re.finditer(own):
            expr = m.group("expr").replace(" ", "")
            t = self.project.type_of_expr(expr, fn, sf)
            if t is None or not self._is_atomic_type(t, klass, sf):
                continue
            close = cpp_model._match_paren(own, m.end() - 1)
            args = own[m.end():close] if close != -1 else ""
            if "memory_order" in args:
                continue
            if m.group("method") in ("notify_one", "notify_all"):
                continue
            pos = fn.start + m.start("method")
            self._emit(sf, line_of(sf.code, pos), "SA2",
                       f"atomic op '{expr}.{m.group('method')}' defaults to "
                       f"seq_cst; name the memory_order explicitly "
                       f"(resolved type: {t.strip()})")
        # 2) Overloaded operators / implicit conversions on named atomics.
        atomics = self._atomic_names(fn, sf, klass)
        for name in sorted(atomics):
            decl_spots = {
                dm.start(1) for dm in re.finditer(
                    rf"\batomic\w*\s*(?:<[^;{{]*>)?\s*({re.escape(name)})\b",
                    own)}
            op_re = re.compile(
                rf"\b{re.escape(name)}\s*"
                rf"(?P<op>\+\+|--|[+\-|&^]=|=(?![=]))")
            for m in op_re.finditer(own):
                if m.start() in decl_spots:
                    continue
                if own[max(0, m.start() - 1)] in ".>&:" or \
                        own[max(0, m.start() - 1)].isalnum() or \
                        own[max(0, m.start() - 1)] == "_":
                    continue
                pos = fn.start + m.start()
                self._emit(sf, line_of(sf.code, pos), "SA2",
                           f"operator '{m.group('op')}' on atomic '{name}' "
                           f"is an implicit seq_cst RMW; use fetch_/store "
                           f"with a named memory_order")
            bare_re = re.compile(
                rf"\b{re.escape(name)}\b"
                rf"(?!\s*(?:\.|->|\[|\(|\+\+|--|[+\-|&^]?=[^=]|::))")
            for m in bare_re.finditer(own):
                prev = own[max(0, m.start() - 1)]
                if prev in ".>&:_" or prev.isalnum():
                    continue
                if m.start() in decl_spots:
                    continue
                nxt = own[m.end():m.end() + 2].lstrip()
                if nxt[:1] in ("{",):
                    continue        # brace-init of the declaration
                pos = fn.start + m.start()
                self._emit(sf, line_of(sf.code, pos), "SA2",
                           f"implicit conversion read of atomic '{name}' is "
                           f"a seq_cst load; spell .load(memory_order_...)")

    def _atomic_names(self, fn: Function, sf: SourceFile,
                      klass) -> set[str]:
        out: set[str] = set()
        for env in (fn.params, fn.locals):
            for name, t in env.items():
                if self._is_atomic_type(t, klass, sf):
                    out.add(name)
        if klass is not None:
            for name, mem in klass.members.items():
                if self._is_atomic_type(mem.type_str, klass, sf):
                    out.add(name)
        return out

    # -- SA3 ----------------------------------------------------------------

    def check_sa3(self) -> None:
        edges: dict[tuple[str, str], tuple[str, int]] = {}
        for sf in self.sources:
            for fn in sf.functions:
                self._sa3_function_edges(sf, fn, edges)
        # Rank-rule violations on direct edges.
        for (a, b), (rel, line) in sorted(edges.items()):
            sf = self.by_rel.get(rel)
            ra = self.mutex_rank.get(a)
            rb = self.mutex_rank.get(b)
            if a == b:
                self._emit(sf, line, "SA3",
                           f"recursive acquisition: '{_short(a)}' acquired "
                           f"while already held")
                continue
            if ra is not None and rb is not None:
                if rb[1] < ra[1]:
                    self._emit(sf, line, "SA3",
                               f"lock-order rank inversion: "
                               f"'{_short(b)}' (rank {rb[0]}={rb[1]}) "
                               f"acquired while '{_short(a)}' "
                               f"(rank {ra[0]}={ra[1]}) is held; rank must "
                               f"strictly increase on nested acquisition")
                elif rb[1] == ra[1]:
                    self._emit(sf, line, "SA3",
                               f"same-rank nesting: '{_short(b)}' and "
                               f"'{_short(a)}' both have rank {ra[0]}"
                               f"={ra[1]}; same-rank locks may never nest")
        # Cycles over the whole graph (covers unranked mutexes).
        graph: dict[str, set[str]] = {}
        for (a, b) in edges:
            if a != b:
                graph.setdefault(a, set()).add(b)
        for cycle in _find_cycles(graph):
            pair = (cycle[0], cycle[1])
            rel, line = edges.get(pair, next(iter(edges.values())))
            sf = self.by_rel.get(rel)
            path = " -> ".join(_short(x) for x in cycle + [cycle[0]])
            self._emit(sf, line, "SA3",
                       f"lock acquisition cycle: {path}; two threads taking "
                       f"these paths concurrently can deadlock")

    def _acquired_in(self, fn: Function, stack: set[int]) -> set[str]:
        """Lock identities (transitively) acquired by fn."""
        if id(fn) in self._acquired_memo:
            return self._acquired_memo[id(fn)]
        if id(fn) in stack:
            return set()
        stack = stack | {id(fn)}
        sf = self.fn_file[id(fn)]
        out: set[str] = set()
        for ev in fn.locks:
            if ev.kind == "unlock":
                continue
            ident = self.project.lock_identity(ev.mutex_expr, fn, sf)
            if ident is not None:
                out.add(ident)
        for call in fn.calls:
            for callee in self.project.resolve_call(call, fn, sf):
                out |= self._acquired_in(callee, stack)
        for ln, anns in sf.annotations.items():
            if not (fn.start <= self._line_pos(sf, ln) <= fn.end):
                continue
            for ann in anns:
                if ann.kind == "acquires":
                    out |= {self._resolve_lock_name(a) for a in ann.args
                            if self._resolve_lock_name(a)}
                elif ann.kind == "calls":
                    for target in self._annotation_callees(ann):
                        out |= self._acquired_in(target, stack)
        self._acquired_memo[id(fn)] = out
        return out

    def _line_pos(self, sf: SourceFile, ln: int) -> int:
        # Position of the start of line `ln` in sf.code.
        if not hasattr(sf, "_line_starts"):
            starts = [0]
            for i, c in enumerate(sf.code):
                if c == "\n":
                    starts.append(i + 1)
            sf._line_starts = starts
        starts = sf._line_starts
        return starts[ln - 1] if ln - 1 < len(starts) else len(sf.code)

    def _resolve_lock_name(self, name: str) -> str | None:
        name = name.strip()
        for ident in self.mutex_rank:
            if ident == name or ident.endswith("::" + name):
                return ident
        return name if "::" in name else None

    def _annotation_callees(self, ann) -> list[Function]:
        out = []
        for a in ann.args:
            a = a.strip()
            if a in self.project.functions:
                out += self.project.functions[a]
            else:
                for qn, fns in self.project.functions.items():
                    if qn.endswith("::" + a) or qn.endswith(a):
                        out += fns
                        break
        return out

    def _sa3_function_edges(
            self, sf: SourceFile, fn: Function,
            edges: dict[tuple[str, str], tuple[str, int]]) -> None:
        events = []         # (pos, kind, ident, scope_end, line)
        for ev in fn.locks:
            ident = self.project.lock_identity(ev.mutex_expr, fn, sf)
            events.append((ev.pos, ev.kind, ident, ev.scope_end, ev.line))
        for call in fn.calls:
            events.append((call.pos, "call", call, None, call.line))
        for ln, anns in sf.annotations.items():
            pos = self._line_pos(sf, ln)
            if not (fn.start <= pos <= fn.end):
                continue
            in_lambda = any(lam.start <= pos < lam.end for lam in fn.lambdas)
            if in_lambda:
                continue
            for ann in anns:
                if ann.kind == "acquires":
                    for a in ann.args:
                        ident = self._resolve_lock_name(a)
                        events.append((pos, "acquire_ann", ident, pos, ln))
                elif ann.kind == "calls":
                    events.append((pos, "call_ann", ann, None, ln))
        events.sort(key=lambda e: (e[0] if e[0] is not None else 0))

        held: list[tuple[str, int, str]] = []   # (ident, scope_end, kind)
        for pos, kind, payload, scope_end, ev_line in events:
            held = [h for h in held if h[1] > pos]
            if kind in ("guard", "lock", "try_lock", "acquire_ann"):
                ident = payload
                if ident is not None:
                    for h_ident, _, _ in held:
                        if h_ident is None:
                            continue
                        key = (h_ident, ident)
                        edges.setdefault(key, (sf.rel, ev_line))
                if kind != "acquire_ann":
                    held.append((ident, scope_end, kind))
            elif kind == "unlock":
                for i in range(len(held) - 1, -1, -1):
                    if held[i][0] == payload:
                        held.pop(i)
                        break
            elif kind in ("call", "call_ann") and held:
                if self._allowed(sf, ev_line, "SA3"):
                    continue
                if kind == "call":
                    callees = self.project.resolve_call(payload, fn, sf)
                else:
                    callees = self._annotation_callees(payload)
                acquired: set[str] = set()
                for callee in callees:
                    acquired |= self._acquired_in(callee, set())
                for h_ident, _, _ in held:
                    if h_ident is None:
                        continue
                    for ident in acquired:
                        edges.setdefault((h_ident, ident),
                                         (sf.rel, ev_line))

    # -- SA4 ----------------------------------------------------------------

    def check_sa4(self, entries: tuple[str, ...] = SA4_ENTRIES) -> None:
        roots = []
        for sf in self.sources:
            for fn in sf.functions:
                if any(fn.qname.endswith(e) for e in entries):
                    roots.append(fn)
        if not roots:
            return
        # BFS with shortest-path tracking for readable reports.
        paths: dict[int, list[str]] = {}
        work: list[Function] = []
        for r in roots:
            paths[id(r)] = [r.qname]
            work.append(r)
        order: list[Function] = []
        while work:
            fn = work.pop(0)
            order.append(fn)
            sf = self.fn_file[id(fn)]
            targets: list[tuple[int, list[Function]]] = []
            for call in fn.calls:
                targets.append(
                    (call.line, self.project.resolve_call(call, fn, sf)))
            for ln, anns in sf.annotations.items():
                pos = self._line_pos(sf, ln)
                if not (fn.start <= pos <= fn.end):
                    continue
                if any(lam.start <= pos < lam.end for lam in fn.lambdas):
                    continue
                for ann in anns:
                    if ann.kind == "calls":
                        targets.append((ln, self._annotation_callees(ann)))
            for ln, callees in targets:
                if self._allowed(sf, ln, "SA4"):
                    continue        # justified boundary: prune the edge
                for callee in callees:
                    if id(callee) not in paths:
                        paths[id(callee)] = paths[id(fn)] + [callee.qname]
                        work.append(callee)
        for fn in order:
            self._sa4_function(fn, paths[id(fn)])

    def _sa4_function(self, fn: Function, path: list[str]) -> None:
        sf = self.fn_file[id(fn)]
        own = fn.own_text(sf.code)
        via = " -> ".join(_short_fn(q) for q in path)
        for call in fn.calls:
            reason = None
            if call.name in SA4_BLOCKING_CALLS:
                reason = SA4_BLOCKING_CALLS[call.name]
            elif call.name in SA4_WAIT_METHODS and call.chain:
                recv = ".".join(call.chain)
                t = self.project.type_of_expr(recv, fn, sf)
                if t is not None and re.search(
                        r"\bCondVar\b|\bcondition_variable\b", t):
                    reason = "condition-variable wait"
                elif t is None:
                    reason = ("wait on an unresolvable receiver (assumed "
                              "blocking; annotate if not)")
            elif call.name == "run" and call.chain:
                recv = ".".join(call.chain)
                t = self.project.type_of_expr(recv, fn, sf)
                if t is not None and "ThreadPool" in t:
                    reason = ("ThreadPool::run joins a compute region (a "
                              "barrier over worker threads)")
            if reason is not None:
                self._emit(sf, call.line, "SA4",
                           f"blocking call '{call.name}' reachable from the "
                           f"event-loop thread ({reason}); path: {via}")
        for m in SA4_STREAM_RE.finditer(own):
            pos = fn.start + m.start()
            self._emit(sf, line_of(sf.code, pos), "SA4",
                       f"file stream on the event-loop thread (synchronous "
                       f"disk I/O); path: {via}")
        for ev in fn.locks:
            if ev.kind == "unlock":
                continue
            ident = self.project.lock_identity(ev.mutex_expr, fn, sf)
            if ident is None:
                continue
            if any(ident == a or ident.endswith("::" + a) or
                   _suffix2(ident) == a for a in SA4_MUTEX_ALLOWLIST):
                continue
            self._emit(sf, ev.line, "SA4",
                       f"mutex '{_short(ident)}' acquired on the event-loop "
                       f"thread but not on the audited bounded-hold "
                       f"allowlist (SA4_MUTEX_ALLOWLIST); path: {via}")


def _suffix2(ident: str) -> str:
    parts = ident.split("::")
    return "::".join(parts[-2:])


def _short(ident: str | None) -> str:
    if ident is None:
        return "<unresolved>"
    return _suffix2(ident)


def _short_fn(qname: str) -> str:
    if qname.startswith("<lambda"):
        return qname
    parts = qname.split("::")
    return "::".join(parts[-2:]) if len(parts) > 1 else qname


def _find_cycles(graph: dict[str, set[str]]) -> list[list[str]]:
    """Elementary cycles via DFS; each cycle reported once, rotated to its
    lexicographically-smallest node."""
    seen_cycles: set[tuple[str, ...]] = set()
    out: list[list[str]] = []

    def dfs(node: str, stack: list[str], on_stack: set[str]) -> None:
        for nxt in sorted(graph.get(node, ())):
            if nxt in on_stack:
                i = stack.index(nxt)
                cyc = stack[i:]
                k = cyc.index(min(cyc))
                canon = tuple(cyc[k:] + cyc[:k])
                if canon not in seen_cycles:
                    seen_cycles.add(canon)
                    out.append(list(canon))
            elif nxt not in visited:
                visited.add(nxt)
                stack.append(nxt)
                on_stack.add(nxt)
                dfs(nxt, stack, on_stack)
                stack.pop()
                on_stack.remove(nxt)

    visited: set[str] = set()
    for node in sorted(graph):
        if node not in visited:
            visited.add(node)
            dfs(node, [node], {node})
    return out


# ----------------------------------------------------------------- backend --

def libclang_available() -> bool:
    try:
        import clang.cindex  # noqa: F401
        return True
    except Exception:
        return False


# ------------------------------------------------------------------ driver --

def discover_files(root: pathlib.Path,
                   compile_commands: pathlib.Path | None) -> list[
                       pathlib.Path]:
    files: set[pathlib.Path] = set()
    src = root / "src"
    if compile_commands is not None and compile_commands.exists():
        try:
            db = json.loads(compile_commands.read_text(encoding="utf-8"))
            for entry in db:
                f = pathlib.Path(entry.get("file", ""))
                if not f.is_absolute():
                    f = pathlib.Path(entry.get("directory", ".")) / f
                try:
                    f.resolve().relative_to(src.resolve())
                except ValueError:
                    continue
                if f.exists():
                    files.add(f.resolve())
        except (json.JSONDecodeError, OSError) as e:
            print(f"smpst_analyze: warning: unreadable compile_commands "
                  f"({e}); falling back to globbing src/", file=sys.stderr)
    # Headers (and any TU the build happens not to list) are always modelled.
    files |= {p.resolve() for p in src.rglob("*.hpp")}
    files |= {p.resolve() for p in src.rglob("*.cpp")}
    return sorted(files)


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("paths", nargs="*",
                    help="files to analyze (default: all of src/)")
    ap.add_argument("--root", default=".", help="project root (default: cwd)")
    ap.add_argument("--compile-commands", default=None,
                    help="path to compile_commands.json "
                         "(default: <root>/build/compile_commands.json)")
    ap.add_argument("--only", default=None,
                    help="comma-separated checks to run, e.g. SA1,SA3")
    ap.add_argument("--scope", choices=["auto", "fixture"], default="auto",
                    help="fixture: treat the given files as in-scope for "
                         "every check (fixture tests)")
    ap.add_argument("--backend", choices=["builtin", "libclang"],
                    default="builtin",
                    help="libclang: use clang.cindex when importable "
                         "(falls back to builtin with a note)")
    ap.add_argument("--sa4-entry", default=None,
                    help="override the SA4 entry-point suffix "
                         "(default: TcpServer::run)")
    args = ap.parse_args(argv)

    root = pathlib.Path(args.root)
    if args.backend == "libclang" and not libclang_available():
        print("smpst_analyze: note: clang.cindex not importable; using the "
              "builtin semantic engine", file=sys.stderr)

    if args.paths:
        files = [pathlib.Path(p) for p in args.paths]
    else:
        cc = pathlib.Path(args.compile_commands) if args.compile_commands \
            else (root / "build" / "compile_commands.json")
        files = discover_files(root, cc)
        if not (cc.exists()):
            print(f"smpst_analyze: note: {cc} not found (run cmake to "
                  f"export it); analyzed src/ by glob", file=sys.stderr)

    analyzer = Analyzer(root, files, fixture_mode=(args.scope == "fixture"))
    only = {c.strip().upper() for c in args.only.split(",")} \
        if args.only else {"SA1", "SA2", "SA3", "SA4"}
    if "SA1" in only:
        analyzer.check_sa1()
    if "SA2" in only:
        analyzer.check_sa2()
    if "SA3" in only:
        analyzer.check_sa3()
    if "SA4" in only:
        entries = (args.sa4_entry,) if args.sa4_entry else SA4_ENTRIES
        analyzer.check_sa4(entries)

    analyzer.findings.sort(key=lambda f: (f.path, f.line, f.rule))
    for f in analyzer.findings:
        print(f.render())
    if analyzer.findings:
        print(f"smpst_analyze: {len(analyzer.findings)} finding(s) in "
              f"{len(analyzer.sources)} file(s)", file=sys.stderr)
        return 1
    print(f"smpst_analyze: clean ({len(analyzer.sources)} files)",
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
