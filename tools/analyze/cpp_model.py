"""cpp_model: a small semantic model of the smpst C++ sources.

This is the engine behind tools/analyze/smpst_analyze.py.  It is NOT a C++
parser — it is a purpose-built extractor that understands exactly as much of
the language as the SA1–SA4 checks need:

  * comment/string stripping that preserves byte positions (so every span in
    the model maps 1:1 onto the raw file for line numbers),
  * the scope tree: namespaces, classes/structs, functions (including
    out-of-line `Class::method` definitions and constructors with init
    lists), and lambdas — each lambda is modelled as a separate anonymous
    function so that deferred callbacks (executor submissions, pool workers)
    are NOT treated as synchronous calls of the enclosing function,
  * per-class member tables (name -> declared type + initializer text),
    `using` aliases, and method sets,
  * per-function facts: parameter/local type environments, reference
    aliases, call sites with receiver chains, and lock acquisition events
    with their guard scopes,
  * a type resolver that peels smart pointers / containers and follows
    `using` aliases, enough to turn `c.session->on_line(...)` into
    `smpst::service::Session::on_line`.

Heuristics are deliberately conservative: anything the model cannot resolve
is dropped (and can be supplied by a `// smpst-analyze: calls(...)` or
`acquires(...)` annotation) rather than guessed at.
"""

from __future__ import annotations

import pathlib
import re
from dataclasses import dataclass, field

# --------------------------------------------------------------- stripping --

_RAW_STRING_RE = re.compile(r'R"([^\s()\\]{0,16})\(')


def strip_preserving(text: str) -> str:
    """Blank comments and string/char literal *contents* with spaces, keeping
    every byte position (and therefore every line/column) identical to the
    raw text."""
    out = list(text)
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            while i < n and text[i] != "\n":
                out[i] = " "
                i += 1
        elif c == "/" and nxt == "*":
            while i < n and not (text[i] == "*" and i + 1 < n
                                 and text[i + 1] == "/"):
                if text[i] != "\n":
                    out[i] = " "
                i += 1
            if i < n:
                out[i] = " "
            if i + 1 < n:
                out[i + 1] = " "
            i += 2
        elif c == "R" and nxt == '"':
            m = _RAW_STRING_RE.match(text, i)
            if not m:
                out[i] = " "
                i += 1
                continue
            delim = ")" + m.group(1) + '"'
            end = text.find(delim, m.end())
            end = (end + len(delim)) if end != -1 else n
            for j in range(i, min(end, n)):
                if text[j] != "\n":
                    out[j] = " "
            i = end
        elif c == '"' or c == "'":
            # Not a literal when ' follows an identifier/digit: C++14 digit
            # separators (30'000) and literal suffixes.
            if c == "'" and i > 0 and (text[i - 1].isalnum()
                                       or text[i - 1] == "_"):
                i += 1
                continue
            quote = c
            i += 1
            while i < n and text[i] != quote:
                if text[i] == "\\":
                    if text[i] != "\n":
                        out[i] = " "
                    i += 1
                    if i < n and text[i] != "\n":
                        out[i] = " "
                    i += 1
                    continue
                if text[i] != "\n":
                    out[i] = " "
                i += 1
            i += 1
        else:
            i += 1
    return "".join(out)


def line_of(text: str, pos: int) -> int:
    return text.count("\n", 0, pos) + 1


# ------------------------------------------------------------- annotations --

ANNOTATION_RE = re.compile(
    r"//\s*smpst-analyze:\s*(?P<kind>allow|acquires|calls)\s*"
    r"\((?P<args>[^)]*)\)\s*(?::\s*(?P<reason>.*))?")


@dataclass
class Annotation:
    kind: str          # allow | acquires | calls
    args: list[str]
    reason: str
    line: int


def parse_annotations(raw: str) -> dict[int, list[Annotation]]:
    anns: dict[int, list[Annotation]] = {}
    for lineno, line in enumerate(raw.splitlines(), start=1):
        m = ANNOTATION_RE.search(line)
        if not m:
            continue
        args = [a.strip() for a in m.group("args").split(",") if a.strip()]
        anns.setdefault(lineno, []).append(Annotation(
            m.group("kind"), args, (m.group("reason") or "").strip(), lineno))
    return anns


# ------------------------------------------------------------------ model --

@dataclass
class Member:
    name: str
    type_str: str
    init: str          # brace- or =-initializer text ("" when none)
    line: int


@dataclass
class Klass:
    qname: str                       # e.g. smpst::service::Session
    basename: str
    file: str
    line: int
    start: int                       # body span in the stripped text
    end: int
    members: dict[str, Member] = field(default_factory=dict)
    usings: dict[str, str] = field(default_factory=dict)
    methods: set[str] = field(default_factory=set)   # declared or defined


@dataclass
class CallSite:
    pos: int                         # position in the FILE's stripped text
    chain: list[str]                 # receiver components, [] for free calls
    quals: str                       # explicit :: qualifier text ("" if none)
    name: str
    line: int


@dataclass
class LockEvent:
    pos: int
    kind: str                        # guard | lock | unlock | try_lock
    mutex_expr: str                  # source expression of the mutex
    scope_end: int                   # guards: end of the enclosing brace scope
    line: int


@dataclass
class Function:
    qname: str                       # smpst::net::TcpServer::run, or
    #                                  <lambda@file:line> for lambdas
    basename: str
    klass: str | None                # qualified class name for methods
    file: str
    line: int
    head: str                        # signature text
    start: int                       # body span (inside the braces)
    end: int
    kind: str = "function"           # function | lambda
    passed_to: str | None = None     # lambdas: callee name it was passed to
    passed_recv: str | None = None   # lambdas: receiver chain of that callee
    own_ranges: list[tuple[int, int]] = field(default_factory=list)
    calls: list[CallSite] = field(default_factory=list)
    locks: list[LockEvent] = field(default_factory=list)
    params: dict[str, str] = field(default_factory=dict)
    locals: dict[str, str] = field(default_factory=dict)
    aliases: dict[str, str] = field(default_factory=dict)  # ref name -> expr
    lambdas: list["Function"] = field(default_factory=list)

    def own_text(self, code: str) -> str:
        """Body text with nested lambda bodies blanked (positions kept)."""
        buf = list(code[self.start:self.end])
        base = self.start
        for lam in self.lambdas:
            for j in range(lam.start - base, lam.end - base):
                if buf[j] != "\n":
                    buf[j] = " "
        return "".join(buf)


@dataclass
class SourceFile:
    path: pathlib.Path
    rel: str
    raw: str
    code: str                        # stripped, position-preserving
    annotations: dict[int, list[Annotation]]
    classes: list[Klass] = field(default_factory=list)
    functions: list[Function] = field(default_factory=list)
    usings: dict[str, str] = field(default_factory=dict)   # file-scope


# -------------------------------------------------------------- the parser --

# `constexpr` for `if constexpr (...)`, which is neither a call nor a
# function definition.
_CONTROL_KEYWORDS = {"if", "for", "while", "switch", "catch", "return",
                     "do", "else", "sizeof", "alignof", "decltype",
                     "static_assert", "new", "delete", "throw",
                     "alignas", "noexcept", "assert", "constexpr"}

_NS_RE = re.compile(r"\bnamespace\s*([\w:]*)\s*$")
# The name may be qualified (`class Outer::Inner {`, an out-of-line nested
# class); a base list starts with a single colon, never `::`.
_CLASS_RE = re.compile(
    r"\b(?:class|struct)\s+(?:SMPST_[A-Z_]+(?:\(\s*\w*\s*\))?\s+)?"
    r"(?P<name>\w+(?:\s*::\s*\w+)*)\s*(?:final\s*)?(?::(?!:)\s*[^{]*)?$")
_ENUM_RE = re.compile(r"\benum\b")
# A trailing return type holds no unbalanced parenthesis, so the tail of
# `if (st.workers[t]->queue.pop(v)) {` is not one.
_LAMBDA_TAIL_RE = re.compile(
    r"\[[^\[\]]*\]\s*(?:\([^{}]*\))?\s*(?:mutable\s*)?(?:constexpr\s*)?"
    r"(?:noexcept\s*(?:\([^()]*\))?)?\s*"
    r"(?:->\s*[^{()]+?(?:\([^{}()]*\)[^{()]*?)?)?\s*$")
_LAMBDA_PASSED_RE = re.compile(
    r"(?P<chain>(?:\w+(?:\[[^\]]*\])?\s*(?:\.|->)\s*|\w+\s*::\s*)*)"
    r"(?P<callee>\w+)\s*\(\s*(?:[^()\[\]]*,\s*)?$")
_FUNC_NAME_RE = re.compile(r"(~?\w[\w:~]*|operator\s*(?:\(\)|\[\]|[^\s(]+))"
                           r"\s*\(")
_TAIL_OK_RE = re.compile(
    r"(?:\s|const\b|noexcept\b(?:\([^()]*\))?|override\b|final\b|try\b|"
    r"&&?|->\s*[\w:<>,\s&*\[\]]+|SMPST_[A-Z_]+(?:\([^()]*\))?|"
    r"\[\[[^\]]*\]\]|:\s*.*)*$", re.DOTALL)


def _match_paren(text: str, open_pos: int) -> int:
    depth = 0
    for i in range(open_pos, len(text)):
        if text[i] == "(":
            depth += 1
        elif text[i] == ")":
            depth -= 1
            if depth == 0:
                return i
    return -1


def _classify_head(head: str) -> tuple[str, str]:
    """Return (kind, name) for the brace that follows `head`.

    kind: namespace | class | enum | lambda | function | block
    """
    h = head.strip()
    # Strip leading label-like cruft from a previous statement fragment.
    if h.endswith("="):
        return "block", ""
    m = _NS_RE.search(h)
    if m is not None and "(" not in h[m.start():]:
        return "namespace", m.group(1)
    if _ENUM_RE.search(h) and "(" not in h:
        return "enum", ""
    m = _CLASS_RE.search(h)
    if m is not None:
        return "class", re.sub(r"\s+", "", m.group("name"))
    if _LAMBDA_TAIL_RE.search(h) and "[" in h:
        return "lambda", ""
    # Function definition: some `name(...)` whose closing paren is followed
    # only by qualifiers / a ctor-init list.
    for fm in _FUNC_NAME_RE.finditer(h):
        name = fm.group(1)
        base = name.split("::")[-1].lstrip("~")
        if base in _CONTROL_KEYWORDS:
            continue
        if base.isupper() and "_" in base:
            continue        # macro invocation
        close = _match_paren(h, fm.end() - 1)
        if close == -1:
            continue
        tail = h[close + 1:]
        if _TAIL_OK_RE.fullmatch(tail):
            return "function", name
    return "block", ""


@dataclass
class _Scope:
    kind: str
    name: str
    depth: int            # brace depth *inside* this scope
    entity: object = None


def parse_file(path: pathlib.Path, rel: str) -> SourceFile:
    raw = path.read_text(encoding="utf-8", errors="replace")
    code = strip_preserving(raw)
    sf = SourceFile(path=path, rel=rel, raw=raw, code=code,
                    annotations=parse_annotations(raw))

    stack: list[_Scope] = []
    depth = 0
    paren = 0
    seg_start = 0
    i, n = 0, len(code)
    while i < n:
        c = code[i]
        if c == "(":
            paren += 1
        elif c == ")":
            paren = max(0, paren - 1)
        elif c == ";" and paren == 0:
            seg_start = i + 1
        elif c == "{":
            head = code[seg_start:i]
            kind, name = _classify_head(head)
            depth += 1
            paren = 0
            entity: object = None
            if kind == "namespace":
                entity = name
            elif kind == "class":
                ns = _qualify(stack)
                qname = (ns + "::" + name) if ns else name
                entity = Klass(qname=qname, basename=name.split("::")[-1],
                               file=rel, line=line_of(code, i), start=i + 1,
                               end=-1)
                sf.classes.append(entity)
            elif kind == "function" or kind == "lambda":
                encl = _enclosing_function(stack)
                if kind == "lambda":
                    lam_line = line_of(code, i)
                    passed_to = passed_recv = None
                    lm = _LAMBDA_TAIL_RE.search(head)
                    if lm is not None:
                        pm = _LAMBDA_PASSED_RE.search(head[:lm.start()])
                        if pm is not None:
                            passed_to = pm.group("callee")
                            passed_recv = pm.group("chain").replace(" ", "")
                    entity = Function(
                        qname=f"<lambda@{rel}:{lam_line}>", basename="",
                        klass=_enclosing_class_qname(stack), file=rel,
                        line=lam_line, head=head.strip()[-120:], start=i + 1,
                        end=-1, kind="lambda", passed_to=passed_to,
                        passed_recv=passed_recv)
                else:
                    qname, klass = _function_qname(stack, name)
                    entity = Function(
                        qname=qname, basename=name.split("::")[-1],
                        klass=klass, file=rel, line=line_of(code, i),
                        head=head.strip(), start=i + 1, end=-1)
                sf.functions.append(entity)
                if encl is not None and entity.kind == "lambda":
                    encl.lambdas.append(entity)
                kls = _enclosing_class(stack)
                if kls is not None and entity.kind == "function":
                    kls.methods.add(entity.basename)
            stack.append(_Scope(kind, name, depth, entity))
            seg_start = i + 1
        elif c == "}":
            depth -= 1
            while stack and stack[-1].depth > depth:
                s = stack.pop()
                if isinstance(s.entity, (Klass, Function)):
                    s.entity.end = i
            seg_start = i + 1
        i += 1
    # Close anything left dangling (unbalanced braces shouldn't happen).
    while stack:
        s = stack.pop()
        if isinstance(s.entity, (Klass, Function)) and s.entity.end < 0:
            s.entity.end = n

    for k in sf.classes:
        _collect_class_body(sf, k)
    _collect_file_usings(sf)
    for f in sf.functions:
        _collect_function_facts(sf, f)
    return sf


def _qualify(stack: list[_Scope]) -> str:
    parts = []
    for s in stack:
        if s.kind == "namespace" and s.name:
            parts.append(s.name)
        elif s.kind == "class":
            parts.append(s.name)
    return "::".join(parts)


def _enclosing_function(stack: list[_Scope]) -> Function | None:
    for s in reversed(stack):
        if isinstance(s.entity, Function):
            return s.entity
    return None


def _enclosing_class(stack: list[_Scope]) -> Klass | None:
    for s in reversed(stack):
        if isinstance(s.entity, Klass):
            return s.entity
    return None


def _enclosing_class_qname(stack: list[_Scope]) -> str | None:
    k = _enclosing_class(stack)
    return k.qname if k is not None else None


def _function_qname(stack: list[_Scope], name: str) -> tuple[str, str | None]:
    ns = _qualify(stack)
    if "::" in name:
        # Out-of-line definition: Class::method (possibly Ns::Class::method).
        cls_part, _, base = name.rpartition("::")
        klass = (ns + "::" + cls_part) if ns else cls_part
        return (klass + "::" + base), klass
    encl = _enclosing_class_qname(stack)
    if encl is not None:
        return (encl + "::" + name), encl
    return ((ns + "::" + name) if ns else name), None


# ----------------------------------------------------- class body contents --

_ACCESS_RE = re.compile(r"\b(?:public|private|protected)\s*:")
_ATTR_MACRO_RE = re.compile(
    r"\b(?:SMPST_GUARDED_BY|SMPST_PT_GUARDED_BY|SMPST_ACQUIRED_BEFORE|"
    r"SMPST_ACQUIRED_AFTER|SMPST_REQUIRES|SMPST_EXCLUDES)\s*\([^()]*\)")
_ATTR_RE = re.compile(r"\[\[[^\]]*\]\]|\balignas\s*\([^()]*\)")
_USING_RE = re.compile(r"^\s*using\s+(\w+)\s*=\s*(.+)$", re.DOTALL)


def _split_class_statements(body: str) -> list[tuple[int, str]]:
    """Top-level (depth-0) statements of a class body as (offset, text).
    Brace groups that contain no ';' (member brace-initializers) are kept
    inline; groups containing ';' (method bodies, nested types) truncate the
    statement."""
    stmts: list[tuple[int, str]] = []
    cur: list[str] = []
    start = 0
    i, n = 0, len(body)
    while i < n:
        c = body[i]
        if c == "{":
            d = 0
            j = i
            while j < n:
                if body[j] == "{":
                    d += 1
                elif body[j] == "}":
                    d -= 1
                    if d == 0:
                        break
                j += 1
            group = body[i:j + 1]
            if ";" in group:
                if "".join(cur).strip():
                    stmts.append((start, "".join(cur)))
                cur = []
                start = j + 1
            else:
                cur.append(group)
            i = j + 1
            continue
        if c == ";":
            if "".join(cur).strip():
                stmts.append((start, "".join(cur)))
            cur = []
            start = i + 1
            i += 1
            continue
        if not cur:
            start = i
        cur.append(c)
        i += 1
    if "".join(cur).strip():
        stmts.append((start, "".join(cur)))
    return stmts


_DECL_SKIP_RE = re.compile(
    r"^\s*(?:typedef\b|friend\b|template\b|static_assert\b|using\s+\w+\s*;"
    r"|enum\b|class\s+\w+\s*$|struct\s+\w+\s*$|explicit\b|virtual\b"
    r"|operator\b|~)")


def _parse_member(stmt: str) -> tuple[str, str, str] | None:
    """Parse one class-level statement into (name, type, init) or None."""
    s = _ATTR_MACRO_RE.sub(" ", stmt)
    s = _ATTR_RE.sub(" ", s)
    s = _ACCESS_RE.sub(" ", s).strip()
    if not s or _DECL_SKIP_RE.match(s):
        return None
    # Split off an initializer.
    init = ""
    bm = re.search(r"\{(?P<i>[^{}]*)\}\s*$", s)
    if bm is not None:
        init = bm.group("i").strip()
        s = s[:bm.start()].strip()
    else:
        em = re.search(r"=\s*(?P<i>[^=].*)$", s, re.DOTALL)
        if em is not None and "==" not in s:
            init = em.group("i").strip()
            s = s[:em.start()].strip()
    # A member variable: ends with an identifier (optionally an array form),
    # and the remainder parses as a type (no stray parens => not a method).
    m = re.search(r"(?P<name>\w+)\s*(?:\[\s*\w*\s*\])?\s*$", s)
    if m is None:
        return None
    name = m.group("name")
    type_str = s[:m.start()].strip()
    if not type_str or "(" in type_str or ")" in type_str:
        return None
    if type_str.split()[-1] in ("return", "delete", "new", "goto", "case"):
        return None
    return name, type_str, init


def _collect_class_body(sf: SourceFile, k: Klass) -> None:
    body = sf.code[k.start:k.end]
    # Blank nested class bodies so their members stay out of this table.
    buf = list(body)
    for other in sf.classes:
        if other is k:
            continue
        if other.start >= k.start and other.end <= k.end:
            for j in range(other.start - k.start, other.end - k.start):
                if buf[j] != "\n":
                    buf[j] = " "
    body = "".join(buf)
    for off, stmt in _split_class_statements(body):
        um = _USING_RE.match(stmt.strip())
        if um is not None:
            k.usings[um.group(1)] = um.group(2).strip()
            continue
        parsed = _parse_member(stmt)
        if parsed is None:
            # Method declarations contribute to the method-name set.
            dm = re.search(r"\b(\w+)\s*\(", stmt)
            if dm is not None and dm.group(1) not in _CONTROL_KEYWORDS:
                k.methods.add(dm.group(1))
            continue
        name, type_str, init = parsed
        k.members[name] = Member(name=name, type_str=type_str, init=init,
                                 line=line_of(sf.code, k.start + off))


def _collect_file_usings(sf: SourceFile) -> None:
    for m in re.finditer(r"^\s*using\s+(\w+)\s*=\s*([^;]+);", sf.code,
                         re.MULTILINE):
        sf.usings[m.group(1)] = m.group(2).strip()


# ------------------------------------------------------------- body facts --

_CALL_MEMBER_RE = re.compile(
    r"(?P<chain>(?:\b\w+(?:\[[^\]]*\])?\s*(?:\.|->)\s*)+)"
    r"(?P<name>~?\w+)\s*\(")
_CALL_FREE_RE = re.compile(
    r"(?<![\w.>])(?P<quals>(?:\w+\s*::\s*)*)(?P<name>\w+)\s*\(")
_GUARD_RE = re.compile(
    r"\b(?:smpst\s*::\s*)?(?:LockGuard|std\s*::\s*lock_guard|"
    r"std\s*::\s*unique_lock|std\s*::\s*scoped_lock)\s*(?:<[^<>]*>)?\s+"
    r"(?P<var>\w+)\s*(?P<open>[({])\s*(?P<mutex>[^;)}]*)[)}]")
_EXPLICIT_LOCK_RE = re.compile(
    r"(?P<expr>(?:\b\w+(?:\[[^\]]*\])?\s*(?:\.|->)\s*)*)"
    r"(?P<op>try_lock|lock|unlock)\s*\(\s*\)")
_PARAM_RE = re.compile(r"(?P<type>[\w:<>,\s&*\[\]]+?)\s*[&*]*\s*"
                       r"(?P<name>\w+)\s*(?:=[^,]*)?$")
_LOCAL_RE = re.compile(
    r"(?:^|[;{}()]\s*)(?P<type>(?:const\s+)?[A-Za-z_][\w:]*"
    r"(?:\s*<[^<>;=]*(?:<[^<>;=]*>)?[^<>;=]*>)?)\s*&{0,2}\s+"
    r"(?P<name>\w+)\s*(?:=|\{|\()", re.MULTILINE)
_ALIAS_RE = re.compile(
    r"\b(?:auto|[A-Za-z_][\w:<>]*)\s*&\s*(?P<name>\w+)\s*=\s*"
    r"(?P<expr>[\w.\->\[\]()]+)\s*;")
_RANGE_FOR_RE = re.compile(
    r"\bfor\s*\(\s*(?:const\s+)?auto\s*&{0,2}\s*"
    r"(?:\[\s*\w+\s*,\s*(?P<second>\w+)\s*\]|(?P<single>\w+))\s*:\s*"
    r"(?P<cont>[\w.\->\[\]]+)\s*\)")

_CALL_NAME_SKIP = _CONTROL_KEYWORDS | {
    "defined", "max", "min", "move", "forward", "swap", "get", "size",
    "begin", "end", "data", "empty", "clear", "push_back", "emplace_back",
    "reserve", "resize", "assign", "insert", "erase", "find", "count",
    "c_str", "substr", "append", "front", "back", "pop_back", "at",
    "static_cast", "dynamic_cast", "reinterpret_cast", "const_cast",
    "make_unique", "make_shared", "to_string", "emplace", "load", "store",
    "exchange", "fetch_add", "fetch_sub", "compare_exchange_weak",
    "compare_exchange_strong", "push", "pop",
}


def _collect_function_facts(sf: SourceFile, f: Function) -> None:
    own = f.own_text(sf.code)
    base = f.start
    # Parameters from the head: text of the last (...) group.
    _collect_params(f)
    for m in _LOCAL_RE.finditer(own):
        tname = m.group("type").strip()
        if tname.split("<")[0].rstrip(":").split("::")[-1] in \
                _CONTROL_KEYWORDS or tname in ("return", "else"):
            continue
        f.locals.setdefault(m.group("name"), tname)
    for m in _RANGE_FOR_RE.finditer(own):
        var = m.group("second") or m.group("single")
        cont = m.group("cont")
        f.locals.setdefault(var, f"__elem__({cont})")
    for m in _ALIAS_RE.finditer(own):
        f.aliases[m.group("name")] = m.group("expr")

    seen_pos: set[int] = set()
    for m in _GUARD_RE.finditer(own):
        pos = base + m.start()
        f.locks.append(LockEvent(
            pos=pos, kind="guard", mutex_expr=m.group("mutex").strip(),
            scope_end=_scope_end(own, m.start()) + base,
            line=line_of(sf.code, pos)))
        seen_pos.add(base + m.start("mutex"))
    for m in _EXPLICIT_LOCK_RE.finditer(own):
        expr = m.group("expr").replace(" ", "")
        if not expr:
            continue               # bare lock() — scoped-lock member? skip
        pos = base + m.start()
        f.locks.append(LockEvent(
            pos=pos, kind=m.group("op"),
            mutex_expr=expr.rstrip(".").rstrip("->"),
            scope_end=_scope_end(own, m.start()) + base,
            line=line_of(sf.code, pos)))
    for m in _CALL_MEMBER_RE.finditer(own):
        name = m.group("name")
        pos = base + m.start("name")
        if name in _CONTROL_KEYWORDS or pos in seen_pos:
            continue
        chain = [c for c in re.split(r"\.|->", m.group("chain").replace(
            " ", "")) if c]
        f.calls.append(CallSite(pos=pos, chain=chain, quals="", name=name,
                                line=line_of(sf.code, pos)))
    for m in _CALL_FREE_RE.finditer(own):
        name = m.group("name")
        if name in _CONTROL_KEYWORDS:
            continue
        if name.isupper() and len(name) > 2:
            continue               # macro invocation
        pos = base + m.start("name")
        f.calls.append(CallSite(pos=pos, chain=[],
                                quals=m.group("quals").replace(" ", ""),
                                name=name, line=line_of(sf.code, pos)))


def _collect_params(f: Function) -> None:
    head = f.head
    # The parameter list is the parenthesized group following the function
    # name; take the LAST balanced top-level group before any trailing
    # qualifiers / init list.
    m = _FUNC_NAME_RE.search(head) if f.kind == "function" else None
    if f.kind == "lambda":
        lm = re.search(r"\[[^\[\]]*\]\s*\(", head)
        if lm is None:
            return
        open_pos = lm.end() - 1
    elif m is not None:
        # find the name whose tail parses; reuse classification logic loosely
        open_pos = None
        for fm in _FUNC_NAME_RE.finditer(head):
            close = _match_paren(head, fm.end() - 1)
            if close != -1 and _TAIL_OK_RE.fullmatch(head[close + 1:]):
                open_pos = fm.end() - 1
                break
        if open_pos is None:
            return
    else:
        return
    close = _match_paren(head, open_pos)
    if close == -1:
        return
    args = head[open_pos + 1:close]
    for arg in _split_args(args):
        pm = _PARAM_RE.match(arg.strip())
        if pm is not None and pm.group("type").strip() not in ("void",):
            f.params[pm.group("name")] = pm.group("type").strip()


def _split_args(args: str) -> list[str]:
    out, depth, cur = [], 0, []
    for c in args:
        if c in "<([":
            depth += 1
        elif c in ">)]":
            depth -= 1
        if c == "," and depth == 0:
            out.append("".join(cur))
            cur = []
        else:
            cur.append(c)
    if "".join(cur).strip():
        out.append("".join(cur))
    return out


def _scope_end(own: str, pos: int) -> int:
    """Position of the `}` closing the innermost brace scope containing pos
    (relative to `own`; end of text when at body top level)."""
    depth = 0
    for i in range(pos, len(own)):
        c = own[i]
        if c == "{":
            depth += 1
        elif c == "}":
            if depth == 0:
                return i
            depth -= 1
    return len(own)


# ---------------------------------------------------------------- project --

_WRAPPERS = ("std::shared_ptr", "shared_ptr", "std::unique_ptr",
             "unique_ptr", "std::weak_ptr", "weak_ptr", "std::vector",
             "vector", "std::deque", "deque", "std::array", "array",
             "std::optional", "optional", "Padded", "smpst::Padded",
             "std::reference_wrapper", "reference_wrapper")


class Project:
    """Cross-file index + type/call resolution."""

    def __init__(self, files: list[SourceFile]):
        self.files = files
        self.classes: dict[str, Klass] = {}
        self.class_by_base: dict[str, list[Klass]] = {}
        self.functions: dict[str, list[Function]] = {}
        self.func_by_base: dict[str, list[Function]] = {}
        for sf in files:
            for k in sf.classes:
                self.classes.setdefault(k.qname, k)
                self.class_by_base.setdefault(k.basename, []).append(k)
            for fn in sf.functions:
                if fn.kind == "lambda":
                    continue
                self.functions.setdefault(fn.qname, []).append(fn)
                self.func_by_base.setdefault(fn.basename, []).append(fn)

    # -- type resolution ----------------------------------------------------

    def resolve_alias(self, type_str: str, klass: Klass | None,
                      sf: SourceFile | None, depth: int = 0) -> str:
        t = type_str.strip()
        if depth > 6:
            return t
        t = re.sub(r"^(?:const|mutable|volatile|static|constexpr)\s+", "", t)
        t = t.rstrip("&* ")
        base = t.split("<")[0].strip()
        if klass is not None and base in klass.usings:
            return self.resolve_alias(klass.usings[base], klass, sf,
                                      depth + 1)
        if sf is not None and base in sf.usings:
            return self.resolve_alias(sf.usings[base], klass, sf, depth + 1)
        return t

    def strip_wrappers(self, type_str: str) -> str:
        t = type_str.strip().rstrip("&* ")
        for _ in range(6):
            base = t.split("<")[0].strip()
            if base in _WRAPPERS and "<" in t:
                inner = t[t.index("<") + 1:t.rindex(">")]
                t = _split_args(inner)[0].strip().rstrip("[] ")
            else:
                break
        return t.strip().rstrip("&* ")

    def class_of_type(self, type_str: str, klass: Klass | None = None,
                      sf: SourceFile | None = None) -> Klass | None:
        t = self.resolve_alias(type_str, klass, sf)
        t = self.strip_wrappers(t)
        # Element type of a container the model tracked via range-for.
        base = t.split("<")[0].strip()
        if t in self.classes:
            return self.classes[t]
        # Suffix match: smpst::service::Session vs service::Session.
        cands = [k for q, k in self.classes.items()
                 if q == t or q.endswith("::" + t)]
        if len(cands) == 1:
            return cands[0]
        cands = self.class_by_base.get(base.split("::")[-1], [])
        if len(cands) == 1:
            return cands[0]
        return None

    def element_type(self, cont_type: str, klass: Klass | None,
                     sf: SourceFile | None) -> str | None:
        t = self.resolve_alias(cont_type, klass, sf)
        base = t.split("<")[0].strip()
        if "<" not in t:
            return None
        inner = t[t.index("<") + 1:t.rindex(">")]
        parts = _split_args(inner)
        if base.endswith("map") and len(parts) >= 2:
            return parts[1].strip()
        if parts:
            return parts[0].strip()
        return None

    # -- expression typing --------------------------------------------------

    def type_of_expr(self, expr: str, fn: Function,
                     sf: SourceFile) -> str | None:
        """Best-effort type of a dotted expression like `c.session` or
        `st.queues[tid]`, resolved in `fn`'s environment."""
        expr = expr.replace(" ", "")
        comps = [c for c in re.split(r"\.|->", expr) if c]
        if not comps:
            return None
        t = self._type_of_name(comps[0], fn, sf)
        if t is None:
            return None
        for comp in comps[1:]:
            k = self.class_of_type(t, self._klass_of(fn), sf)
            if k is None:
                return None
            name = comp.split("[")[0]
            mem = k.members.get(name)
            if mem is None:
                return None
            t = mem.type_str
            if "[" in comp:
                elem = self.element_type(t, k, sf)
                t = elem if elem is not None else t
        # Trailing subscript on the first component.
        if "[" in comps[0] and len(comps) == 1:
            elem = self.element_type(t, self._klass_of(fn), sf)
            if elem is not None:
                t = elem
        return t

    def _klass_of(self, fn: Function) -> Klass | None:
        return self.classes.get(fn.klass) if fn.klass else None

    def _type_of_name(self, name0: str, fn: Function,
                      sf: SourceFile) -> str | None:
        name = name0.split("[")[0]
        if name == "this":
            return fn.klass
        for env in (fn.locals, fn.params):
            if name in env:
                t = env[name]
                em = re.match(r"__elem__\((.+)\)", t)
                if em is not None:
                    cont_t = self.type_of_expr(em.group(1), fn, sf)
                    if cont_t is None:
                        return None
                    t = self.element_type(cont_t, self._klass_of(fn), sf) \
                        or cont_t
                if "[" in name0:
                    elem = self.element_type(t, self._klass_of(fn), sf)
                    return elem if elem is not None else t
                return t
        if name in fn.aliases:
            return self.type_of_expr(fn.aliases[name], fn, sf)
        k = self._klass_of(fn)
        if k is not None and name in k.members:
            t = k.members[name].type_str
            if "[" in name0:
                elem = self.element_type(t, k, sf)
                return elem if elem is not None else t
            return t
        return None

    # -- call resolution ----------------------------------------------------

    def resolve_call(self, call: CallSite, fn: Function,
                     sf: SourceFile) -> list[Function]:
        """Resolve a call site to project-defined functions ([] if external
        or unresolvable)."""
        name = call.name
        if call.chain:
            recv = ".".join(call.chain)
            t = self.type_of_expr(recv, fn, sf)
            if t is not None:
                k = self.class_of_type(t, self._klass_of(fn), sf)
                if k is not None:
                    qn = k.qname + "::" + name
                    if qn in self.functions:
                        return self.functions[qn]
                    # declared in that class but defined elsewhere/nowhere
                    if name in k.methods:
                        return []
            return self._unique_base(name)
        if call.quals:
            q = call.quals.rstrip(":")
            for prefix in (q, "smpst::" + q):
                qn = prefix + "::" + name
                if qn in self.functions:
                    return self.functions[qn]
            if q in ("std", "std::chrono", "chrono"):
                return []
            return self._unique_base(name)
        # Unqualified: same class first, then same/enclosing namespace.
        if fn.klass:
            qn = fn.klass + "::" + name
            if qn in self.functions:
                return self.functions[qn]
        ns = fn.qname.rpartition("::")[0]
        while ns:
            qn = ns + "::" + name
            if qn in self.functions:
                return self.functions[qn]
            ns = ns.rpartition("::")[0]
        if name in self.functions:
            return self.functions[name]
        return self._unique_base(name)

    def _unique_base(self, name: str) -> list[Function]:
        if name in _CALL_NAME_SKIP:
            return []
        cands = self.func_by_base.get(name, [])
        # Unique-definition fallback: only when unambiguous project-wide.
        qnames = {f.qname for f in cands}
        if len(qnames) == 1:
            return cands
        return []

    # -- lock identity ------------------------------------------------------

    def lock_identity(self, mutex_expr: str, fn: Function,
                      sf: SourceFile) -> str | None:
        """Canonical name for a mutex expression: `Class::member` for member
        mutexes, `fn-qname::name` for locals, None if unresolvable."""
        expr = mutex_expr.replace(" ", "")
        expr = re.sub(r"^[&*]+", "", expr)
        comps = [c for c in re.split(r"\.|->", expr) if c]
        if not comps:
            return None
        last = comps[0].split("[")[0] if len(comps) == 1 else \
            comps[-1].split("[")[0]
        if len(comps) == 1:
            name = last
            if name == "this":
                return None
            k = self._klass_of(fn)
            if k is not None and name in k.members:
                return k.qname + "::" + name
            if name in fn.aliases:
                return self.lock_identity(fn.aliases[name], fn, sf)
            if name in fn.params:
                # Pass-through reference (e.g. CondVar::wait(Mutex&)): the
                # actual mutex depends on the caller — unresolvable here.
                return None
            if name in fn.locals:
                return fn.qname + "::" + name
            return None
        # Member of some other object: resolve the owner chain's class.
        owner = ".".join(comps[:-1])
        t = self.type_of_expr(owner, fn, sf)
        if t is None:
            return None
        k = self.class_of_type(t, self._klass_of(fn), sf)
        if k is None:
            return None
        if last in k.members:
            return k.qname + "::" + last
        return None
