#!/usr/bin/env python3
"""Fixture tests for tools/analyze/smpst_analyze.py.

Runs the analyzer over each file in tests/analyze_fixtures/ with
--scope fixture (so every check applies regardless of the fixture's path)
and asserts the exact multiset of rule IDs fired per fixture.  Each bad
fixture proves its SA check fires on a violated invariant; each good twin
proves the sanctioned idiom stays silent (wrappers, explicit orders,
rank-increasing nesting, allow-annotations, offloaded lambdas).

The real tree must then analyze clean — a finding in src/ is a regression.

Exit status 0 on success, 1 with a diff on any mismatch.
"""

from __future__ import annotations

import collections
import pathlib
import re
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
ANALYZER = ROOT / "tools" / "analyze" / "smpst_analyze.py"
FIXTURES = ROOT / "tests" / "analyze_fixtures"

# fixture file -> expected multiset of rule IDs.
EXPECTED: dict[str, collections.Counter] = {
    "sa1_bad_plain_access.cpp": collections.Counter({"SA1": 4}),
    "sa1_bad_logical_and.cpp": collections.Counter({"SA1": 2}),
    "sa1_bad_subscript_call_block.cpp": collections.Counter({"SA1": 2}),
    "sa1_good_wrapped.cpp": collections.Counter(),
    "sa2_bad_hidden_atomic.cpp": collections.Counter({"SA2": 5}),
    "sa2_good_explicit.cpp": collections.Counter(),
    "sa3_bad_inversion.cpp": collections.Counter({"SA3": 3}),
    "sa3_bad_nested_class.cpp": collections.Counter({"SA3": 2}),
    "sa3_good_order.cpp": collections.Counter(),
    "sa4_bad_blocking.cpp": collections.Counter({"SA4": 6}),
    "sa4_good_offload.cpp": collections.Counter(),
}

FINDING_RE = re.compile(r"^(?P<path>.+):(?P<line>\d+): \[(?P<rule>SA\d+)\]")


def run_analyzer(args: list[str]) -> tuple[collections.Counter, int, str]:
    proc = subprocess.run(
        [sys.executable, str(ANALYZER), "--root", str(ROOT)] + args,
        capture_output=True, text=True, check=False)
    got: collections.Counter = collections.Counter()
    for line in proc.stdout.splitlines():
        m = FINDING_RE.match(line)
        if m:
            got[m.group("rule")] += 1
    return got, proc.returncode, proc.stdout + proc.stderr


def main() -> int:
    failures = []
    listed = {f.name for f in FIXTURES.iterdir()
              if f.suffix in (".cpp", ".hpp")}
    missing = listed - EXPECTED.keys()
    if missing:
        failures.append(f"fixtures without expectations: {sorted(missing)}")
    for name, want in sorted(EXPECTED.items()):
        fixture = FIXTURES / name
        if not fixture.exists():
            failures.append(f"{name}: fixture file missing")
            continue
        got, rc, output = run_analyzer(["--scope", "fixture", str(fixture)])
        if got != want:
            failures.append(
                f"{name}: expected {dict(want) or 'clean'}, "
                f"got {dict(got) or 'clean'}\n{output}")
            continue
        if want and rc == 0:
            failures.append(f"{name}: findings reported but exit status 0")
        elif not want and rc != 0:
            failures.append(f"{name}: clean but exit status {rc}\n{output}")
        else:
            label = (f"{sum(want.values())} finding(s)" if want else "clean")
            print(f"  ok   {name}: {label}")

    # The real tree must be clean — a finding in src/ is a regression.
    got, rc, output = run_analyzer([])
    if rc != 0:
        failures.append(f"src/ tree is not analyze-clean:\n{output}")
    else:
        print("  ok   src/ tree clean")

    if failures:
        print("\ntest_smpst_analyze FAILURES:", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print(f"test_smpst_analyze: all {len(EXPECTED)} fixtures + tree scan "
          f"passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
