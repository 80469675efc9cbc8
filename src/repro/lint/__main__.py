"""CLI: ``python -m repro.lint src/ tests/ benchmarks/ examples/``.

Exit codes: 0 = clean (or warn-severity findings only),
1 = error-severity findings, 2 = usage error, internal lint crash, or
unreadable/unparseable input (E9) — CI treats 1 as "fix your change"
and 2 as "fix the linter".
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .engine import LintRunner
from .rules import ALL_RULES


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description="Invariant-enforcing static analysis for the mesher "
        "(see repro/lint/rules.py for the rule statements).",
    )
    p.add_argument("paths", nargs="*", default=["src"],
                   help="files or directories to lint (default: src)")
    p.add_argument("--list-rules", action="store_true",
                   help="print the rule set and exit")
    return p


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)

    if args.list_rules:
        for r in ALL_RULES:
            print(f"{r.id}  {r.title}")
            print(f"     invariant: {r.invariant}")
        return 0

    if not args.paths:
        print("no paths given", file=sys.stderr)
        return 2

    findings, n_files = LintRunner(ALL_RULES).run(args.paths)
    for f in findings:
        print(f.format_text())
    print(f"{len(findings)} finding(s) in {n_files} file(s)" if findings
          else f"clean: 0 findings in {n_files} file(s)")

    if any(f.rule == "E9" for f in findings):
        return 2
    return 1 if any(f.severity == "error" for f in findings) else 0


if __name__ == "__main__":
    sys.exit(main())
