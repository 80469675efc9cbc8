"""CLI: ``python -m repro.lint src/ tests/ [--format=sarif]``.

Exit codes: 0 = clean (or warn-severity findings only),
1 = error-severity findings, 2 = usage error, internal lint crash, or
unreadable/unparseable input (E9) — CI treats 1 as "fix your change"
and 2 as "fix the linter".
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .engine import LintRunner, format_json
from .rules import ALL_RULES, rule_ids


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description="Invariant-enforcing static analysis for the mesher "
        "(see repro/lint/rules.py for the rule statements).",
    )
    p.add_argument("paths", nargs="*", default=["src"],
                   help="files or directories to lint (default: src)")
    p.add_argument("--format", choices=["text", "json", "sarif"],
                   default="text")
    p.add_argument("--select", metavar="RULES",
                   help="comma-separated rule ids to run (default: all)")
    p.add_argument("--list-rules", action="store_true",
                   help="print the rule set and exit")
    return p


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)

    rules = list(ALL_RULES)
    if args.select:
        wanted = {r.strip().upper() for r in args.select.split(",")}
        unknown = wanted - {r.id for r in ALL_RULES}
        if unknown:
            print(f"unknown rule id(s): {', '.join(sorted(unknown))}",
                  file=sys.stderr)
            return 2
        rules = [r for r in ALL_RULES if r.id in wanted]

    if args.list_rules:
        for r in rules:
            print(f"{r.id}  {r.title}")
            print(f"     invariant: {r.invariant}")
        return 0

    if not args.paths:
        print("no paths given", file=sys.stderr)
        return 2

    # The pragma catalog stays the full rule set even under --select, so
    # excuses for unselected rules aren't misread as unknown ids.
    runner = LintRunner(rules, catalog=rule_ids())
    findings, n_files = runner.run(args.paths)

    if args.format == "json":
        print(format_json(findings, n_files, rules))
    elif args.format == "sarif":
        from .sarif import format_sarif
        print(format_sarif(findings, rules))
    else:
        for f in findings:
            print(f.format_text())
        print(f"{len(findings)} finding(s) in {n_files} file(s)" if findings
              else f"clean: 0 findings in {n_files} file(s)")

    if any(f.rule == "E9" for f in findings):
        return 2
    return 1 if any(f.severity == "error" for f in findings) else 0


if __name__ == "__main__":
    sys.exit(main())
