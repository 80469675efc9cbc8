"""The repository's own tree must lint clean — the CI gate, as a test.

If this fails, either new code violated an invariant (fix the code) or a
rule grew a false positive (fix the rule, or pragma the line with a
one-line justification).  Every rule runs here, so each is exercised
against the full production tree on every test run.
"""

from pathlib import Path

from repro.lint import ALL_RULES, LintRunner
from repro.lint.__main__ import main as lint_main

REPO = Path(__file__).resolve().parents[2]


def lint(*trees):
    """Every rule over the named top-level directories of the repo."""
    return LintRunner(ALL_RULES).run([str(REPO / tree) for tree in trees])


def test_rule_catalog_is_r1_through_r12():
    # The rules that flag a recorded defect tier-1 misses
    # (test_mutants.py); ids are never reused, so the deleted R6, R7, R9,
    # R11 and R12 leave gaps.
    assert [r.id for r in ALL_RULES] == ["R1", "R2", "R3", "R4", "R5", "R8",
                                         "R10"]


def test_src_lints_clean():
    findings, n_files = lint("src")
    assert n_files > 50  # the scan actually covered the tree
    assert findings == [], "\n" + "\n".join(f.format_text() for f in findings)


def test_tests_lint_clean():
    findings, _ = lint("tests")
    assert findings == [], "\n" + "\n".join(f.format_text() for f in findings)


def test_examples_and_benchmarks_lint_clean():
    findings, n_files = lint("examples", "benchmarks")
    assert n_files > 5
    errors = [f for f in findings if f.severity == "error"]
    assert errors == [], "\n" + "\n".join(f.format_text() for f in errors)


def test_cli_exit_codes(tmp_path, capsys):
    bad = tmp_path / "repro" / "delaunay" / "bad.py"
    bad.parent.mkdir(parents=True)
    bad.write_text("import random\n")
    assert lint_main([str(bad)]) == 1
    broken = tmp_path / "broken.py"
    broken.write_text("def broken(:\n")
    assert lint_main([str(broken)]) == 2  # unparseable = internal, not "1"
    capsys.readouterr()  # drain
