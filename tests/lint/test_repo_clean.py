"""The repository's own tree must lint clean — the CI gate, as a test.

If this fails, either new code violated an invariant (fix the code) or a
rule grew a false positive (fix the rule, or pragma the line with a
one-line justification).  R1–R5 and R7–R12 all run here, so every
dataflow rule is exercised against the full production tree on every test run.
"""

from pathlib import Path

import json

from repro.lint import ALL_RULES, LintRunner, load_baseline, rule_ids
from repro.lint.__main__ import main as lint_main

REPO = Path(__file__).resolve().parents[2]


def lint(*trees):
    """Every rule over the named top-level directories of the repo."""
    return LintRunner(ALL_RULES).run([str(REPO / tree) for tree in trees])


def test_rule_catalog_is_r1_through_r12():
    # There is no R6: ids are never reused.
    assert set(rule_ids()) == {f"R{i}" for i in range(1, 13)} - {"R6"}


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


def test_baseline_file_is_valid_and_current():
    """The committed baseline parses, and no entry is vacuous.

    Every baselined key must correspond to a finding the current tree
    still produces — otherwise the debt was paid and the entry must go.
    """
    path = REPO / "lint-baseline.json"
    baseline = load_baseline(path)
    findings, _ = lint("src", "tests", "benchmarks", "examples")
    # Compare on repo-relative paths, as CI records them.
    live = {(f.rule, str(Path(f.path).relative_to(REPO))
             if Path(f.path).is_absolute() else f.path,
             f.line, f.message)
            for f in findings}
    stale = baseline - live
    assert not stale, f"baseline entries no longer needed: {stale}"


def test_cli_json_output(capsys):
    rc = lint_main([str(REPO / "src" / "repro" / "lint"), "--format=json"])
    payload = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert payload["n_findings"] == 0
    assert payload["files_scanned"] >= 4
    assert {r["id"] for r in payload["rules"]} >= set(rule_ids())


def test_cli_sarif_output(capsys):
    rc = lint_main([str(REPO / "src" / "repro" / "lint"),
                    "--format=sarif"])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert doc["version"] == "2.1.0"
    assert doc["runs"][0]["results"] == []


def test_cli_exit_codes(tmp_path, capsys):
    bad = tmp_path / "repro" / "delaunay" / "bad.py"
    bad.parent.mkdir(parents=True)
    bad.write_text("import random\n")
    assert lint_main([str(bad)]) == 1
    assert lint_main([str(bad), "--select", "R5"]) == 0  # other rule only
    assert lint_main([str(bad), "--select", "NOPE"]) == 2
    broken = tmp_path / "broken.py"
    broken.write_text("def broken(:\n")
    assert lint_main([str(broken)]) == 2  # unparseable = internal, not "1"
    capsys.readouterr()  # drain
