"""Every lint rule is kept because it flags a recorded defect that tier-1
misses.

``mutants/<rule>.txt`` is the source of one function of the mesher with
a defect put in.  Its first line names the module and the function; the
comment lines after it name the defect and the input that shows it.
Tier-1 passes with each of these changes in the tree, so the rule is the
only check that catches it.  The fixture is written to its module's real
path under ``tmp_path`` (rule scoping reads the path, and under
``tests/`` the severity map would switch some rules off) and must draw
its own rule's finding and no other rule's.
"""

from pathlib import Path

import pytest

from repro.lint import ALL_RULES, LintRunner

MUTANTS = Path(__file__).with_name("mutants")
RULE_IDS = [r.id for r in ALL_RULES]


def test_every_rule_has_one_mutant():
    assert sorted(p.stem for p in MUTANTS.glob("*.txt")) == sorted(RULE_IDS)


@pytest.mark.parametrize("rule", RULE_IDS)
def test_mutant_draws_only_its_rule(tmp_path, rule):
    source = (MUTANTS / f"{rule}.txt").read_text()
    module = source.splitlines()[0].removeprefix("# ").split(":")[0]
    path = tmp_path / module
    path.parent.mkdir(parents=True)
    path.write_text(source)
    findings, n_files = LintRunner(ALL_RULES).run([str(path)])
    assert n_files == 1
    assert findings, f"{rule} does not flag its mutant"
    assert {f.rule for f in findings} == {rule}, "\n".join(
        f.format_text() for f in findings)
