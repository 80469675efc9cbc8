"""The environment-variable surface is a reviewed, documented set."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
KNOBS = {"REPRO_BACKEND", "REPRO_INSERT", "REPRO_SANITIZE"}


def test_env_knobs_are_exactly_the_documented_three():
    found = set()
    for path in (ROOT / "src" / "repro").rglob("*.py"):
        found |= set(re.findall(r"REPRO_[A-Z_]+", path.read_text()))
    assert found == KNOBS
    readme = (ROOT / "README.md").read_text()
    section = readme[readme.index("## Configuration"):]
    section = section[:section.index("\n#", 1)]
    assert all(knob in section for knob in KNOBS)
