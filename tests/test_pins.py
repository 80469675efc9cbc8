"""Pins cannot scatter again: ``tests/pins.json`` is the only place a
pinned value is written, every value in it is read, and one
``mesh_hash`` serves every test.

Static, in the style of ``test_import_graph.py``: the checks walk the
text and the AST of ``tests/``, ``.github/`` and ``.claude/``.
"""

import ast
import json
import re
from pathlib import Path

from . import pins

REPO = Path(__file__).resolve().parents[1]
TESTS = REPO / "tests"

#: A run of 12+ hex digits with a letter in it, not the fractional part
#: of a float: a hash or digest written by hand.  (Decimal literals are
#: numbers, not pins; a pin must be a hash to be caught here.)
HEX_RUN = re.compile(r"(?<![\w.])(?=[0-9]*[a-f])[0-9a-f]{12,}(?!\w)")


def test_no_hex_pin_outside_pins_json():
    found = []
    for top in ("tests", ".github", ".claude"):
        for path in sorted((REPO / top).rglob("*")):
            if (not path.is_file() or path == pins.PINS_JSON
                    or "__pycache__" in path.parts):
                continue
            text = path.read_text(encoding="utf-8", errors="replace")
            for number, line in enumerate(text.splitlines(), 1):
                found += [f"{path.relative_to(REPO)}:{number}: {hit}"
                          for hit in HEX_RUN.findall(line)]
    assert not found, "\n".join(found)


def pin_reads():
    """``{keys: [site, ...]}`` of every ``pin(...)`` call under
    ``tests/`` but ``pins.py`` and this file; a call with a key that is
    not a string literal is keyed ``None``."""
    reads = {}
    for path in sorted(TESTS.rglob("*.py")):
        if path.name in ("pins.py", "test_pins.py") and path.parent == TESTS:
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not (isinstance(node, ast.Call)
                    and getattr(node.func, "id",
                                getattr(node.func, "attr", None)) == "pin"):
                continue
            keys = tuple(arg.value if isinstance(arg, ast.Constant)
                         and isinstance(arg.value, str) else None
                         for arg in node.args)
            site = f"{path.relative_to(REPO)}:{node.lineno}"
            reads.setdefault(None if None in keys else keys, []).append(site)
    return reads


def test_every_pin_is_read():
    """Each leaf of ``pins.json`` is under some literal ``pin(...)``
    read, so a stale entry fails; each read names an existing entry."""
    reads = pin_reads()
    assert None not in reads, f"non-literal pin keys: {reads.get(None)}"
    leaves = list(pins.leaves(pins.pin()))
    unread = [".".join(leaf) for leaf in leaves
              if not any(leaf[:len(keys)] == keys for keys in reads)]
    assert not unread, "pinned but read by no test:\n" + "\n".join(unread)
    missing = [f"{sites[0]}: {keys}" for keys, sites in reads.items()
               if not any(leaf[:len(keys)] == keys for leaf in leaves)]
    assert not missing, "read but not pinned:\n" + "\n".join(missing)


def test_one_mesh_hash():
    defs = [f"{path.relative_to(REPO)}:{node.lineno}"
            for path in sorted(TESTS.rglob("*.py"))
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node.name == "mesh_hash"]
    assert [site.split(":")[0] for site in defs] == ["tests/pins.py"], defs


def test_pins_json_is_in_the_form_the_re_pin_writes():
    text = pins.PINS_JSON.read_text(encoding="utf-8")
    assert json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n" \
        == text


def test_re_pin_table_names_what_moved():
    old, new = pins.pin(), pins.pin()
    new["generate_mesh"]["quickstart"]["mesh"]["inviscid_over_sqrt2"] += 1
    new["survivors"]["629"] = "0" * 64
    same, moved = pins.table(old, old), pins.table(old, new)
    assert same.endswith("leaves moved: 0")
    assert moved.splitlines()[-3:] == [
        "leaves moved: 2",
        "generate_mesh.quickstart.mesh.inviscid_over_sqrt2",
        "survivors.629"]
    row = next(line for line in moved.splitlines()
               if line.startswith("| generate_mesh quickstart |"))
    over = old["generate_mesh"]["quickstart"]["mesh"]["inviscid_over_sqrt2"]
    assert f"{over} of" in row and f"→ {over + 1} of" in row
    assert "| survivors 629 | " in moved
