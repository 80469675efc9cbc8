"""``src/repro`` reads no environment variable, and no mesh depends on
the environment: a packed request determines its bytes."""

import ast
import re
from pathlib import Path

import numpy as np

from repro.core.pipeline import mesh_workitem, pack_mesh_request
from repro.delaunay.kernel import triangulate
from repro.runtime import serde

from tests.domains import cove_domain

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
#: ``REPRO_*`` names ``src/repro`` mentions.
KNOBS = set()
#: modules of ``src/repro`` that read the environment.
READERS = set()
MUTATORS = {"setdefault", "update", "pop", "popitem", "clear"}


def test_env_knobs_are_exactly_the_documented_set():
    found = set()
    for path in SRC.rglob("*.py"):
        found |= set(re.findall(r"REPRO_[A-Z_]+", path.read_text()))
    assert found == KNOBS == set()
    readme = (ROOT / "README.md").read_text()
    section = readme[readme.index("## Configuration"):]
    section = section[:section.index("\n#", 1)]
    assert "reads no environment variable" in section


def _is_environ(node):
    return ((isinstance(node, ast.Attribute) and node.attr == "environ")
            or (isinstance(node, ast.Name) and node.id == "environ"))


def test_src_never_reads_or_writes_the_environment():
    writes, readers = [], set()
    for path in SRC.rglob("*.py"):
        rel = path.relative_to(SRC).as_posix()
        for node in ast.walk(ast.parse(path.read_text())):
            where = f"{rel}:{getattr(node, 'lineno', 0)}"
            if _is_environ(node):
                readers.add(rel)
            if (isinstance(node, ast.Subscript) and _is_environ(node.value)
                    and not isinstance(node.ctx, ast.Load)):
                writes.append(where)
            if isinstance(node, ast.Attribute):
                if node.attr in ("putenv", "unsetenv"):
                    writes.append(where)
                if node.attr in MUTATORS and _is_environ(node.value):
                    writes.append(where)
                if node.attr == "getenv":
                    readers.add(rel)
    assert writes == []
    assert readers == READERS == set()


def test_ambient_insert_variable_cannot_change_a_request(monkeypatch):
    """The removed ``REPRO_INSERT`` (or anything else in the
    environment) is not an input of the mesher."""
    pslg, config = cove_domain()
    request = pack_mesh_request(pslg, config)
    pts = np.random.default_rng(13).uniform(0, 1, size=(400, 2))

    monkeypatch.delenv("REPRO_INSERT", raising=False)
    unset = serde.buffers_to_bytes(mesh_workitem(request))
    clean = triangulate(pts)._arr
    monkeypatch.setenv("REPRO_INSERT", "batch")
    assert serde.buffers_to_bytes(mesh_workitem(request)) == unset

    ambient = triangulate(pts)._arr
    assert (ambient.n_pts, ambient.n_tris) == (clean.n_pts, clean.n_tris)
    for name in ("pts", "tri_v", "tri_n"):
        assert np.array_equal(getattr(ambient, name)(),
                              getattr(clean, name)())
