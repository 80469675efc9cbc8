"""What the mesher's import path loads, and what it must not.

``repro.solver``, ``repro.runtime`` and ``repro.lint`` re-export their
submodules' names lazily (``repro._lazy``), so a process that meshes
does not pay for ``scipy.sparse``, ``asyncio`` + the service daemon or
any of ``repro.lint``.  Those checks run in a fresh interpreter: this
one has long since imported everything.  The static half walks the
``import`` statements under ``src/repro``: every module of ``runtime/``
and ``core/`` is on a path from an entry point, or is listed with the
reason it is not.  It also walks the names ``src/repro``,
``benchmarks/`` and ``examples/`` mention: every function, class and
method of ``src/repro`` has a caller outside ``tests/``, or is listed
with the reason it has none.
"""

import ast
import importlib
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


def fresh_python(code):
    return subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, timeout=120)


MESHER = """
import sys
import repro, repro.core.pipeline, repro.solver.adapt
from repro import BoundaryLayerConfig, MeshConfig, PSLG, generate_mesh, naca0012
from repro.solver.adapt import ShearLayerProblem, adapt_loop

pslg = PSLG.from_loops([naca0012(n_points=101)], names=["naca0012"])
config = MeshConfig(bl=BoundaryLayerConfig(first_spacing=1e-3,
                                           growth_ratio=1.3, max_layers=40),
                    farfield_chords=40.0, target_subdomains=16)
result = generate_mesh(pslg, config, backend={backend!r}, n_ranks={n_ranks})
assert result.mesh.n_triangles > 0
for name in sorted(sys.modules):
    if name.startswith({unwanted!r}):
        print(name)
"""

UNWANTED = ("scipy", "asyncio", "repro.lint",
            "repro.runtime.service", "repro.runtime.client",
            "repro.runtime.simulator",
            "repro.solver.fem", "repro.solver.convergence")


def unwanted_after_meshing(backend, n_ranks):
    done = fresh_python(MESHER.format(backend=backend, n_ranks=n_ranks,
                                      unwanted=UNWANTED))
    assert done.returncode == 0, done.stderr
    return done.stdout.split()


def test_serial_mesher_loads_no_solver_daemon_or_lint_engine():
    assert unwanted_after_meshing("serial", 1) == []


def test_processes_mesher_loads_no_lint_module():
    """``runtime/executor.py`` imports nothing from ``repro.lint``: a
    parent that meshes through the pool has not even the package."""
    assert unwanted_after_meshing("processes", 2) == []


@pytest.mark.parametrize(
    "module", ["rules_async", "rules_counters", "rules_epoch",
               "rules_lifetime", "rules_serde"])
def test_rule_module_imports_first_in_a_fresh_interpreter(module):
    """The ``rules_*`` modules build on ``engine`` alone, so importing
    one before ``repro.lint.rules`` is not a cycle."""
    done = fresh_python(
        f"import sys, repro.lint.{module}\n"
        "assert 'repro.lint.rules' not in sys.modules\n"
        "from repro.lint.rules import ALL_RULES\n"
        "assert len(ALL_RULES) == 11\n")
    assert done.returncode == 0, done.stderr


# ----------------------------------------------------------------------
# Static reachability: no module of runtime/ or core/ is an orphan
# ----------------------------------------------------------------------
ENTRY_POINTS = ("repro.cli", "repro.core.pipeline", "repro.runtime.service",
                "repro.solver.adapt")

#: modules nothing reachable imports, each with the reason it is still
#: in the tree.  Shrink it; an entry that became reachable (or whose
#: file is gone) fails the test.
UNREACHED_FOR_A_REASON = {
    "repro.core.decompose":
        "§II.D BL decomposition: called by the frozen ledger's probe "
        "(benchmarks/ledger/traced.py), benches and examples; ROADMAP "
        "sentences it pending the [benchmark] PR",
    "repro.core.projection":
        "imported by core.decompose only; same verdict",
    "repro.core.subdomain":
        "imported by core.decompose / core.projection only; same verdict",
}


def module_file(name):
    base = SRC.joinpath(*name.split("."))
    for path in (base.with_suffix(".py"), base / "__init__.py"):
        if path.is_file():
            return path
    return None


def imported_modules(name):
    """``repro`` modules the ``import`` statements of ``name`` load —
    anywhere in the file, function-level imports included — plus the
    submodules a package's lazy ``_EXPORTS`` table names."""
    path = module_file(name)
    tree = ast.parse(path.read_text())
    package = name if path.name == "__init__.py" else name.rpartition(".")[0]
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module
            if node.level:
                parents = package.split(".")
                parents = parents[:len(parents) - node.level + 1]
                base = ".".join(parents + ([base] if base else []))
            found.add(base)
            found.update(f"{base}.{alias.name}" for alias in node.names)
        elif (isinstance(node, ast.Assign) and path.name == "__init__.py"
              and any(isinstance(t, ast.Name) and t.id == "_EXPORTS"
                      for t in node.targets)):
            found.update(f"{name}.{sub}"
                         for sub in ast.literal_eval(node.value).values())
    return {m for m in found
            if m.startswith("repro") and module_file(m) is not None}


def test_every_runtime_and_core_module_is_reachable_from_an_entry_point():
    reached, stack = set(), list(ENTRY_POINTS)
    while stack:
        name = stack.pop()
        if name in reached:
            continue
        reached.add(name)
        # Importing a.b.c runs a/__init__ and a/b/__init__ first.
        stack.append(name.rpartition(".")[0] or name)
        stack.extend(imported_modules(name))
    modules = set()
    for sub in ("runtime", "core"):
        for path in (SRC / "repro" / sub).glob("*.py"):
            modules.add(f"repro.{sub}" if path.stem == "__init__"
                        else f"repro.{sub}.{path.stem}")
    assert modules - reached == set(UNREACHED_FOR_A_REASON)
    assert all(UNREACHED_FOR_A_REASON.values())


# ----------------------------------------------------------------------
# Static callers: no definition of src/repro is called by tests/ alone
# ----------------------------------------------------------------------
REPO = SRC.parent

#: definitions nothing outside ``tests/`` calls, each with the reason it
#: is still in the tree.  At most three; an entry that gained a caller
#: (or whose definition is gone) fails the test.
TEST_ONLY_FOR_A_REASON = {
    "repro.delaunay.kernel.Triangulation.check_integrity":
        "the kernel oracle behind 30+ tests; ROADMAP's 'one oracle' item "
        "decides its future",
    "repro.delaunay.mesh.TriMesh.canonical":
        "batch-insertion parity only; it goes with batch insertion",
    "repro.runtime.service.ServiceThread":
        "the harness the tests use to run the daemon on a thread",
}


def definitions(path):
    """``(qualified name, name, (path, first, last line))`` of every
    ``def`` and ``class`` in ``path``: methods included, dunder methods
    and functions nested in functions not."""
    parts = path.relative_to(SRC).with_suffix("").parts
    module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
    found = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                name = child.name
                if not (name.startswith("__") and name.endswith("__")):
                    found.append((f"{module}.{prefix}{name}", name,
                                  (path, child.lineno, child.end_lineno)))
                if isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}{name}.")
            else:
                visit(child, prefix)

    visit(ast.parse(path.read_text()), "")
    return found


def name_uses(path):
    """``(name, line)`` of every name ``path`` mentions: a bare name, an
    attribute, an imported name, or a constant string handed to
    ``getattr``/``hasattr``.  A package ``__init__``'s ``from``-imports
    are re-exports, not uses (``__all__`` and ``_EXPORTS`` entries are
    plain strings, so they never count)."""
    reexports = path.name == "__init__.py"
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.Import) or (
                isinstance(node, ast.ImportFrom) and not reexports):
            for alias in node.names:
                yield alias.name.rpartition(".")[2], node.lineno
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in ("getattr", "hasattr")
              and len(node.args) >= 2
              and isinstance(node.args[1], ast.Constant)):
            yield node.args[1].value, node.lineno


def uncalled_definitions():
    """Qualified names of the definitions whose name appears neither in
    ``benchmarks/`` or ``examples/`` nor in ``src/repro`` outside their
    own body.  A use inside another uncalled definition calls nothing,
    to a fixed point, so a chain of test-only helpers is named whole;
    the entries of ``TEST_ONLY_FOR_A_REASON`` do count as callers."""
    defs, uses = [], {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        defs += definitions(path)
        for name, line in name_uses(path):
            uses.setdefault(name, []).append((path, line))
    outside = {name for top in ("benchmarks", "examples")
               for path in (REPO / top).rglob("*.py")
               for name, _ in name_uses(path)}

    def within(site, span):
        return site[0] == span[0] and span[1] <= site[1] <= span[2]

    uncalled = {}
    while True:
        dead = [span for qual, span in uncalled.items()
                if qual not in TEST_ONLY_FOR_A_REASON]
        found = {
            qual: span for qual, name, span in defs
            if name not in outside and not any(
                not within(site, span)
                and not any(within(site, d) for d in dead)
                for site in uses.get(name, ()))}
        if found.keys() == uncalled.keys():
            return set(found)
        uncalled = found


def test_every_definition_has_a_caller_outside_tests():
    uncalled = uncalled_definitions()
    extra = sorted(uncalled - set(TEST_ONLY_FOR_A_REASON))
    assert not extra, "called by tests/ alone:\n" + "\n".join(extra)
    stale = sorted(set(TEST_ONLY_FOR_A_REASON) - uncalled)
    assert not stale, "called, or gone:\n" + "\n".join(stale)
    assert len(TEST_ONLY_FOR_A_REASON) <= 3
    assert all(TEST_ONLY_FOR_A_REASON.values())


PACKAGES = {
    "repro.solver": ("solve_potential_flow", "flow", 21),
    "repro.runtime": ("ServiceClient", "client", 23),
    "repro.lint": ("rule_ids", "rules", 9),
}


@pytest.mark.parametrize("package", sorted(PACKAGES))
def test_lazy_package_keeps_its_public_surface(package):
    name, submodule, n_public = PACKAGES[package]
    pkg = importlib.import_module(package)
    assert len(pkg.__all__) == n_public == len(set(pkg.__all__))
    assert set(pkg.__all__) <= set(dir(pkg))
    assert submodule in dir(pkg)
    # ``from package import name`` and ``import *`` resolve every name,
    # to the object its submodule defines.
    namespace = {}
    exec(f"from {package} import *", namespace)
    assert set(pkg.__all__) <= set(namespace)
    defining = importlib.import_module(f"{package}.{submodule}")
    assert getattr(pkg, name) is getattr(defining, name)
    assert isinstance(getattr(pkg, submodule), types.ModuleType)
    with pytest.raises(AttributeError, match="no attribute 'nonesuch'"):
        pkg.nonesuch
