"""What the mesher's import path loads, and what it must not.

``repro.solver``, ``repro.runtime`` and ``repro.lint`` re-export their
submodules' names lazily (``repro._lazy``), so a process that meshes
does not pay for ``scipy.sparse``, ``asyncio`` + the service daemon or
any of ``repro.lint``.  Those checks run in a fresh interpreter: this
one has long since imported everything.  The static half walks the
``import`` statements under ``src/repro``: every module of ``runtime/``
and ``core/`` is on a path from an entry point, or is listed with the
reason it is not.
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


PACKAGES = {
    "repro.solver": ("solve_potential_flow", "flow", 23),
    "repro.runtime": ("ServiceClient", "client", 23),
    "repro.lint": ("rule_ids", "rules", 10),
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
