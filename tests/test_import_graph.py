"""What the mesher's import path loads, and what it must not.

``repro.solver``, ``repro.runtime`` and ``repro.lint`` re-export their
submodules' names lazily (``repro._lazy``), so a process that meshes
does not pay for ``scipy.sparse``, ``asyncio`` + the service daemon or
the lint rule engine.  The check runs in a fresh interpreter: this one
has long since imported everything.
"""

import importlib
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

MESHER = """
import sys
import repro, repro.core.pipeline, repro.solver.adapt
from repro import BoundaryLayerConfig, MeshConfig, PSLG, generate_mesh, naca0012
from repro.solver.adapt import ShearLayerProblem, adapt_loop

pslg = PSLG.from_loops([naca0012(n_points=101)], names=["naca0012"])
config = MeshConfig(bl=BoundaryLayerConfig(first_spacing=1e-3,
                                           growth_ratio=1.3, max_layers=40),
                    farfield_chords=40.0, target_subdomains=16)
result = generate_mesh(pslg, config, backend="serial")
assert result.mesh.n_triangles > 0
for name in {unwanted!r}:
    if name in sys.modules:
        print(name)
"""

UNWANTED = ["scipy", "asyncio", "repro.lint.engine", "repro.lint.rules",
            "repro.runtime.service", "repro.runtime.client",
            "repro.runtime.comm", "repro.runtime.simulator",
            "repro.solver.fem", "repro.solver.convergence"]


def test_serial_mesher_loads_no_solver_daemon_or_lint_engine():
    done = subprocess.run(
        [sys.executable, "-c", MESHER.format(unwanted=UNWANTED)],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == []


PACKAGES = {
    "repro.solver": ("solve_potential_flow", "flow", 23),
    "repro.runtime": ("ServiceClient", "client", 33),
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
