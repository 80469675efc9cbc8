"""Output that must not depend on the interpreter it was made in.

Two fresh interpreters that differ in ``PYTHONHASHSEED`` (the iteration
order of every set of strings) and in the seed of the global
``random`` / ``np.random`` generators must print the same bytes: a mesh,
a triangulation whose insertion order is drawn at random, a simulated
run with work stealing, and the error text of a malformed mesh request,
which lists its missing keys sorted.  An RNG drawn from global state, or
an order taken from iterating a set of strings, shows here as two
different outputs.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = """
import random, sys
import numpy as np

random.seed({seed})
np.random.seed({seed})

from repro import BoundaryLayerConfig, MeshConfig, PSLG, generate_mesh, naca0012
from repro.core.pipeline import pack_mesh_request, request_cost
from repro.delaunay import dnc
from repro.runtime import serde
from repro.runtime.simulator import SimTask, simulate

pslg = PSLG.from_loops([naca0012(41)])
config = MeshConfig(bl=BoundaryLayerConfig(first_spacing=1e-3,
                                           growth_ratio=1.3, max_layers=10),
                    farfield_chords=8.0, grading=0.35, h_max_chords=1.2,
                    nearbody_margin_chords=0.25, target_subdomains=8)
mesh = generate_mesh(pslg, config, backend="serial").mesh
print(serde.canonical_hash(serde.pack_mesh(mesh)))

grid = np.array([(x, y) for x in range(4) for y in range(4)], dtype=float)
grid_mesh = dnc.triangulate_ordered(grid, "random")
print(sorted(tuple(sorted(t)) for t in grid_mesh.triangles.tolist()))

costs = np.random.default_rng(0).lognormal(0.0, 1.0, size=400)
run = simulate([SimTask(float(c)) for c in costs], 8)
print(repr(run.makespan), run.busy.tolist(), run.n_steal_successes)

request = pack_mesh_request(pslg, config)
for key in ("pslg.points", "pslg.loop_indices", "config.params"):
    del request[key]
try:
    request_cost(request)
except serde.SerdeError as err:
    print(err)
"""


def run(seed):
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=str(seed))
    done = subprocess.run([sys.executable, "-c", SCRIPT.format(seed=seed)],
                          env=env, capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_hash_seed_and_global_rng_change_no_output():
    first, second = run(1), run(2)
    assert first == second
    assert first.splitlines()[-1] == (
        "not a packed mesh request: missing ['config.params', "
        "'pslg.loop_indices', 'pslg.points'], unexpected []")
