"""Mixed-operation fuzzing of the triangulation kernel.

Interleaves point insertions, segment insertions, and legalising flips in
random orders and checks the structural invariants after every batch —
the usage pattern Ruppert refinement exercises, compressed into a fuzzer.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.delaunay.constrained import insert_segment
from repro.delaunay.kernel import Triangulation, TriangulationError

from .oracle import check_integrity


@st.composite
def op_sequence(draw):
    """A random interleaving of inserts and segment ops over a point set."""
    n_pts = draw(st.integers(min_value=6, max_value=24))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    rng = np.random.default_rng(seed)
    pts = rng.uniform(0, 100, size=(n_pts, 2))
    ops = []
    inserted = 0
    # First insert at least 3 points to bootstrap.
    for _ in range(3):
        ops.append(("insert", inserted))
        inserted += 1
    while inserted < n_pts:
        kind = draw(st.sampled_from(["insert", "insert", "segment"]))
        if kind == "insert":
            ops.append(("insert", inserted))
            inserted += 1
        else:
            i = draw(st.integers(min_value=0, max_value=inserted - 1))
            j = draw(st.integers(min_value=0, max_value=inserted - 1))
            if i != j:
                ops.append(("segment", (i, j)))
    return pts, ops


class TestMixedOps:
    @given(op_sequence())
    @settings(max_examples=40, deadline=None)
    def test_invariants_after_every_batch(self, case):
        pts, ops = case
        tri = Triangulation()
        kernel_id = {}
        constrained_pairs = []
        for step, (kind, payload) in enumerate(ops):
            if kind == "insert":
                i = payload
                kernel_id[i] = tri.insert_point(pts[i, 0], pts[i, 1])
            else:
                i, j = payload
                u, v = kernel_id[i], kernel_id[j]
                if u == v:
                    continue
                try:
                    subs = insert_segment(tri, u, v)
                except TriangulationError:
                    # A crossing with an existing constrained segment is a
                    # legal rejection for random segment soup.
                    continue
                for su, sv in subs:
                    tri.mark_constraint(su, sv)
                    constrained_pairs.append((su, sv))
            if step % 5 == 0:
                check_integrity(tri)
        check_integrity(tri)
        # All surviving constrained edges still exist...
        for su, sv in constrained_pairs:
            key = (min(su, sv), max(su, sv))
            if key in tri.constraints:
                assert tri.has_edge(su, sv)
        # ...and the mesh is conforming and constrained-Delaunay.
        mesh = tri.to_mesh()
        assert mesh.is_conforming()
        assert mesh.delaunay_violations(respect_segments=True) == 0

    @given(st.integers(min_value=0, max_value=500))
    @settings(max_examples=30, deadline=None)
    def test_duplicate_resilience(self, seed):
        """Inserting every point twice changes nothing."""
        rng = np.random.default_rng(seed)
        pts = rng.uniform(0, 10, size=(15, 2))
        tri = Triangulation()
        first = [tri.insert_point(x, y) for x, y in pts]
        n_before = tri.n_live_triangles
        second = [tri.insert_point(x, y) for x, y in pts]
        assert first == second
        assert tri.n_live_triangles == n_before
        check_integrity(tri)

    @given(st.integers(min_value=0, max_value=200))
    @settings(max_examples=20, deadline=None)
    def test_collinear_then_general(self, seed):
        """A long collinear prefix followed by general points."""
        rng = np.random.default_rng(seed)
        n_col = int(rng.integers(3, 10))
        xs = np.sort(rng.uniform(0, 10, n_col))
        tri = Triangulation()
        for x in xs:
            tri.insert_point(x, 2.0 * x + 1.0)  # on a line
        for _ in range(8):
            x, y = rng.uniform(0, 10, 2)
            tri.insert_point(x, y)
            if tri.n_live_triangles:
                check_integrity(tri)
        mesh = tri.to_mesh()
        assert mesh.is_conforming()
        assert mesh.delaunay_violations(respect_segments=False) == 0
