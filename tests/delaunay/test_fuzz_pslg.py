"""Property-based fuzzing of the constrained Delaunay + refinement stack.

Random star-shaped polygons (always simple) with random interior points
and optional holes drive the full PSLG -> CDT -> Ruppert pipeline; the
invariants checked are the ones every downstream consumer relies on.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.delaunay.constrained import constrained_delaunay
from repro.delaunay.refine import RUPPERT_BOUND, Refiner
from repro.delaunay.validate import validate_mesh
from repro.geometry.primitives import polygon_area

from .fuzz_refine_digest import outcome, refined
from .oracle_refine import RescanRefiner, assert_refinement_complete


@st.composite
def star_polygon(draw, min_v=4, max_v=14, radius=10.0):
    """A simple polygon star-shaped about the origin.

    Angles are built constructively from bounded gap weights (every gap in
    roughly [0.25, 2.3] radians), so the origin is strictly interior and
    the polygon is simple by construction — no assume() filtering.
    """
    n = draw(st.integers(min_value=min_v, max_value=max_v))
    weights = draw(
        st.lists(st.floats(min_value=0.6, max_value=1.0),
                 min_size=n, max_size=n)
    )
    total = sum(weights)
    offset = draw(st.floats(min_value=0.0, max_value=2 * math.pi))
    angles = []
    acc = 0.0
    for w in weights:
        angles.append(offset + acc / total * 2 * math.pi)
        acc += w
    radii = draw(
        st.lists(st.floats(min_value=0.2 * radius, max_value=radius),
                 min_size=n, max_size=n)
    )
    pts = np.array(
        [(r * math.cos(a), r * math.sin(a)) for a, r in zip(angles, radii)]
    )
    return pts


class TestCDTFuzz:
    @given(poly=star_polygon())
    @settings(max_examples=60, deadline=None)
    def test_cdt_of_star_polygon(self, poly):
        n = len(poly)
        segs = np.array([(i, (i + 1) % n) for i in range(n)])
        mesh = constrained_delaunay(poly, segs)
        rep = validate_mesh(mesh, check_delaunay=True)
        assert rep.conforming
        assert rep.inverted_triangles == 0
        assert rep.delaunay_violations == 0
        # Carving leaves exactly the polygon area.
        assert rep.total_area == pytest.approx(abs(polygon_area(poly)),
                                               rel=1e-9)
        assert rep.boundary_loops == 1

    @given(poly=star_polygon(), seed=st.integers(min_value=0, max_value=999))
    @settings(max_examples=40, deadline=None)
    def test_cdt_with_interior_points(self, poly, seed):
        n = len(poly)
        rng = np.random.default_rng(seed)
        # Interior points: scaled-down boundary points are strictly inside
        # a polygon star-shaped about the origin (the strategy guarantees
        # the origin is interior: every angular gap is below pi).
        scales = rng.uniform(0.2, 0.8, size=min(n, 6))
        interior = poly[: len(scales)] * scales[:, None]
        pts = np.vstack([poly, interior])
        segs = np.array([(i, (i + 1) % n) for i in range(n)])
        mesh = constrained_delaunay(pts, segs)
        assert mesh.is_conforming()
        assert np.abs(mesh.areas()).sum() == pytest.approx(
            abs(polygon_area(poly)), rel=1e-9)
        # All interior points present in the mesh.
        mesh_pts = {tuple(np.round(p, 12)) for p in mesh.points}
        for q in interior:
            assert tuple(np.round(q, 12)) in mesh_pts

    @given(poly=star_polygon(min_v=6, max_v=12))
    @settings(max_examples=25, deadline=None)
    def test_refined_star_quality(self, poly):
        n = len(poly)
        segs = np.array([(i, (i + 1) % n) for i in range(n)])
        # Guard the (possibly sharp) star corners with a floor.
        per = np.linalg.norm(np.diff(np.vstack([poly, poly[:1]]), axis=0),
                             axis=1)
        floor = float(per.min()) / 16.0
        refiner = refined(Refiner, poly, segs, min_edge_floor=floor,
                          max_steiner=100_000)
        mesh = refiner.to_mesh()
        rep = validate_mesh(mesh, check_delaunay=False)
        assert rep.conforming
        assert rep.inverted_triangles == 0
        # Float-area accumulation over guarded corner slivers: 1e-6 rel.
        assert rep.total_area == pytest.approx(abs(polygon_area(poly)),
                                               rel=1e-6)
        # Triangles safely above the cusp guard meet Ruppert's bound.
        ratios = mesh.radius_edge_ratios()
        lmins = mesh.edge_lengths().min(axis=1)
        unguarded = lmins > 4.0 * floor
        if unguarded.any():
            ok = (ratios[unguarded] <= RUPPERT_BOUND + 1e-9).mean()
            assert ok >= 0.6
        assert_refinement_complete(refiner)

    @given(poly=star_polygon(min_v=5, max_v=12),
           max_area=st.floats(min_value=0.3, max_value=5.0),
           guarded=st.booleans(), holed=st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_refined_star_matches_rescan_oracle(self, poly, max_area,
                                                guarded, holed):
        """Un-locked, area-bounded refinement, where the order bad
        triangles are revisited in decides the bytes: the worklist
        driver builds the mesh of the whole-mesh-rescan driver it
        replaced (or stops on the same typed error — without the floor
        a sharp corner can exhaust the budget), and leaves nothing it
        was allowed to fix."""
        n = len(poly)
        pts, holes = poly, ()
        segs = [(i, (i + 1) % n) for i in range(n)]
        if holed:  # the scaled copy of test_star_with_hole
            pts = np.vstack([poly, poly * 0.35])
            segs += [(n + i, n + (i + 1) % n) for i in range(n)]
            holes = ((0.0, 0.0),)
        per = np.linalg.norm(np.diff(np.vstack([poly, poly[:1]]), axis=0),
                             axis=1)
        options = dict(
            holes=holes, max_area=max_area, max_steiner=3000,
            min_edge_floor=float(per.min()) / 16.0 if guarded else 0.0)
        got, refiner = outcome(Refiner, pts, np.array(segs), **options)
        want, _ = outcome(RescanRefiner, pts, np.array(segs), **options)
        assert got == want
        if refiner is not None:
            assert_refinement_complete(refiner)

    @given(poly=star_polygon(min_v=5, max_v=10))
    @settings(max_examples=25, deadline=None)
    def test_star_with_hole(self, poly):
        n = len(poly)
        inner = poly * 0.35  # a scaled copy is strictly inside (star-shaped)
        # ... and similar, so the loops do not touch.
        pts = np.vstack([poly, inner])
        segs = np.array(
            [(i, (i + 1) % n) for i in range(n)]
            + [(n + i, n + (i + 1) % n) for i in range(n)]
        )
        mesh = constrained_delaunay(pts, segs, holes=[(0.0, 0.0)])
        expected = abs(polygon_area(poly)) - abs(polygon_area(inner))
        assert np.abs(mesh.areas()).sum() == pytest.approx(expected,
                                                           rel=1e-9)
        assert validate_mesh(mesh, check_delaunay=False).boundary_loops == 2
