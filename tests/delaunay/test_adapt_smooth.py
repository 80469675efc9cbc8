"""Scalar smoothing and ear clipping against their NumPy / point-tuple
oracles.

``MeshAdaptor.smooth_pass`` reads ``px`` and the tensor rows as plain
floats and sums a vertex's neighbour weights with ``_pairwise_sum``,
which reproduces NumPy's pairwise order; ``oracle_adapt.smooth_pass`` is
the array formulation it replaced.  ``_ear_clip`` tests orientation with
the refiner's float filter on ``px`` entries; ``oracle_adapt.ear_clip``
builds point tuples for ``orient2d``.  Both pairs must agree exactly:
the same floats in ``px`` after every smoothing pass, the same
triangles from every star the collapse pass clips.
"""

import math
import random
from contextlib import contextmanager

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.delaunay import adapt as adapt_module
from repro.delaunay.adapt import MeshAdaptor, _pairwise_sum
from repro.delaunay.constrained import load_mesh
from repro.delaunay.kernel import GHOST
from repro.geometry.predicates import orient2d
from repro.metric import MetricField

from . import oracle_adapt
from .oracle import check_integrity
from .test_adapt_flip import banded_metric, make_adaptor, start_mesh


@contextmanager
def ear_clips_checked():
    """Run every ``_ear_clip`` call through the oracle too; yields the
    list of ``(ring length, triangles)`` of the calls, all checked."""
    clip = adapt_module._ear_clip
    calls = []

    def checked(px, ring):
        got = clip(px, ring)
        want = oracle_adapt.ear_clip(
            lambda w: (px[2 * w], px[2 * w + 1]), ring)
        assert got == want, ring
        calls.append((len(ring), got))
        return got

    adapt_module._ear_clip = checked
    try:
        yield calls
    finally:
        adapt_module._ear_clip = clip


def degrees(adaptor):
    """Neighbour count of every vertex (ghost included)."""
    tri = adaptor.tri
    arr = tri._arr
    out = []
    for v in range(arr.n_pts):
        ring = set()
        for t in tri.triangles_around_vertex(v):
            ring.update(arr.triangle(t))
        ring.discard(v)
        out.append(len(ring))
    return out


def run_both(mesh, field, protect, passes=2):
    """Adapt twin adaptors, smoothing one with the production pass and
    the other with the oracle; asserts equal floats after every smooth
    pass.  Returns ``(degree, moved)`` pairs of every smoothed vertex
    and the ear-clip calls."""
    new = make_adaptor(mesh, field, protect)
    old = make_adaptor(mesh, field, protect)
    smoothed = []
    with ear_clips_checked() as clips:
        for _ in range(passes):
            for adaptor in (new, old):
                adaptor.split_pass()
                adaptor.collapse_pass()
                adaptor.flip_pass()
            a, b = new.tri._arr, old.tri._arr
            assert (a.px, a.tv, a.tn) == (b.px, b.tv, b.tn)
            before = list(a.px)
            deg = degrees(new)
            moves = new.smooth_pass()
            assert moves == oracle_adapt.smooth_pass(old)
            assert all(type(x) is float for x in a.px)
            assert a.px == b.px
            smoothed += [(deg[v], (a.px[2 * v], a.px[2 * v + 1])
                          != (before[2 * v], before[2 * v + 1]))
                         for v in range(a.n_pts)]
            assert new.conformity() == old.conformity()
    check_integrity(new.tri)
    return smoothed, clips


class TestAgainstArrayOracle:
    @given(
        theta=st.floats(0.0, math.pi),
        ratio=st.sampled_from([1.0, 3.0, 30.0, 1e3]),
        h_fine=st.floats(0.03, 0.08),
        max_area=st.sampled_from([0.05, 0.02, 0.008]),
        holed=st.booleans(),
        protect=st.booleans(),
    )
    @settings(max_examples=15, deadline=None)
    def test_same_floats_same_ears(self, theta, ratio, h_fine, max_area,
                                   holed, protect):
        mesh = start_mesh(max_area, holed)
        run_both(mesh, banded_metric(mesh.points, theta, h_fine, ratio),
                 protect)

    def test_high_degree_vertices_move(self):
        """Positive control: only where a vertex has 8 or more neighbours
        does NumPy's pairwise order differ from a left fold, so such
        vertices must be among the moved ones; and the collapse pass
        must clip stars larger than a triangle."""
        mesh = start_mesh(0.02, False)
        smoothed, clips = run_both(
            mesh, banded_metric(mesh.points, 0.0, 0.03, 1.0), False)
        assert sum(moved for deg, moved in smoothed if deg >= 8) >= 20
        assert sum(1 for n, tris in clips if n >= 5 and tris) >= 20


class TestInversionGuard:
    def test_trial_move_beside_a_near_collinear_edge_is_refused(self):
        """A five-triangle star whose free vertex's first smoothing trial
        (half way to its neighbours' length-weighted centroid under the
        unit metric; the free vertex and two ring vertices were solved
        for it) lands at ``P`` = (0.5000000000000046,
        0.5000000000000053), just across the line through (24, 24) and
        (12, 12).  The float determinant of
        that triangle is +5.7e-14, its exact orientation -1: a guard
        that trusts the float sign keeps the move and leaves an
        inverted triangle.  After the pass every triangle must turn
        counter-clockwise by ``orient2d``."""
        P = (0.5000000000000046, 0.5000000000000053)
        a, b = (24.0, 24.0), (12.0, 12.0)
        assert (a[0] - P[0]) * (b[1] - P[1]) \
            - (a[1] - P[1]) * (b[0] - P[0]) > 0.0
        assert orient2d(a, b, P) < 0
        pts = np.array([a, b, (-31.474933126058698, 12.0), (-12.0, -20.0),
                        (14.0, -27.312870380486217),
                        (0.5000000000000007, 0.40000000000000024)])
        tri = load_mesh(pts, [[0, 1, 5], [1, 2, 5], [2, 3, 5], [3, 4, 5],
                              [4, 0, 5]], np.zeros((0, 2), dtype=np.int64))
        adaptor = MeshAdaptor(tri, MetricField.uniform(pts, 1.0))
        assert adaptor.smooth_pass() == 1
        arr = tri._arr
        for t in tri.live_triangles():
            v = arr.triangle(t)
            if GHOST not in v:
                assert orient2d(*(arr.point(i) for i in v)) > 0, v


class TestEarClip:
    @given(st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
                    min_size=3, max_size=10, unique=True),
           st.integers(0, 9), st.booleans())
    @settings(max_examples=500, deadline=None)
    def test_grid_polygons(self, points, shift, by_angle):
        """Rings on a 7 x 7 grid, as drawn or ordered by angle about
        their centroid: collinear corners, vertices on a candidate ear's
        edge and rings that cannot be clipped, which meshes rarely
        have."""
        if by_angle:
            cx = sum(x for x, _ in points) / len(points)
            cy = sum(y for _, y in points) / len(points)
            points.sort(key=lambda p: math.atan2(p[1] - cy, p[0] - cx))
        px = [float(c) for p in points for c in p]
        n = len(points)
        ring = [(i + shift) % n for i in range(n)]
        assert adapt_module._ear_clip(px, ring) == oracle_adapt.ear_clip(
            lambda w: (px[2 * w], px[2 * w + 1]), ring)


class TestPairwiseSum:
    """``_pairwise_sum`` is ``np.sum`` bit for bit: same value, same
    sign of zero."""

    @staticmethod
    def same(values):
        got = _pairwise_sum(values)
        with np.errstate(all="ignore"):
            want = float(np.sum(np.array(values, dtype=np.float64)))
        assert isinstance(got, float)
        assert got.hex() == want.hex(), (len(values), got, want)

    def test_every_length_to_300(self):
        rng = random.Random(0)
        special = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                   1e-300, 1.0, -1.0, 1e16, 3.0, 1e300, -1e300]
        for n in range(301):
            for draw in range(8):
                if draw == 0:
                    values = [-0.0] * n
                elif draw < 3:
                    values = [rng.choice(special) for _ in range(n)]
                else:
                    values = [rng.uniform(-1.0, 1.0)
                              * 10.0 ** rng.randint(-20, 20)
                              for _ in range(n)]
                self.same(values)

    @given(st.lists(st.floats(allow_nan=False, width=64), max_size=140))
    @settings(max_examples=400, deadline=None)
    def test_any_finite_or_infinite_floats(self, values):
        self.same(values)
