"""One region model: ``refine_pslg`` refines the polygon its loops bound.

A hypothesis corpus of polygons with zero to two holes — star polygons
with star holes, and the airfoil loops of ``tests/domains.py`` (one
airfoil on its own, or one or two of a domain's bodies cut out of a box
around them) — is refined with its segments unlocked, so that segments
split.  Every mesh must be valid and constrained Delaunay, cover exactly
the polygon (no triangle in a hole), and keep each input segment as a
chain of its edges; and no cavity the refiner carves may hold a ghost:
a ghost is a wall, and a segment split is an edge split, never a cavity.
"""

import contextlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bl_pipeline import interior_seed
from repro.delaunay import cavity as cavity_module
from repro.delaunay import refine as refine_module
from repro.delaunay.constrained import RingError
from repro.delaunay.kernel import GHOST
from repro.delaunay.refine import refine_pslg
from repro.delaunay.validate import validate_mesh
from repro.geometry.primitives import point_in_polygon, polygon_area

from ..domains import DOMAINS
from .fuzz_refine_digest import star_case as fuzz_star_case
from .test_fuzz_pslg import star_polygon


@contextlib.contextmanager
def ghost_free_cavities():
    """While the block runs, every cavity ``carve`` returns — the
    refiner's and ``insert_point``'s — must hold no ghost triangle."""
    carve = cavity_module.carve

    def spy(tri, x, y, t0, certified=False):
        report = carve(tri, x, y, t0, certified)
        tv = tri._arr.tv
        ghosts = [t for t in report[0] if GHOST in tv[3 * t:3 * t + 3]]
        assert not ghosts, f"cavity of {(x, y)} holds ghosts {ghosts}"
        return report

    cavity_module.carve = refine_module.carve = spy
    try:
        yield
    finally:
        cavity_module.carve = refine_module.carve = carve


@st.composite
def star_case(draw):
    """A star polygon about the origin with 0-2 small star holes near
    it: every edge of the outer star stays more than 0.8 from the
    origin, and the holes lie within 0.75 of it, 0.1 apart."""
    outer = draw(star_polygon(min_v=4, max_v=14))
    k = draw(st.integers(0, 2))
    centres = [(0.0, 0.0)] if k == 1 else [(-0.4, 0.0), (0.4, 0.0)][:k]
    holes = [draw(star_polygon(min_v=3, max_v=8, radius=0.35)) + c
             for c in centres]
    return outer, holes, centres


@st.composite
def domain_case(draw):
    """The loops of a ``tests/domains.py`` PSLG: no hole (the first
    airfoil meshed on its own), or the first one or two bodies cut out
    of a box with a margin of half the bodies' extent."""
    pslg, _ = DOMAINS[draw(st.sampled_from(sorted(DOMAINS)))]()
    loops = [pslg.loop_points(lp) for lp in pslg.body_loops]
    k = draw(st.integers(0, min(2, len(loops))))
    if k == 0:
        return loops[0], [], []
    holes = loops[:k]
    pts = np.vstack(holes)
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    margin = 0.5 * float((hi - lo).max())
    (x0, y0), (x1, y1) = lo - margin, hi + margin
    box = np.array([(x0, y0), (x1, y0), (x1, y1), (x0, y1)])
    return box, holes, [interior_seed(h) for h in holes]


def as_pslg(outer, holes, shuffle):
    """Points and segments of the loops; ``shuffle`` reverses every
    other loop and lists the segments in a scrambled order."""
    loops = [np.asarray(outer, dtype=np.float64)] + [
        np.asarray(h, dtype=np.float64) for h in holes]
    points, segs, start = [], [], 0
    for i, lp in enumerate(loops):
        if shuffle and i % 2:
            lp = lp[::-1]
        m = len(lp)
        points.append(lp)
        segs += [(start + j, start + (j + 1) % m) for j in range(m)]
        start += m
    segs = np.array(segs)
    if shuffle:
        segs = segs[np.random.default_rng(len(segs)).permutation(len(segs))]
    return np.vstack(points), segs


def assert_segments_are_edge_chains(mesh, points, segs):
    """Each input segment is a chain of mesh segments, each a mesh
    edge, from one end to the other along the segment."""
    index = {tuple(p): i for i, p in enumerate(mesh.points.tolist())}
    edges = {tuple(e) for e in mesh.edges().tolist()}
    nbrs = {}
    for u, v in mesh.segments.tolist():
        assert (min(u, v), max(u, v)) in edges, (u, v)
        nbrs.setdefault(u, []).append(v)
        nbrs.setdefault(v, []).append(u)
    for a, b in segs.tolist():
        pa, pb = points[a], points[b]
        length = float(np.hypot(*(pb - pa)))
        end = index[tuple(pb.tolist())]
        def ahead_and_off(w):
            q = mesh.points[w] - pa
            along = (q[0] * (pb[0] - pa[0]) + q[1] * (pb[1] - pa[1]))
            across = (pb[0] - pa[0]) * q[1] - (pb[1] - pa[1]) * q[0]
            return along > 0.0, abs(across) / length

        # Leave a along the chain neighbour ahead of it and on the line.
        prev, cur = None, index[tuple(pa.tolist())]
        steps = 0
        while cur != end:
            options = [(ahead_and_off(w)[1], w) for w in nbrs[cur]
                       if w != prev and ahead_and_off(w)[0]]
            assert options, (a, b, cur)
            off, nxt = min(options)
            assert off <= 1e-9 * length, (a, b, mesh.points[nxt])
            prev, cur = cur, nxt
            steps += 1
            assert steps <= len(mesh.points), "chain does not reach its end"


def check_refined(outer, holes, seeds, max_area, floor):
    for shuffle in (False, True):
        points, segs = as_pslg(outer, holes, shuffle)
        with ghost_free_cavities():
            mesh = refine_pslg(points, segs, holes=seeds, max_area=max_area,
                               min_edge_floor=floor)
        report = validate_mesh(mesh, check_delaunay=True)
        assert report.ok, report.summary()
        assert report.delaunay_violations == 0
        assert report.boundary_loops == 1 + len(holes)
        want = abs(polygon_area(outer)) - sum(abs(polygon_area(h))
                                              for h in holes)
        assert np.abs(mesh.areas()).sum() == pytest.approx(want, rel=1e-9)
        cents = mesh.centroids()
        for h in holes:
            assert not point_in_polygon(cents[:, :1], cents[:, 1:], h).any()
        assert_segments_are_edge_chains(mesh, points, segs)


class TestRefinedPolygonCorpus:
    @given(case=star_case(), area=st.floats(0.5, 4.0))
    @settings(max_examples=25, deadline=None)
    def test_star_polygons(self, case, area):
        outer, holes, seeds = case
        per = np.linalg.norm(np.diff(np.vstack([outer, outer[:1]]), axis=0),
                             axis=1)
        check_refined(outer, holes, seeds, area, float(per.min()) / 16.0)

    @given(case=domain_case(), fine=st.floats(0.02, 0.1))
    @settings(max_examples=12, deadline=None)
    def test_domain_loops(self, case, fine):
        """Airfoil trailing edges are sharp: the floor at a thousandth
        of the extent stops the small-angle cascade there."""
        outer, holes, seeds = case
        extent = float(np.ptp(outer, axis=0).max())
        check_refined(outer, holes, seeds, (fine * extent) ** 2,
                      extent * 1e-3)

    @pytest.mark.parametrize("seed", [27, 35])
    def test_a_hole_crossing_the_star_is_a_ring_error(self, seed):
        """Invalid fuzz-digest stars (``fuzz_refine_digest.star_case``):
        a star edge crosses the hole ring, which is refused by name
        before anything is refined."""
        points, segments, holes, max_area = fuzz_star_case(seed)
        with pytest.raises(RingError, match="meets edge"):
            refine_pslg(points, segments, holes=holes, max_area=max_area)
