"""``triangulate_polygon``: a polygon's CDT built from its rings alone.

Every case of the corpus — star polygons, axis-aligned rings with
exactly collinear runs, regular n-gons (cocircular points), rings bent
by one ulp, rings with one to three holes — must give a structurally
sound triangulation that covers exactly the polygon: each ring edge an
edge, constrained and bordered by a ghost, ``n - 2 + 2h`` real
triangles, every other edge locally Delaunay by the exact incircle.
Where no edge is cocircular the CDT is unique, so it must equal the
interior ``triangulate_pslg`` + ``carve`` builds from the same rings.
"""

import hashlib
import math
import os
import subprocess
import sys
from collections import deque
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.decouple import DecoupledSubdomain, refine_subdomain
from repro.delaunay import refine
from repro.delaunay.cavity import find_directed_edge, walk
from repro.delaunay.constrained import (
    RingError,
    carve,
    checked_rings,
    triangulate_pslg,
    triangulate_polygon,
)
from repro.delaunay.kernel import GHOST
from repro.delaunay.refine import Refiner
from repro.geometry.predicates import incircle, orient2d
from repro.sizing.functions import UniformSizing

from .oracle import check_integrity

ROOT = Path(__file__).resolve().parents[2]


# ----------------------------------------------------------------------
# Corpus: (outer ring CCW, [hole rings CW], [a point inside each hole])
# ----------------------------------------------------------------------
@st.composite
def star(draw, n_min=3, n_max=30, center=(0.0, 0.0), scale=1.0):
    n = draw(st.integers(n_min, n_max))
    jitter = draw(st.lists(st.floats(0.2, 0.8), min_size=n, max_size=n))
    radii = draw(st.lists(st.floats(0.2, 1.0), min_size=n, max_size=n))
    ang = 2.0 * math.pi * (np.arange(n) + np.asarray(jitter)) / n
    r = scale * np.asarray(radii)
    return np.column_stack([center[0] + r * np.cos(ang),
                            center[1] + r * np.sin(ang)])


def subdivided(corners, pieces):
    """The closed polyline through ``corners``, edge ``i`` cut into
    ``pieces[i]`` equal parts: exactly collinear runs on axis-aligned
    edges with dyadic lengths."""
    out = []
    for i, (a, b) in enumerate(zip(corners, corners[1:] + corners[:1])):
        k = pieces[i % len(pieces)]
        out += [(a[0] + (b[0] - a[0]) * j / k, a[1] + (b[1] - a[1]) * j / k)
                for j in range(k)]
    return np.asarray(out, dtype=np.float64)


@st.composite
def staircase(draw):
    """A histogram polygon on integer columns, every edge subdivided."""
    heights = draw(st.lists(st.integers(1, 6), min_size=1, max_size=6))
    corners = [(0.0, 0.0), (float(len(heights)), 0.0)]
    for i in range(len(heights) - 1, -1, -1):
        corners += [(i + 1.0, float(heights[i])), (float(i), heights[i])]
    corners = [c for k, c in enumerate(corners)
               if c != corners[k - 1]]
    pieces = draw(st.lists(st.sampled_from([1, 2, 4, 8]), min_size=1,
                           max_size=8))
    ring = subdivided(corners, pieces)
    keep = (ring != np.roll(ring, 1, axis=0)).any(axis=1)
    return ring[keep]


@st.composite
def regular(draw):
    n = draw(st.integers(3, 40))
    ang = 2.0 * math.pi * np.arange(n) / n
    return np.column_stack([np.cos(ang), np.sin(ang)])


#: The lattice points of the circle of radius 25: exactly cocircular.
LATTICE_25 = sorted(
    {(float(s * x), float(t * y)) for x, y in
     ((0, 25), (7, 24), (15, 20), (20, 15), (24, 7), (25, 0))
     for s in (1, -1) for t in (1, -1)},
    key=lambda p: math.atan2(p[1], p[0]))


@st.composite
def cocircular(draw):
    pick = draw(st.lists(st.sampled_from(range(len(LATTICE_25))),
                         min_size=3, max_size=len(LATTICE_25), unique=True))
    return np.asarray([LATTICE_25[i] for i in sorted(pick)])


@st.composite
def ulp_bent(draw):
    """A subdivided square whose side vertices move one ulp in or out."""
    k = draw(st.integers(2, 12))
    ring = subdivided([(0.0, 0.0), (3.0, 0.0), (3.0, 3.0), (0.0, 3.0)],
                      [k])
    moves = draw(st.lists(st.sampled_from([-1, 0, 1]), min_size=len(ring),
                          max_size=len(ring)))
    for i, m in enumerate(moves):
        if m and i % k:
            side = i // k
            axis = 1 if side % 2 == 0 else 0
            ring[i, axis] = np.nextafter(ring[i, axis], m * np.inf)
    return ring


@st.composite
def holed(draw):
    """A subdivided box with 1-3 star holes in distinct grid cells."""
    cells = draw(st.lists(st.sampled_from(range(9)), min_size=1, max_size=3,
                          unique=True))
    ring = subdivided([(0.0, 0.0), (9.0, 0.0), (9.0, 9.0), (0.0, 9.0)],
                      [draw(st.integers(1, 9))])
    holes, seeds = [], []
    for c in cells:
        center = (1.5 + 3.0 * (c % 3), 1.5 + 3.0 * (c // 3))
        # Four or more corners keep every angular gap below pi, so the
        # centre is inside the star.
        holes.append(draw(star(4, 12, center, 1.4))[::-1].copy())
        seeds.append(center)
    return ring, holes, seeds


def plain(ring_strategy):
    return ring_strategy.map(lambda ring: (ring, [], []))


CORPUS = st.one_of(plain(star()), plain(staircase()), plain(regular()),
                   plain(cocircular()), plain(ulp_bent()), holed())


# ----------------------------------------------------------------------
# What every case must satisfy
# ----------------------------------------------------------------------
def real_triangles(tri):
    rows = tri._arr.tri_v()
    return rows[rows.min(axis=1) >= 0]


def triangle_set(tri, mask=None):
    rows = tri._arr.tri_v()
    keep = rows.min(axis=1) >= 0
    if mask is not None:
        keep &= mask[:len(rows)]
    pts = tri._arr.pts()
    return {frozenset(map(tuple, pts[row])) for row in rows[keep]}


def cocircular_edges(tri):
    """Count the unconstrained edges whose quad is cocircular, after
    asserting that no such edge fails the exact incircle test."""
    arr = tri._arr
    ties = 0
    for t in tri.live_triangles():
        row = arr.triangle(t)
        if GHOST in row:
            continue
        for k in range(3):
            nb = arr.tn[3 * t + k]
            u, v = tri._edge(t, k)
            if (min(u, v), max(u, v)) in tri.constraints or tri.is_ghost(nb):
                continue
            apex = arr.tv[3 * nb + tri._edge_index(nb, v, u)]
            side = incircle(*(arr.point(w) for w in row), arr.point(apex))
            assert side <= 0, f"edge {(u, v)} is not locally Delaunay"
            ties += side == 0
    return ties


def assert_polygon_cdt(ring, holes, seeds):
    tri = triangulate_polygon(ring, holes)
    check_integrity(tri)
    n = len(ring) + sum(len(h) for h in holes)
    assert tri._arr.n_pts == n
    assert len(real_triangles(tri)) == n - 2 + 2 * len(holes)
    assert len(tri.constraints) == n
    base = 0
    for part in [ring, *holes]:
        m = len(part)
        for i in range(m):
            u, v = base + i, base + (i + 1) % m
            assert (min(u, v), max(u, v)) in tri.constraints
            inside = find_directed_edge(tri, u, v)
            outside = find_directed_edge(tri, v, u)
            assert inside is not None and not tri.is_ghost(inside[0])
            assert outside is not None and tri.is_ghost(outside[0])
        base += m
    if cocircular_edges(tri) == 0:
        pts = np.vstack([ring, *holes])
        segs, base = [], 0
        for part in [ring, *holes]:
            m = len(part)
            segs += [(base + i, base + (i + 1) % m) for i in range(m)]
            base += m
        ref = triangulate_pslg(pts, np.asarray(segs))
        assert triangle_set(tri) == triangle_set(ref, carve(ref, seeds))
    return tri


class TestCorpus:
    @given(case=CORPUS)
    @settings(max_examples=150, deadline=None)
    def test_covers_the_polygon_as_its_cdt(self, case):
        assert_polygon_cdt(*case)

    @given(case=holed())
    @settings(max_examples=40, deadline=None)
    def test_holes_glued_one_ghost_cycle_per_ring(self, case):
        tri = assert_polygon_cdt(*case)
        ghosts = {t for t in tri.live_triangles() if tri.is_ghost(t)}
        assert len(ghosts) == len(case[0]) + sum(len(h) for h in case[1])
        cycles = 0
        while ghosts:
            cycles += 1
            g = ghosts.pop()
            while (g := tri._arr.tn[3 * g]) in ghosts:
                ghosts.remove(g)
        assert cycles == 1 + len(case[1])

    @pytest.mark.parametrize("holes", [
        # Found by the corpus: the lower hole's only vertex strictly
        # right of it that it sees is the end of the upper hole's bridge.
        [[(2.48994949, 3.51005051), (0.51005051, 3.51005051),
          (0.51005051, 5.48994949), (1.99497475, 4.99497475)],
         [(2.48994949, 0.51005051), (0.51005051, 0.51005051),
          (0.51005051, 2.48994949), (2.48994949, 2.48994949)]],
        [[(x + 0.99, y - 0.99), (x - 0.99, y - 0.99), (x - 0.99, y + 0.99),
          (x + 0.99, y + 0.99)] for x, y in ((2, 1.5), (2, 4.5), (2, 7.5))],
    ])
    def test_a_bridge_end_takes_another_bridge(self, holes):
        """A vertex a bridge already ends at is visited twice; a later
        bridge to it enters at the visit whose corner opens towards it."""
        ring = subdivided([(0.0, 0.0), (9.0, 0.0), (9.0, 9.0), (0.0, 9.0)],
                          [1])
        holes = [np.asarray(h) for h in holes]
        assert_polygon_cdt(ring, holes, [tuple(h.mean(axis=0))
                                         for h in holes])

    def test_regular_polygon_counts_flips(self):
        ang = 2.0 * math.pi * np.arange(64) / 64
        tri = triangulate_polygon(np.column_stack([np.cos(ang),
                                                   np.sin(ang)]))
        assert tri.stat_flips > 0
        assert tri.stat_incircle_fast + tri.stat_incircle_exact > 0
        assert tri.stat_orient_fast + tri.stat_orient_exact > 0


DETERMINISM = """
import hashlib, sys
import numpy as np
sys.path[:0] = [{src!r}, {root!r}]
from repro.delaunay.constrained import triangulate_polygon
from tests.delaunay.test_polygon import fixed_case
tri = triangulate_polygon(*fixed_case())
arr = tri._arr
blob = repr((arr.px, arr.tv, arr.tn, arr.vt, sorted(tri.constraints)))
print(hashlib.sha256(blob.encode()).hexdigest())
"""


def fixed_case():
    """A box with collinear runs around three holes, one cocircular."""
    ring = subdivided([(0.0, 0.0), (9.0, 0.0), (9.0, 9.0), (0.0, 9.0)], [6])
    ang = 2.0 * math.pi * np.arange(12) / 12
    holes = [np.column_stack([1.5 + np.cos(-ang), 1.5 + np.sin(-ang)]),
             subdivided([(4.0, 4.0), (4.0, 5.0), (5.0, 5.0), (5.0, 4.0)],
                        [2]),
             np.asarray([(7.0, 7.5), (7.5, 7.0), (7.0, 6.5), (6.5, 7.0)])]
    return ring, holes


class TestDeterminism:
    def test_two_processes_build_identical_arrays(self):
        script = DETERMINISM.format(src=str(ROOT / "src"), root=str(ROOT))
        digests = set()
        for hash_seed in ("0", "12345"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            out = subprocess.run([sys.executable, "-c", script], env=env,
                                 capture_output=True, text=True, check=True)
            digests.add(out.stdout.strip())
        tri = triangulate_polygon(*fixed_case())
        arr = tri._arr
        blob = repr((arr.px, arr.tv, arr.tn, arr.vt,
                     sorted(tri.constraints)))
        digests.add(hashlib.sha256(blob.encode()).hexdigest())
        assert len(digests) == 1


# ----------------------------------------------------------------------
# The rings refine_subdomain accepts
# ----------------------------------------------------------------------
def unit_square_ring():
    """The 32-point unit square of the locked-border oracle test."""
    side = np.linspace(0.0, 1.0, 9)[:-1]
    return np.concatenate([
        np.column_stack([side, np.zeros(8)]),
        np.column_stack([np.ones(8), side]),
        np.column_stack([1.0 - side, np.ones(8)]),
        np.column_stack([np.zeros(8), 1.0 - side])])


class TestCheckedRings:
    def test_repeated_vertex_is_a_ring_error(self):
        ring = unit_square_ring()
        ring = np.insert(ring, 5, ring[5], axis=0)
        with pytest.raises(RingError, match="outer ring, vertex 5") as err:
            refine_subdomain(DecoupledSubdomain(ring=ring),
                             UniformSizing(0.004))
        assert (err.value.ring, err.value.vertex) == (0, 5)

    def test_too_few_distinct_vertices(self):
        ring = np.asarray([(0.0, 0.0), (1.0, 0.0), (0.0, 0.0), (1.0, 0.0)])
        with pytest.raises(RingError, match="fewer than 3"):
            checked_rings(ring, [])

    def test_fold_back(self):
        ring = np.asarray([(0.0, 0.0), (2.0, 0.0), (1.0, 0.0), (1.0, 1.0)])
        with pytest.raises(RingError, match="vertex 1: folds back"):
            checked_rings(ring, [])

    def test_crossing_edges(self):
        bowtie = np.asarray([(0.0, 0.0), (1.0, 1.0), (1.0, 0.0), (0.0, 1.0)])
        with pytest.raises(RingError, match="meets edge"):
            checked_rings(bowtie, [])

    def test_hole_touching_the_outer_ring(self):
        ring = unit_square_ring()
        hole = np.asarray([(0.5, 0.0), (0.6, 0.2), (0.4, 0.2)])
        with pytest.raises(RingError) as err:
            checked_rings(ring, [hole])
        assert {err.value.ring} <= {0, 1}

    def test_orientation_is_fixed_not_required(self):
        ring = unit_square_ring()
        hole = 0.5 + 0.1 * np.asarray([(-1.0, -1.0), (1.0, -1.0),
                                       (1.0, 1.0), (-1.0, 1.0)])
        sub = DecoupledSubdomain(ring=ring[::-1].copy(), hole_rings=[hole])
        assert sub.area() == pytest.approx(1.0 - 0.04)
        outer, (inner,) = checked_rings(sub.ring, sub.hole_rings)
        assert np.array_equal(outer, ring)
        assert np.array_equal(inner, hole[::-1])
        mesh = refine_subdomain(sub, UniformSizing(0.01))
        assert np.abs(mesh.areas()).sum() == pytest.approx(0.96)

    def test_clockwise_area_is_unsigned(self):
        sub = DecoupledSubdomain(ring=unit_square_ring()[::-1].copy())
        assert sub.area() == pytest.approx(1.0)


# ----------------------------------------------------------------------
# Locked refinement of a polygon: ghosts are walls
# ----------------------------------------------------------------------
def l_shape():
    """An L with a reflex corner at (2, 2), sides cut at integers."""
    return np.asarray([(0, 0), (2, 0), (4, 0), (4, 1), (4, 2), (3, 2),
                       (2, 2), (2, 3), (2, 4), (1, 4), (0, 4), (0, 2)],
                      dtype=np.float64)


def holds(tri, t, p):
    arr = tri._arr
    a, b, c = (arr.point(v) for v in arr.triangle(t))
    return min(orient2d(a, b, p), orient2d(b, c, p), orient2d(c, a, p)) >= 0


class TestLockedRefinementOfAPolygon:
    def test_circumcenter_on_a_boundary_adjacent_edge_is_inserted(self):
        """The circumcenter (0, 0) of the corner (-3, 4), (-4, 3),
        (-5, 0) of a notched polygon lies on the edge from (-5, 0) to
        the notch at (5.5, 0): the straight walk ends on that edge, and
        the triangle it ends in is where the point goes."""
        ring = np.asarray([(0, -6), (7, -6), (5.5, 0), (7, 6), (0, 6),
                           (-3, 4), (-4, 3), (-5, 0), (-2, -5)],
                          dtype=np.float64)
        tri = triangulate_polygon(ring)
        assert tri.has_edge(7, 2)
        t = find_directed_edge(tri, 5, 6)[0]
        refiner = Refiner(tri, lock_segments=True)
        blocker, dest, certified = refiner._locate_visible(t, 0.0, 0.0)
        assert blocker is None and not certified
        assert {7, 2} <= set(tri._arr.triangle(dest))
        n = tri._arr.n_pts
        refiner._process_bad_triangle(t, deque())
        assert tri._arr.n_pts == n + 1
        assert tri._arr.point(n) == (0.0, 0.0)
        assert refiner.walk_fallbacks == 0
        check_integrity(tri)

    def test_kernel_walk_past_a_numeric_corner_stops_at_the_wall(
            self, monkeypatch):
        """From the L's right arm the kernel walk to (1, 3.5), in the
        upper arm, steps over the arm's top edge into a ghost whose
        half-plane holds the point.  When the straight walk hands over
        to it (a numeric corner, forced here), that ghost is a wall:
        the point is located in the real triangle holding it."""
        tri = triangulate_polygon(l_shape())
        p = (1.0, 3.5)
        starts = []
        for t in list(tri.live_triangles()):
            if not tri.is_ghost(t):
                state = tri._lcg, tri._last_tri
                if tri.is_ghost(walk(tri, *p, t)[0]):
                    starts.append(t)
                tri._lcg, tri._last_tri = state
        assert starts
        monkeypatch.setattr(refine, "_crosses", lambda *args: False)
        refiner = Refiner(tri, lock_segments=True)
        for t in starts:
            state = tri._lcg, tri._last_tri
            blocker, dest, _ = refiner._locate_visible(t, *p)
            tri._lcg, tri._last_tri = state
            assert blocker is None
            assert not tri.is_ghost(dest) and holds(tri, dest, p)
        assert refiner.walk_fallbacks == len(starts)
