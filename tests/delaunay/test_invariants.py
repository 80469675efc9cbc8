"""Invariant harness for the Delaunay kernel.

Every optimisation in the insertion path (inlined filtered predicates,
certified walks, index-free location from the last touched triangle, no
legalisation pass behind a constraint-clipped cavity) must be
*behaviour-preserving*.  This module checks the mathematical invariants
with exact arithmetic:

* **Global Delaunay property** — no vertex strictly inside any real
  triangle's circumcircle, via the exact ``incircle`` predicate.  Checked
  exhaustively (all vertex/triangle pairs) on small clouds and via the
  Delaunay lemma (every non-constrained internal edge locally Delaunay,
  which implies the global property) on larger ones.
* **Positive orientation** of every real triangle (exact ``orient2d``).
* **Locked-edge preservation** — every constrained segment is an edge of
  the final triangulation.
* **Structural integrity** — the kernel's own adjacency audit.
* **Refinement completeness** — once ``refine()`` returns, every live
  interior triangle is good or its fix is denied
  (:func:`.oracle_refine.assert_refinement_complete`: the whole-mesh
  scan the driver itself never makes).

The same harness runs over uniform-random clouds, degenerate (cocircular
/ collinear-heavy) inputs, the fuzz PSLG corpus and dangling-needle
PSLGs; a differential test pins ``cavity.carve`` (seed rule included)
to the exact oracle (:mod:`.oracle`) cavity for cavity, and its report
of the cavity's segments to the passes it replaced
(:func:`assert_boundary_report`), at every insertion — the refiner,
which calls the kernel's three steps itself, is held to the same oracle
at the commit step (:func:`checking_commits`) —
and constrained triangulations are re-checked after *every* insertion,
because nothing repairs a fan afterwards.
"""

import contextlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.decouple import DecoupledSubdomain, refine_subdomain
from repro.delaunay import cavity as cavity_module
from repro.delaunay import refine as refine_module
from repro.delaunay.cavity import carve, retriangulate
from repro.delaunay.constrained import (
    insert_segment, triangulate_loops, triangulate_pslg)
from repro.delaunay.kernel import Triangulation, triangulate
from repro.delaunay.refine import AreaCriterion, Refiner, _depth_first
from repro.geometry.predicates import incircle, orient2d
from repro.sizing.functions import UniformSizing

from . import oracle
from .oracle import check_integrity
from .oracle_refine import (
    assert_refinement_complete, constrained_boundary, find_vertex_at,
    wrapped_edge)
from .test_fuzz_pslg import star_polygon


# ----------------------------------------------------------------------
# The harness
# ----------------------------------------------------------------------
def real_triangles(tri: Triangulation):
    return [t for t in tri.live_triangles() if not tri.is_ghost(t)]


def assert_positive_orientation(tri: Triangulation) -> None:
    point = tri._arr.point
    for t in real_triangles(tri):
        a, b, c = tri._arr.triangle(t)
        assert orient2d(point(a), point(b), point(c)) > 0, (
            f"triangle {t} not positively oriented"
        )


def assert_locally_delaunay(tri: Triangulation) -> None:
    """Every internal non-constrained edge is locally Delaunay (exact).

    By the Delaunay lemma this implies the global (constrained) Delaunay
    property; cocircular configurations (incircle == 0) are legal.
    """
    arr = tri._arr
    point = arr.point
    constraints = tri.constraints
    for t in real_triangles(tri):
        tv = arr.triangle(t)
        for k in range(3):
            nb = arr.tn[3 * t + k]
            if nb < t or tri.is_ghost(nb):
                continue  # each internal edge once; hull edges skipped
            u, v = tv[k - 2], tv[k - 1]
            if ((u, v) if u < v else (v, u)) in constraints:
                continue
            nv = arr.triangle(nb)
            apex = nv[0] + nv[1] + nv[2] - u - v
            assert incircle(point(tv[0]), point(tv[1]), point(tv[2]),
                            point(apex)) <= 0, (
                f"edge ({u},{v}) of triangle {t} not locally Delaunay"
            )


def assert_globally_delaunay(tri: Triangulation) -> None:
    """Exhaustive check: no vertex strictly inside any circumcircle.

    O(n_vertices * n_triangles) exact tests — small inputs only.
    """
    arr = tri._arr
    point = arr.point
    for t in real_triangles(tri):
        a, b, c = arr.triangle(t)
        pa, pb, pc = point(a), point(b), point(c)
        for v in range(arr.n_pts):
            if v == a or v == b or v == c:
                continue
            assert incircle(pa, pb, pc, point(v)) <= 0, (
                f"vertex {v} strictly inside circumcircle of triangle {t}"
            )


def assert_constraints_preserved(tri: Triangulation) -> None:
    for u, v in tri.constraints:
        assert tri.has_edge(u, v), f"locked edge ({u},{v}) missing"


def assert_invariants(tri: Triangulation, *, exhaustive: bool = False
                      ) -> None:
    check_integrity(tri)
    assert_positive_orientation(tri)
    assert_locally_delaunay(tri)
    assert_constraints_preserved(tri)
    if exhaustive:
        assert_globally_delaunay(tri)


def assert_boundary_report(tri: Triangulation, cavity, seed, segments,
                           wrapped) -> None:
    """``carve``'s report of the cavity's constrained boundary is what
    the two passes it replaced found: the same directed edges, in the
    depth-first order once the refiner orders them (the split order),
    and the same wrapped flag."""
    want = constrained_boundary(tri, cavity, seed)
    assert sorted(segments) == sorted(want)
    assert _depth_first(tri, cavity, seed, segments, segments) == want
    assert wrapped == wrapped_edge(tri, cavity)


def same_level_wrap(tri: Triangulation, cavity, seed) -> bool:
    """Do both sides of a segment wrapped by ``cavity`` lie at the same
    depth of ``carve``'s level-order search from ``seed``?"""
    tv, tn = tri._arr.tv, tri._arr.tn

    def segment(t, k):
        u, v = tv[3 * t + (k + 1) % 3], tv[3 * t + (k + 2) % 3]
        return u >= 0 and v >= 0 and ((u, v) if u < v else (v, u)) in tri.constraints

    depth = {seed: 0}
    frontier = [seed]
    while frontier:
        reached = []
        for t in frontier:
            for k in range(3):
                nb = tn[3 * t + k]
                if nb in cavity and nb not in depth and not segment(t, k):
                    depth[nb] = depth[t] + 1
                    reached.append(nb)
        frontier = reached
    return any(depth[t] == depth[tn[3 * t + k]] for t in cavity
               for k in range(3) if tn[3 * t + k] in cavity and segment(t, k))


def insert_checking_cavities(tri: Triangulation, points) -> int:
    """Insert ``points`` one at a time; before each insertion the
    production carve must equal the oracle's cavity, with its report of
    the constrained boundary (:func:`assert_boundary_report`), and after
    each insertion into a constrained triangulation every invariant must
    hold as it stands (the star fan of a clipped cavity gets no
    legalisation pass).  Returns how many cavities a constraint truly
    clipped."""
    n_clipped = 0
    for x, y in points:
        p = (float(x), float(y))
        if tri.n_live_triangles == 0:
            tri.insert_point(*p)
            continue
        t = tri.locate(p)
        if find_vertex_at(tri, p, t) is not None:
            continue
        t0 = oracle.seed(tri, t, p)
        want, clipped = oracle.carve(tri, p, t0)
        cavity, seed, segments, wrapped = carve(tri, p[0], p[1], t)
        assert (cavity, seed) == (want, t0), (
            f"cavity of {p} differs from the oracle's")
        assert_boundary_report(tri, cavity, seed, segments, wrapped)
        n_clipped += clipped
        cavity_module.insert_point(tri, *p, t)
        if tri.constraints:
            assert_invariants(tri)
        else:
            assert set(tri.last_removed) == want
    return n_clipped


@contextlib.contextmanager
def checking_commits():
    """Hook the commit step: while the block runs, every cavity handed
    to ``retriangulate`` — by ``insert_point`` or by the refiner, which
    composes the three steps itself and so never passes through
    :func:`insert_checking_cavities` — must equal the oracle's cavity
    from the same seed, and its wrapped flag the oracle's scan.  The
    refiner's own commit is the circumcenter of
    the bad triangle in hand, which must die in that cavity: the
    worklist never comes back to it.  Yields the list of committed
    cavity sizes."""
    commit = cavity_module.retriangulate
    process = Refiner._process_bad_triangle
    sizes = []
    in_hand = []

    def checked(tri, vid, cavity, t0, wrapped):
        want, _ = oracle.carve(tri, tri._arr.point(vid), t0)
        assert cavity == want, f"cavity of vertex {vid} differs from the oracle's"
        assert wrapped == wrapped_edge(tri, cavity)
        sizes.append(len(cavity))
        commit(tri, vid, cavity, t0, wrapped)

    def checked_circumcenter(tri, vid, cavity, t0, wrapped):
        assert in_hand[-1] in cavity, (
            f"bad triangle {in_hand[-1]} outlives its circumcenter {vid}")
        checked(tri, vid, cavity, t0, wrapped)

    def processing(refiner, t, work):
        in_hand.append(t)
        try:
            process(refiner, t, work)
        finally:
            in_hand.pop()

    cavity_module.retriangulate = checked
    refine_module.retriangulate = checked_circumcenter
    Refiner._process_bad_triangle = processing
    try:
        yield sizes
    finally:
        cavity_module.retriangulate = refine_module.retriangulate = commit
        Refiner._process_bad_triangle = process


def needle_case(seed: int, n_probes: int = 12):
    """``(points, segments, probes)``: a small cloud with one to three
    *dangling* constrained needles, and insertion points crowded around
    their ends.

    A cavity can only reach both sides of a constrained edge by going
    round one of its ends, which a closed boundary never allows, so this
    is the corpus aimed at ``retriangulate``'s wrapped-edge branch
    (``prune_cavity_visibility`` + legalisation).  Clouds: uniform,
    log-graded (radius 1e-3..1), a far ring with nothing near the
    needles, a flat strip, a (jittered) lattice.  Needles: length
    1e-3..0.8 in disjoint vertical bands, any direction; one in four
    runs out to a hull vertex, one in five ends in a small closed
    triangle.  Probes: beyond an end and slightly off axis, alongside an
    end, behind the tail (offsets log-uniform 1e-6..1 needle lengths),
    or normally distributed around the tip.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 60))
    kind = int(rng.integers(5))
    if kind == 0:
        cloud = rng.uniform(-1, 1, size=(n, 2))
    elif kind in (1, 2):
        r = (10 ** rng.uniform(-3, 0, n) if kind == 1
             else rng.uniform(0.8, 1.0, n))
        a = rng.uniform(0, 2 * math.pi, n)
        cloud = np.column_stack([r * np.cos(a), r * np.sin(a)])
    elif kind == 3:
        cloud = np.column_stack([rng.uniform(-1, 1, n),
                                 rng.uniform(-0.02, 0.02, n)])
    else:
        k = int(rng.integers(3, 8))
        xs, ys = np.meshgrid(np.linspace(-1, 1, k), np.linspace(-1, 1, k))
        cloud = np.column_stack([xs.ravel(), ys.ravel()])
        cloud = cloud + rng.uniform(-1e-3, 1e-3, cloud.shape) * rng.integers(2)
    pts = cloud.tolist()
    segs, needles = [], []
    n_needles = int(rng.integers(1, 4))
    for j in range(n_needles):
        half = 0.8 / n_needles                 # band half-width
        x0 = -0.9 + 1.8 * (j + 0.5) / n_needles
        length = 10 ** rng.uniform(-3, math.log10(half))
        th = rng.uniform(0, 2 * math.pi)
        a = np.array([x0 + rng.uniform(-0.1, 0.1) * half,
                      rng.uniform(-0.5, 0.5)])
        d = np.array([math.cos(th), math.sin(th)])
        b = a + length * d
        if rng.random() < 0.25:                # tip becomes a hull vertex
            b = a + 3 * d
            if abs(b[0] - x0) > half:
                b = a + np.array([0.0, 3.0 if d[1] >= 0 else -3.0])
        ia, ib = len(pts), len(pts) + 1
        pts += [a.tolist(), b.tolist()]
        segs.append((ia, ib))
        needles.append((a, b))
        if rng.random() < 0.2:                 # closed island at the tip
            d = (b - a) / np.linalg.norm(b - a)
            side = length * rng.uniform(0.05, 0.5)
            nrm = np.array([-d[1], d[0]])
            pts += [(b + side * d + 0.5 * side * nrm).tolist(),
                    (b + side * d - 0.5 * side * nrm).tolist()]
            segs += [(ib, ib + 1), (ib + 1, ib + 2), (ib + 2, ib)]
    probes = []
    for _ in range(n_probes):
        a, b = needles[int(rng.integers(len(needles)))]
        length = float(np.linalg.norm(b - a))
        d = (b - a) / length
        nrm = np.array([-d[1], d[0]])
        off = 10 ** rng.uniform(-6, 0) * length * rng.choice([-1.0, 1.0])
        mode = int(rng.integers(4))
        if mode == 0:
            q = b + 10 ** rng.uniform(-6, 0.3) * length * d + off * nrm
        elif mode == 1:
            q = b - 10 ** rng.uniform(-6, 0) * length * d + off * nrm
        elif mode == 2:
            q = a - 10 ** rng.uniform(-6, 0) * length * d + off * nrm
        else:
            q = b + rng.normal(0, length, 2)
        probes.append((float(q[0]), float(q[1])))
    return np.array(pts), np.array(segs), probes


# ----------------------------------------------------------------------
# Uniform-random clouds
# ----------------------------------------------------------------------
class TestRandomClouds:
    @pytest.mark.parametrize("n,seed", [(24, 0), (64, 1), (64, 2)])
    def test_small_clouds_exhaustive(self, n, seed):
        pts = np.random.default_rng(seed).random((n, 2))
        assert_invariants(triangulate(pts), exhaustive=True)

    @pytest.mark.parametrize("n,seed", [(300, 3), (900, 4)])
    def test_larger_clouds(self, n, seed):
        pts = np.random.default_rng(seed).random((n, 2))
        assert_invariants(triangulate(pts))

    @pytest.mark.parametrize("seed", [5, 6, 7])
    def test_fast_matches_reference(self, seed):
        """Differential: the filtered carve == the exact oracle's
        cavity at every insertion."""
        pts = np.random.default_rng(seed).random((250, 2))
        tri = Triangulation()
        insert_checking_cavities(tri, pts)
        assert_invariants(tri)

    def test_clustered_and_duplicate_points(self):
        rng = np.random.default_rng(8)
        base = rng.random((60, 2))
        pts = np.vstack([base, base[:20] + 1e-13, base[:10]])
        tri = triangulate(pts)
        assert_invariants(tri, exhaustive=True)

    def test_cold_stream_without_hint_or_order(self):
        """The worst traffic the index-free walk can get: uniformly
        random points, arbitrary order, no hint — every walk starts at
        the previous insertion's fan and crosses O(sqrt(n)) triangles.
        It must still terminate inside the step cap and be exact."""
        tri = Triangulation()
        for x, y in np.random.default_rng(16).random((5000, 2)):
            tri.insert_point(x, y)
        assert tri.stat_inserts == 5000
        assert tri.stat_brute_locates == 0
        assert_invariants(tri)


# ----------------------------------------------------------------------
# Degenerate inputs: exact-predicate escalation paths
# ----------------------------------------------------------------------
class TestDegenerateInputs:
    def test_cocircular_ring_with_center(self):
        """All ring points cocircular: inserting the centre carves a
        cavity covering the whole disk — frontier levels far wider than
        any mesh workload's — exercising the exact incircle ties."""
        n = 40
        ang = 2 * math.pi * np.arange(n) / n
        ring = np.column_stack([np.cos(ang), np.sin(ang)])
        pts = np.vstack([ring, [[0.0, 0.0]]])
        tri = Triangulation()
        for x, y in pts[:-1]:
            tri.insert_point(x, y)
        tri.insert_point(0.0, 0.0)
        assert_invariants(tri, exhaustive=True)

    def test_grid_points(self):
        """Integer lattice: every 2x2 cell is cocircular."""
        xs, ys = np.meshgrid(np.arange(9.0), np.arange(9.0))
        pts = np.column_stack([xs.ravel(), ys.ravel()])
        assert_invariants(triangulate(pts), exhaustive=True)

    @pytest.mark.parametrize("case", ["lattice", "ring"])
    def test_degenerate_cavities_match_oracle(self, case):
        """Exact incircle ties: 9x9 lattice (every cell cocircular) and
        the 40-point ring + centre (one cavity covering the disk)."""
        if case == "lattice":
            xs, ys = np.meshgrid(np.arange(9.0), np.arange(9.0))
            pts = np.column_stack([xs.ravel(), ys.ravel()])
        else:
            ang = 2 * math.pi * np.arange(40) / 40
            pts = np.vstack([np.column_stack([np.cos(ang), np.sin(ang)]),
                             [[0.0, 0.0]]])
        tri = Triangulation()
        insert_checking_cavities(tri, pts)
        assert_invariants(tri, exhaustive=True)

    def test_collinear_prefix_then_cloud(self):
        pts = np.array([[float(i), 0.0] for i in range(12)]
                       + [[0.3, 1.0], [5.5, -2.0], [7.1, 0.7]])
        assert_invariants(triangulate(pts), exhaustive=True)


# ----------------------------------------------------------------------
# Constrained triangulations + refinement (fuzz PSLG corpus)
# ----------------------------------------------------------------------
class TestConstrainedInvariants:
    @given(poly=star_polygon())
    @settings(max_examples=25, deadline=None)
    def test_cdt_invariants(self, poly):
        n = len(poly)
        segs = np.array([(i, (i + 1) % n) for i in range(n)])
        tri = triangulate_pslg(poly, segs)
        assert len(tri.constraints) >= n
        assert_invariants(tri)

    @given(poly=star_polygon(min_v=5, max_v=10))
    @settings(max_examples=10, deadline=None)
    def test_refined_cdt_invariants(self, poly):
        """``refine_pslg``'s traffic: every circumcenter a cavity the
        oracle agrees with, every segment split an edge split, and the
        two together every Steiner point."""
        n = len(poly)
        segs = np.array([(i, (i + 1) % n) for i in range(n)])
        tri = triangulate_loops(poly, segs, ())
        span = float(np.ptp(poly, axis=0).max())
        refiner = Refiner(
            tri, criterion=AreaCriterion(lambda x, y: (span / 6) ** 2),
            min_edge_floor=span * 1e-3)
        split = refine_module.split_edge
        splits = []

        def counting(*args):
            splits.append(args[1:3])
            return split(*args)

        refine_module.split_edge = counting
        try:
            with checking_commits() as sizes:
                refiner.refine()
        finally:
            refine_module.split_edge = split
        assert len(sizes) + len(splits) == refiner.steiner_count
        assert_invariants(tri)
        assert_refinement_complete(refiner)

    def test_locked_border_subdomain_commits_match_oracle(self, monkeypatch):
        """The pipeline's refinement traffic: a decoupled subdomain with
        a pre-sized border that is never split, so every Steiner point
        is a circumcenter the refiner locates, carves and commits."""
        refiners = []
        refine = Refiner.refine

        def capturing(refiner):
            refiners.append(refiner)
            refine(refiner)

        monkeypatch.setattr(Refiner, "refine", capturing)
        side = np.linspace(0.0, 1.0, 9)[:-1]
        ring = np.concatenate([
            np.column_stack([side, np.zeros(8)]),
            np.column_stack([np.ones(8), side]),
            np.column_stack([1.0 - side, np.ones(8)]),
            np.column_stack([np.zeros(8), 1.0 - side])])
        with checking_commits() as sizes:
            mesh = refine_subdomain(DecoupledSubdomain(ring=ring),
                                    UniformSizing(0.004))
        n_steiner = mesh.n_points - len(ring)
        assert len(sizes) >= n_steiner > 50
        assert len(mesh.segments) == len(ring)
        (refiner,) = refiners
        assert_refinement_complete(refiner)

    def test_clipped_cavities_match_oracle(self):
        """A spiky constrained star: cavities stop at locked edges, and
        the fan of every clipped one is constrained Delaunay as built."""
        ang = 2 * math.pi * np.arange(14) / 14
        radii = np.where(np.arange(14) % 2 == 0, 10.0, 3.0)
        poly = np.column_stack([radii * np.cos(ang), radii * np.sin(ang)])
        segs = np.array([(i, (i + 1) % 14) for i in range(14)])
        tri = triangulate_pslg(poly, segs)
        cloud = np.random.default_rng(9).uniform(-9.0, 9.0, size=(120, 2))
        assert insert_checking_cavities(tri, cloud) > 0
        assert_invariants(tri)

    @given(poly=star_polygon(), seed=st.integers(0, 999))
    @settings(max_examples=25, deadline=None)
    def test_every_insertion_into_a_fuzz_pslg_leaves_a_cdt(self, poly, seed):
        """No legalisation pass: the star fan of each cavity, clipped or
        not, must already be constrained Delaunay — checked by the exact
        harness after every insertion, inside and outside the polygon."""
        n = len(poly)
        segs = np.array([(i, (i + 1) % n) for i in range(n)])
        tri = triangulate_pslg(poly, segs)
        flips = tri.stat_flips          # segment recovery's
        cloud = np.random.default_rng(seed).uniform(-10.0, 10.0, (30, 2))
        insert_checking_cavities(tri, cloud)
        assert tri.stat_flips == flips or tri.stat_visibility_prunes > 0

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=50, deadline=None)
    def test_dangling_needles_never_wrap_a_cavity(self, seed):
        """The corpus aimed at the wrapped-edge branch.  It is not known
        to be reachable (DESIGN.md, "Cavity engine": 2.4e5 insertions of
        this generator never entered it, and a cavity grown by ``carve``
        is star-shaped about its point); if an example ever does enter
        it, pin that example here as a regression case — the invariants
        below are then checked behind ``prune_cavity_visibility`` and
        the legalisation that follows it."""
        pts, segs, probes = needle_case(seed)
        tri = triangulate_pslg(pts, segs)
        flips = tri.stat_flips
        insert_checking_cavities(tri, probes)
        assert tri.stat_visibility_prunes == 0, f"needle_case({seed}) wraps a cavity"
        assert tri.stat_flips == flips, "an unpruned insertion flipped"

    @pytest.mark.parametrize("seed", range(8))
    def test_forced_wrapped_cavity_is_pruned_and_legalised(self, seed):
        """``carve`` never hands ``retriangulate`` a cavity holding both
        sides of a segment (the needle corpus above), so the guard is
        driven by hand: commit the *unconstrained* conflict region of a
        point beside a dangling needle.  The guard must cut it back to
        what the point sees and legalise the fan — through the same
        ``legalize_edges`` segment recovery uses — into a CDT."""
        rng = np.random.default_rng(seed)
        pts = np.vstack([rng.uniform(-1, 1, (40, 2)),
                         [(-0.3, 0.0), (0.3, 0.05)]])
        tri = triangulate_pslg(pts, np.array([(40, 41)]))
        (needle,) = tri.constraints
        p = (float(rng.uniform(-0.2, 0.2)), float(rng.uniform(0.03, 0.08)))
        tri.constraints = set()
        cavity, seed_t, _, _ = carve(tri, *p, tri.locate(p))
        tri.constraints = {needle}
        assert sum(set(needle) <= set(tri._arr.triangle(t))
                   for t in cavity) == 2, "the region misses the needle"
        assert wrapped_edge(tri, cavity)
        retriangulate(tri, tri._arr.new_point(*p), cavity, seed_t, True)
        assert tri.stat_visibility_prunes == 1
        assert_invariants(tri)

    def test_report_matches_the_scan_where_cavities_wrap(self):
        """``carve``'s ``wrapped`` flag where it is ``True``: on a
        triangulation whose coordinates were scrambled after it was
        built, the in-disk tests answer anything, so cavities go round
        segment ends — both sides of a segment joining the cavity in
        different levels, or in the same one, where neither side is a
        fresh candidate of the other.  The report must still be the
        oracles' (:func:`assert_boundary_report`), flag included."""
        n_wrapped = n_same_level = 0
        for seed in range(4):
            rng = np.random.default_rng(seed)
            tri = triangulate(rng.uniform(-1.0, 1.0, (40, 2)))
            live = real_triangles(tri)
            for t in live[::2]:
                a, b, _ = tri._arr.triangle(t)
                tri.mark_constraint(a, b)
            tri._arr.px[:80] = rng.uniform(-1.0, 1.0, 80).tolist()
            for t in rng.choice(live, 200).tolist():
                x, y = rng.uniform(-1.0, 1.0, 2).tolist()
                cavity, seed_t, segments, wrapped = carve(tri, x, y, t, True)
                assert_boundary_report(tri, cavity, seed_t, segments, wrapped)
                n_wrapped += wrapped
                n_same_level += wrapped and same_level_wrap(tri, cavity,
                                                            seed_t)
        assert n_wrapped > 20 and n_same_level > 0

    def test_locked_edges_survive_nearby_insertions(self):
        square = np.array([[0.0, 0.0], [4.0, 0.0], [4.0, 4.0], [0.0, 4.0],
                           [2.0, 1.0], [2.0, 3.0]])
        tri = Triangulation()
        ids = [tri.insert_point(x, y) for x, y in square]
        insert_segment(tri, ids[4], ids[5])
        tri.mark_constraint(ids[4], ids[5])
        rng = np.random.default_rng(11)
        for x, y in rng.uniform(0.05, 3.95, size=(80, 2)):
            # Skip points exactly on the locked segment's line.
            if x == 2.0:
                continue
            tri.insert_point(x, y)
        assert_invariants(tri)


# ----------------------------------------------------------------------
# Determinism (satellite: seeded RNG threading)
# ----------------------------------------------------------------------
class TestDeterminism:
    def test_identical_runs_byte_identical(self):
        pts = np.random.default_rng(13).random((500, 2))
        m1 = triangulate(pts).to_mesh()
        m2 = triangulate(pts).to_mesh()
        assert m1.points.tobytes() == m2.points.tobytes()
        assert m1.triangles.tobytes() == m2.triangles.tobytes()

    def test_seed_controls_insertion_order(self):
        pts = np.random.default_rng(14).random((200, 2))
        order = cavity_module.brio_order(pts, seed=1)
        assert np.array_equal(order, cavity_module.brio_order(pts, seed=1))
        assert not np.array_equal(order,
                                  cavity_module.brio_order(pts, seed=2))

    def test_insert_point_stream_deterministic(self):
        pts = np.random.default_rng(15).random((300, 2)).tolist()

        def build():
            tri = Triangulation(seed=99)
            for x, y in pts:
                tri.insert_point(x, y)
            return tri

        a, b = build()._arr, build()._arr
        assert np.array_equal(a.pts(), b.pts())
        assert np.array_equal(a.tri_v(), b.tri_v())
