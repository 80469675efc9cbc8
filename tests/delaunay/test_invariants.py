"""Invariant harness for the Delaunay kernel.

Every optimisation in the insertion path (inlined filtered predicates,
certified walks, batched cavity expansion, grid-seeded location) must be
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

The same harness runs over uniform-random clouds, degenerate (cocircular
/ collinear-heavy) inputs, and the fuzz PSLG corpus; a differential test
pins ``cavity.carve`` to the exact oracle (:mod:`.oracle`) cavity for
cavity, at every insertion.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings

from repro.delaunay.cavity import carve
from repro.delaunay.constrained import insert_segment, triangulate_pslg
from repro.delaunay.kernel import Triangulation, triangulate
from repro.delaunay.refine import Refiner
from repro.geometry.predicates import incircle, orient2d

from . import oracle
from .test_fuzz_pslg import star_polygon


# ----------------------------------------------------------------------
# The harness
# ----------------------------------------------------------------------
def real_triangles(tri: Triangulation):
    return [t for t in tri.live_triangles() if not tri.is_ghost(t)]


def assert_positive_orientation(tri: Triangulation) -> None:
    for t in real_triangles(tri):
        a, b, c = tri.tri_v[t]
        assert orient2d(tri.pts[a], tri.pts[b], tri.pts[c]) > 0, (
            f"triangle {t} not positively oriented"
        )


def assert_locally_delaunay(tri: Triangulation) -> None:
    """Every internal non-constrained edge is locally Delaunay (exact).

    By the Delaunay lemma this implies the global (constrained) Delaunay
    property; cocircular configurations (incircle == 0) are legal.
    """
    pts = tri.pts
    constraints = tri.constraints
    for t in real_triangles(tri):
        tv = tri.tri_v[t]
        tn = tri.tri_n[t]
        for k in range(3):
            nb = tn[k]
            if nb < t or tri.is_ghost(nb):
                continue  # each internal edge once; hull edges skipped
            u, v = tv[k - 2], tv[k - 1]
            if ((u, v) if u < v else (v, u)) in constraints:
                continue
            nv = tri.tri_v[nb]
            apex = nv[0] + nv[1] + nv[2] - u - v
            assert incircle(pts[tv[0]], pts[tv[1]], pts[tv[2]],
                            pts[apex]) <= 0, (
                f"edge ({u},{v}) of triangle {t} not locally Delaunay"
            )


def assert_globally_delaunay(tri: Triangulation) -> None:
    """Exhaustive check: no vertex strictly inside any circumcircle.

    O(n_vertices * n_triangles) exact tests — small inputs only.
    """
    pts = tri.pts
    for t in real_triangles(tri):
        a, b, c = tri.tri_v[t]
        pa, pb, pc = pts[a], pts[b], pts[c]
        for v in range(len(pts)):
            if v == a or v == b or v == c:
                continue
            assert incircle(pa, pb, pc, pts[v]) <= 0, (
                f"vertex {v} strictly inside circumcircle of triangle {t}"
            )


def assert_constraints_preserved(tri: Triangulation) -> None:
    for u, v in tri.constraints:
        assert tri.has_edge(u, v), f"locked edge ({u},{v}) missing"


def assert_invariants(tri: Triangulation, *, exhaustive: bool = False
                      ) -> None:
    tri.check_integrity()
    assert_positive_orientation(tri)
    assert_locally_delaunay(tri)
    assert_constraints_preserved(tri)
    if exhaustive:
        assert_globally_delaunay(tri)


def insert_checking_cavities(tri: Triangulation, points) -> int:
    """Insert ``points`` one at a time; before each insertion the
    production carve must equal the oracle's cavity, and set ``blocked``
    whenever a constraint truly clipped it.  Returns how many cavities
    were clipped."""
    n_clipped = 0
    for x, y in points:
        p = (float(x), float(y))
        if tri.n_live_triangles == 0:
            tri.insert_point(*p)
            continue
        t = tri.locate(p)
        if tri.find_vertex_at(p, t) is not None:
            continue
        t0 = oracle.seed(tri, t, p)
        want, clipped = oracle.carve(tri, p, t0)
        got, blocked = carve(tri, p[0], p[1], t0)
        assert got == want, f"cavity of {p} differs from the oracle's"
        assert blocked or not clipped, f"clipped cavity of {p} not flagged"
        n_clipped += clipped
        tri.insert_point(*p, hint=t)
        if not tri.constraints:
            assert set(tri.last_removed) == want
    return n_clipped


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
        """Differential: the filtered, batched carve == the exact
        oracle's cavity at every insertion."""
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


# ----------------------------------------------------------------------
# Degenerate inputs: exact-predicate escalation paths
# ----------------------------------------------------------------------
class TestDegenerateInputs:
    def test_cocircular_ring_with_center(self):
        """All ring points cocircular: inserting the centre carves a
        cavity covering the whole disk, exercising the batched cavity
        expansion and the exact incircle ties."""
        n = 40
        ang = 2 * math.pi * np.arange(n) / n
        ring = np.column_stack([np.cos(ang), np.sin(ang)])
        pts = np.vstack([ring, [[0.0, 0.0]]])
        tri = Triangulation()
        for x, y in pts[:-1]:
            tri.insert_point(x, y)
        tri.insert_point(0.0, 0.0)
        assert tri.stat_batch_entries > 0, "batched expansion never used"
        assert_invariants(tri, exhaustive=True)

    def test_grid_points(self):
        """Integer lattice: every 2x2 cell is cocircular."""
        xs, ys = np.meshgrid(np.arange(9.0), np.arange(9.0))
        pts = np.column_stack([xs.ravel(), ys.ravel()])
        assert_invariants(triangulate(pts), exhaustive=True)

    @pytest.mark.parametrize("case", ["lattice", "ring"])
    def test_degenerate_cavities_match_oracle(self, case):
        """Exact incircle ties: 9x9 lattice (every cell cocircular) and
        the 40-point ring + centre (one cavity covering the disk, decided
        by the batched expansion)."""
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
        n = len(poly)
        segs = np.array([(i, (i + 1) % n) for i in range(n)])
        tri = triangulate_pslg(poly, segs)
        span = float(np.ptp(poly, axis=0).max())
        refiner = Refiner(tri, area_fn=lambda x, y: (span / 6) ** 2,
                          min_edge_floor=span * 1e-3)
        refiner.refine()
        assert_invariants(tri)

    def test_clipped_cavities_match_oracle(self):
        """A spiky constrained star: cavities stop at locked edges, and
        every truly clipped one is flagged for legalisation."""
        ang = 2 * math.pi * np.arange(14) / 14
        radii = np.where(np.arange(14) % 2 == 0, 10.0, 3.0)
        poly = np.column_stack([radii * np.cos(ang), radii * np.sin(ang)])
        segs = np.array([(i, (i + 1) % 14) for i in range(14)])
        tri = triangulate_pslg(poly, segs)
        cloud = np.random.default_rng(9).uniform(-9.0, 9.0, size=(120, 2))
        assert insert_checking_cavities(tri, cloud) > 0
        assert_invariants(tri)

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
        a = triangulate(pts, seed=1)
        b = triangulate(pts, seed=1)
        assert [tuple(v) for v in a.tri_v if v] == \
               [tuple(v) for v in b.tri_v if v]

    def test_insert_point_stream_deterministic(self):
        pts = np.random.default_rng(15).random((300, 2)).tolist()

        def build():
            tri = Triangulation(seed=99)
            for x, y in pts:
                tri.insert_point(x, y)
            return tri

        t1, t2 = build(), build()
        assert t1.pts == t2.pts
        assert [v for v in t1.tri_v if v] == [v for v in t2.tri_v if v]
