"""Tests for the incremental Bowyer-Watson kernel."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.delaunay.cavity import insert_point, walk
from repro.delaunay.kernel import (
    GHOST, Triangulation, TriangulationError, delaunay_mesh, triangulate)
from repro.geometry.predicates import orient2d
from repro.geometry.primitives import polygon_area

from .oracle import check_integrity


def hull_area(points):
    from .oracle_hull import convex_hull

    h = convex_hull(points)
    if len(h) < 3:
        return 0.0
    return abs(polygon_area(points[h]))


#: Bulk-insertion clouds: name -> points from a generator.
CLOUDS = {
    "uniform": lambda rng: rng.uniform(0, 1, size=(500, 2)),
    "gaussian": lambda rng: rng.normal(size=(500, 2)),
    "anisotropic": lambda rng: rng.uniform(0, 1, (500, 2)) * [100.0, 1.0],
    "grid-jitter": lambda rng: (
        np.stack(np.meshgrid(np.arange(20.0), np.arange(20.0)),
                 axis=-1).reshape(-1, 2)
        + rng.normal(scale=1e-6, size=(400, 2))),
}


class TestBootstrap:
    def test_single_and_pair(self):
        t = Triangulation()
        t.insert_point(0, 0)
        t.insert_point(1, 0)
        assert t.n_live_triangles == 0

    def test_first_triangle(self):
        t = Triangulation()
        for p in [(0, 0), (1, 0), (0, 1)]:
            t.insert_point(*p)
        assert t.n_live_triangles == 4  # 1 real + 3 ghosts
        check_integrity(t)
        mesh = t.to_mesh()
        assert mesh.n_triangles == 1

    def test_collinear_prefix(self):
        t = Triangulation()
        for p in [(0, 0), (1, 0), (2, 0), (3, 0), (1, 1)]:
            t.insert_point(*p)
        check_integrity(t)
        mesh = t.to_mesh()
        assert mesh.n_points == 5
        assert mesh.is_conforming()
        assert mesh.delaunay_violations(respect_segments=False) == 0

    def test_all_collinear_no_triangles(self):
        t = Triangulation()
        for x in range(5):
            t.insert_point(x, 2 * x)
        assert t.n_live_triangles == 0

    def test_duplicate_points(self):
        t = Triangulation()
        a = t.insert_point(0, 0)
        b = t.insert_point(1, 0)
        c = t.insert_point(0, 1)
        assert t.insert_point(0, 0) == a
        assert t.insert_point(1, 0) == b
        assert t.insert_point(0, 1) == c


class TestInsertion:
    def test_interior_point(self):
        t = Triangulation()
        for p in [(0, 0), (4, 0), (0, 4), (1, 1)]:
            t.insert_point(*p)
        check_integrity(t)
        assert t.to_mesh().n_triangles == 3

    def test_point_on_edge(self):
        t = Triangulation()
        for p in [(0, 0), (4, 0), (0, 4)]:
            t.insert_point(*p)
        t.insert_point(2, 0)  # exactly on hull edge
        check_integrity(t)
        mesh = t.to_mesh()
        assert mesh.n_triangles == 2
        assert mesh.delaunay_violations(respect_segments=False) == 0

    def test_point_on_interior_edge(self):
        t = Triangulation()
        for p in [(0, 0), (4, 0), (0, 4), (4, 4)]:
            t.insert_point(*p)
        # (2, 2) lies exactly on the diagonal shared edge.
        t.insert_point(2, 2)
        check_integrity(t)
        mesh = t.to_mesh()
        assert mesh.n_triangles == 4
        assert mesh.delaunay_violations(respect_segments=False) == 0

    def test_outside_hull(self):
        t = Triangulation()
        for p in [(0, 0), (1, 0), (0, 1), (5, 5), (-3, 2), (2, -4)]:
            t.insert_point(*p)
            check_integrity(t)
        mesh = t.to_mesh()
        assert mesh.n_points == 6
        assert mesh.delaunay_violations(respect_segments=False) == 0
        # Area of triangulated region equals the convex hull area.
        assert np.abs(mesh.areas()).sum() == pytest.approx(
            hull_area(mesh.points), rel=1e-12
        )

    def test_collinear_extension_of_hull(self):
        t = Triangulation()
        for p in [(0, 0), (1, 0), (0, 1), (2, 0), (3, 0)]:
            t.insert_point(*p)
            check_integrity(t)
        mesh = t.to_mesh()
        assert mesh.n_triangles == 3


class TestRandomSets:
    @pytest.mark.parametrize("n,seed", [(20, 0), (100, 1), (400, 2)])
    def test_random_uniform_is_delaunay(self, n, seed):
        rng = np.random.default_rng(seed)
        pts = rng.uniform(-10, 10, size=(n, 2))
        tri = triangulate(pts)
        check_integrity(tri)
        mesh = tri.to_mesh()
        assert mesh.n_points == n
        assert mesh.is_conforming()
        assert mesh.delaunay_violations(respect_segments=False) == 0
        assert np.abs(mesh.areas()).sum() == pytest.approx(
            hull_area(mesh.points), rel=1e-9
        )
        assert np.all(mesh.areas() > 0)  # all CCW

    def test_matches_scipy_triangle_count(self):
        from scipy.spatial import Delaunay as SciPyDelaunay

        from repro.delaunay.kernel import delaunay_mesh

        rng = np.random.default_rng(7)
        pts = rng.uniform(0, 1, size=(200, 2))
        mesh = delaunay_mesh(pts)
        sp = SciPyDelaunay(pts)
        # For points in general position the DT is unique.
        ours = {tuple(sorted(t)) for t in mesh.triangles.tolist()}
        theirs = {tuple(sorted(t)) for t in sp.simplices.tolist()}
        assert ours == theirs

    def test_delaunay_mesh_equals_per_triangle_export(self):
        """The vectorised export against the per-triangle loop it
        replaced: duplicates map to their first input index, rows come
        in slot order."""
        from repro.delaunay.kernel import _triangulate_with_map, delaunay_mesh

        rng = np.random.default_rng(8)
        base = rng.uniform(0, 1, size=(150, 2))
        pts = np.vstack([base, base[rng.integers(0, 150, 40)]])
        pts = pts[rng.permutation(len(pts))]
        tri, inserted = _triangulate_with_map(pts)
        inv = {}
        for i, k in inserted.items():
            if k not in inv or i < inv[k]:
                inv[k] = i
        want = [[inv[v] for v in tri._arr.triangle(t)]
                for t in tri.live_triangles() if not tri.is_ghost(t)]
        mesh = delaunay_mesh(pts)
        assert mesh.triangles.dtype == np.int32
        assert mesh.triangles.tolist() == want

    def test_grid_cocircular(self):
        # Every 2x2 cell of a grid is cocircular: heavily degenerate.
        xs, ys = np.meshgrid(np.arange(8.0), np.arange(8.0))
        pts = np.column_stack([xs.ravel(), ys.ravel()])
        tri = triangulate(pts)
        check_integrity(tri)
        mesh = tri.to_mesh()
        assert mesh.n_points == 64
        # Triangulated area must tile the 7x7 square exactly.
        assert np.abs(mesh.areas()).sum() == pytest.approx(49.0, rel=1e-12)
        assert mesh.delaunay_violations(respect_segments=False) == 0
        assert mesh.n_triangles == 2 * 49  # Euler: 2*interior cells

    def test_sorted_insertion_mode(self):
        from repro.delaunay.dnc import triangulate_ordered

        rng = np.random.default_rng(11)
        pts = rng.uniform(0, 1, size=(150, 2))
        mesh = triangulate_ordered(pts, "sorted")
        assert mesh.delaunay_violations(respect_segments=False) == 0
        assert mesh.n_points == 150

    def test_clustered_points(self):
        rng = np.random.default_rng(13)
        cluster = rng.normal(0, 1e-6, size=(50, 2))
        spread = rng.uniform(-100, 100, size=(50, 2))
        pts = np.vstack([cluster, spread])
        mesh = triangulate(pts).to_mesh()
        assert mesh.delaunay_violations(respect_segments=False) == 0
        assert mesh.n_points == 100

    @pytest.mark.parametrize("cloud", sorted(CLOUDS))
    def test_bulk_cloud_exactly_delaunay(self, cloud):
        """Every interior edge of a bulk-inserted cloud passes the exact
        incircle test, on clouds the filters find hard: 100:1
        anisotropy and a lattice jittered by 1e-6."""
        pts = CLOUDS[cloud](np.random.default_rng(sorted(CLOUDS).index(cloud)))
        mesh = triangulate(pts).to_mesh()
        assert mesh.is_conforming()
        assert mesh.n_points == len(pts)
        assert mesh.delaunay_violations(respect_segments=False) == 0

    def test_bulk_duplicates_map_to_the_existing_vertex(self):
        rng = np.random.default_rng(3)
        base = rng.uniform(0, 1, size=(300, 2))
        pts = np.vstack([base, base[:50]])
        # The kernel dedups: one vertex per distinct coordinate.
        assert triangulate(pts)._arr.n_pts == 300
        # delaunay_mesh keeps the caller's indexing but triangles only
        # ever reference the first occurrence of a duplicate.
        mesh = delaunay_mesh(pts)
        assert mesh.n_points == 350
        assert int(mesh.triangles.max()) < 300


class TestLocate:
    def test_locate_inside(self):
        t = Triangulation()
        for p in [(0, 0), (4, 0), (0, 4)]:
            t.insert_point(*p)
        found = t.locate((1.0, 1.0))
        assert not t.is_ghost(found)

    def test_locate_outside_returns_ghost(self):
        t = Triangulation()
        for p in [(0, 0), (4, 0), (0, 4)]:
            t.insert_point(*p)
        found = t.locate((10.0, 10.0))
        assert t.is_ghost(found)

    def test_locate_empty_raises(self):
        with pytest.raises(TriangulationError):
            Triangulation().locate((0, 0))


def lattice(n=6):
    """n x n integer lattice, inserted row by row; vertex 0 is (0, 0)."""
    tri = Triangulation()
    for y in range(n):
        for x in range(n):
            tri.insert_point(float(x), float(y))
    return tri


def edge_signs(tri, t, p):
    """Exact orientation of ``p`` against each real directed edge of
    live triangle ``t`` (one sign for a ghost: its hull edge)."""
    arr = tri._arr
    tv = arr.triangle(t)
    assert tv is not None, f"triangle {t} is dead"
    if tri.is_ghost(t):
        u, v = tri.ghost_edge(t)
        return [orient2d(arr.point(u), arr.point(v), p)]
    return [orient2d(arr.point(tv[k - 2]), arr.point(tv[k - 1]), p)
            for k in range(3)]


QUERIES = {
    "interior": (2.3, 3.1),
    "on_edge": (2.5, 3.0),
    "on_vertex": (2.0, 3.0),
    "outside": (9.0, 2.5),
    "outside_collinear": (7.0, 0.0),
}


class TestWalkContract:
    """``walk`` is the one point location: what every caller relies on."""

    @pytest.mark.parametrize("hint", ["none", "dead", "out_of_range", "far"])
    @pytest.mark.parametrize("query", sorted(QUERIES))
    def test_closed_region_contains_point(self, query, hint):
        tri = lattice()
        p = QUERIES[query]
        h = {"none": -1, "dead": tri.last_removed[0], "out_of_range": 10**6,
             "far": tri._arr.vt[0]}[hint]
        if hint == "dead":
            assert tri._arr.triangle(h) is None
        t, certified = walk(tri, p[0], p[1], h)
        signs = edge_signs(tri, t, p)
        assert min(signs) >= 0
        if certified:
            assert min(signs) > 0
        assert tri.is_ghost(t) == query.startswith("outside")
        assert min(edge_signs(tri, tri.locate(p), p)) >= 0

    def test_strict_interior_is_certified(self):
        tri = lattice()
        assert walk(tri, 2.3, 3.1, -1)[1]
        assert walk(tri, 9.0, 2.5, -1)[1]
        assert not walk(tri, 2.5, 3.0, -1)[1]

    @pytest.mark.parametrize("query", ["interior", "on_edge", "outside"])
    def test_insert_with_located_hint_starts_cavity_there(self, query):
        tri = lattice()
        p = QUERIES[query]
        t = tri.locate(p)
        insert_point(tri, *p, t)
        assert t in tri.last_removed
        check_integrity(tri)

    def test_step_cap_exhaustion_takes_fallback(self, monkeypatch):
        tri = lattice()
        p = (4.5, 4.4)
        start = tri._arr.vt[0]
        # The cap is 4 * (n_live_triangles + 8) steps: shrink it to 4,
        # fewer than the walk across the lattice needs.
        monkeypatch.setattr(tri, "n_live_triangles", -7)
        t = walk(tri, p[0], p[1], start)[0]
        assert tri.stat_brute_locates == 1
        assert min(edge_signs(tri, t, p)) >= 0


class TestFlip:
    def test_flip_diagonal(self):
        t = Triangulation()
        ids = [t.insert_point(*p) for p in [(0, 0), (2, 0), (2, 2), (0, 2)]]
        # Find the diagonal edge and flip it.
        mesh_before = t.to_mesh()
        edges_before = {tuple(e) for e in mesh_before.edges().tolist()}
        flipped = False
        for tt in list(t.live_triangles()):
            if t.is_ghost(tt):
                continue
            for k in range(3):
                if t.edge_is_flippable(tt, k):
                    t.flip(tt, k)
                    flipped = True
                    break
            if flipped:
                break
        assert flipped
        check_integrity(t)
        edges_after = {tuple(e) for e in t.to_mesh().edges().tolist()}
        assert edges_before != edges_after
        assert len(edges_after) == len(edges_before)

    def test_flip_constrained_raises(self):
        t = Triangulation()
        for p in [(0, 0), (2, 0), (2, 2), (0, 2)]:
            t.insert_point(*p)
        for tt in t.live_triangles():
            if t.is_ghost(tt):
                continue
            for k in range(3):
                if t.edge_is_flippable(tt, k):
                    u, v = t._edge(tt, k)
                    t.mark_constraint(u, v)
                    with pytest.raises(TriangulationError):
                        t.flip(tt, k)
                    return
        pytest.fail("no flippable edge found")


class TestVertexStar:
    def test_star_of_interior_vertex(self):
        t = Triangulation()
        for p in [(0, 0), (4, 0), (0, 4), (4, 4), (2, 1.9)]:
            t.insert_point(*p)
        vid = 4
        star = t.triangles_around_vertex(vid)
        real = [s for s in star if not t.is_ghost(s)]
        assert len(real) == 4
        for s in star:
            assert vid in t._arr.triangle(s)

    def test_star_of_hull_vertex_includes_ghosts(self):
        t = Triangulation()
        for p in [(0, 0), (4, 0), (0, 4)]:
            t.insert_point(*p)
        star = t.triangles_around_vertex(0)
        assert any(t.is_ghost(s) for s in star)

    def test_vertex_without_triangle_has_empty_star(self):
        t = Triangulation()
        t.insert_point(0.0, 0.0)
        assert t._arr.vt[0] == -1
        assert t.triangles_around_vertex(0) == []
        assert not t.has_edge(0, 1)

    @pytest.mark.parametrize("stale", ["dead", "lacks_vertex"])
    def test_stale_hint_raises_naming_vertex_and_triangle(self, stale):
        t = lattice()
        arr = t._arr
        bad = (t.last_removed[0] if stale == "dead"
               else next(s for s in t.live_triangles()
                         if 0 not in arr.triangle(s)))
        arr.vt[0] = bad
        with pytest.raises(TriangulationError, match=f"vertex 0.*{bad}"):
            t.triangles_around_vertex(0)


class TestStrategyKeyword:
    """``strategy=`` survives for callers that still pass a name: the
    kernel inserts points one way, whatever it says."""

    @pytest.mark.parametrize("name", ["scalar", "batch"])
    def test_accepted_names_change_nothing(self, name):
        pts = np.random.default_rng(21).uniform(0, 1, size=(400, 2))
        got, want = triangulate(pts, strategy=name)._arr, triangulate(pts)._arr
        assert (got.px, got.tv, got.tn, got.vt, got.free) == (
            want.px, want.tv, want.tn, want.vt, want.free)

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="'nope'"):
            triangulate(np.zeros((3, 2)), strategy="nope")


class TestCheckIntegrity:
    def test_live_count_mismatch(self):
        t = lattice()
        check_integrity(t)
        t.n_live_triangles += 1
        with pytest.raises(TriangulationError, match="n_live_triangles"):
            check_integrity(t)

    @pytest.mark.parametrize("stale", ["dead", "lacks_vertex"])
    def test_stale_vertex_hint(self, stale):
        t = lattice()
        arr = t._arr
        arr.vt[7] = (t.last_removed[0] if stale == "dead"
                     else next(s for s in t.live_triangles()
                               if 7 not in arr.triangle(s)))
        with pytest.raises(TriangulationError, match="vertex 7 hints"):
            check_integrity(t)

    def test_holds_after_bulk_insertion(self):
        pts = np.random.default_rng(3).uniform(0.0, 1.0, size=(500, 2))
        check_integrity(triangulate(pts))


@given(
    pts=st.lists(
        st.tuples(
            st.floats(min_value=-50, max_value=50, allow_nan=False),
            st.floats(min_value=-50, max_value=50, allow_nan=False),
        ),
        min_size=3,
        max_size=40,
        unique=True,
    )
)
@settings(max_examples=60, deadline=None)
def test_property_always_delaunay_and_conforming(pts):
    arr = np.asarray(pts, dtype=float)
    tri = triangulate(arr)
    check_integrity(tri)
    mesh = tri.to_mesh()
    assert mesh.is_conforming()
    assert mesh.delaunay_violations(respect_segments=False) == 0
    if mesh.n_triangles:
        # Exact CCW orientation (float areas may round to 0 for slivers).
        from repro.geometry.predicates import orient2d

        for a, b, c in mesh.triangles:
            assert orient2d(mesh.points[a], mesh.points[b], mesh.points[c]) > 0
        assert np.abs(mesh.areas()).sum() == pytest.approx(
            hull_area(arr), rel=1e-9, abs=1e-12
        )
