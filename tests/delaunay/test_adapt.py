"""Local-operation adaptation: invariants, conformity, byte-identity.

Three layers of guarantees:

* **Operation invariants** (hypothesis-driven): whatever sequence of
  split/collapse/flip/smooth the adaptor applies to whatever metric,
  no triangle ever inverts (exact ``orient2d``), every constrained
  segment survives as a chain of mesh edges, and the kernel's own
  adjacency audit stays green.
* **Adaptation effectiveness**: adapting toward a metric raises the
  fraction of in-band metric edge lengths.
* **Refinement pins**: ``refine_pslg`` meshes, byte for byte.
* **Adapted-mesh pins**: whole ``adapt_loop`` / ``adapt_mesh`` outputs
  (hash, DOF, error, operation counts, conformity traces); the
  differential against the full-sweep flip oracle is
  ``test_adapt_flip.py``.
* **One region model**: ``adapt_mesh`` loads the mesh it is given, so a
  hole needs no seed, and a split of a hole's or the outer boundary's
  segment is an edge split next to a ghost.

Every pinned value is in ``tests/pins.json``; ``tests/pins.py`` builds
the cases.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.delaunay import (
    MeshAdaptor,
    adapt_mesh,
    refine_pslg,
    validate_mesh,
)
from repro.delaunay.adapt import HIGH_BAND, LOW_BAND
from repro.delaunay.constrained import load_mesh
from repro.delaunay.kernel import GHOST
from repro.geometry.predicates import orient2d
from repro.metric import MetricField, tensor

from .. import pins
from ..pins import SQUARE_SEGS, UNIT_SQUARE, mesh_hash, pin
from . import oracle_adapt
from .oracle import check_integrity


def square_mesh(max_area=0.02):
    return refine_pslg(UNIT_SQUARE.copy(), SQUARE_SEGS.copy(),
                       max_area=max_area)


def assert_no_inversion(tri):
    point = tri._arr.point
    for t in tri.live_triangles():
        tv = tri._arr.triangle(t)
        if tv is None or GHOST in tv:
            continue
        a, b, c = tv
        assert orient2d(point(a), point(b), point(c)) > 0


def assert_segments_survive(mesh, segments, original_points):
    """Every original constrained segment is covered by mesh edges.

    Splits may subdivide a segment, so membership is checked on the
    *endpoints*: both endpoints of each original segment still exist
    as mesh vertices, and the mesh's constrained-segment set covers a
    path between them along the original support line.
    """
    pts = mesh.points
    for u, v in segments:
        pu, pv = original_points[u], original_points[v]
        du = np.linalg.norm(pts - pu, axis=1)
        dv = np.linalg.norm(pts - pv, axis=1)
        assert du.min() < 1e-12, f"segment endpoint {pu} lost"
        assert dv.min() < 1e-12, f"segment endpoint {pv} lost"
    # All mesh segment endpoints lie on the original segment support.
    seg_pts = pts[np.unique(mesh.segments.ravel())]
    for p in seg_pts:
        on_any = False
        for u, v in segments:
            a, b = original_points[u], original_points[v]
            ab = b - a
            t = np.dot(p - a, ab) / np.dot(ab, ab)
            if -1e-12 <= t <= 1 + 1e-12:
                proj = a + t * ab
                if np.linalg.norm(p - proj) < 1e-9:
                    on_any = True
                    break
        assert on_any, f"segment vertex {p} off every original segment"


def metric_from_case(points, case, h_fine, h_coarse):
    x, y = points[:, 0], points[:, 1]
    if case == 0:      # horizontal band
        h = np.where(np.abs(y - 0.5) < 0.15, h_fine, h_coarse)
    elif case == 1:    # radial spot
        h = np.where(np.hypot(x - 0.5, y - 0.5) < 0.25, h_fine, h_coarse)
    elif case == 2:    # uniform coarse (drives collapses)
        h = np.full(len(points), h_coarse)
    else:              # uniform fine (drives splits)
        h = np.full(len(points), h_fine)
    return MetricField(points, tensor.identity(len(h), 1.0 / (h * h)))


class TestOperationInvariants:
    @given(
        case=st.integers(0, 3),
        h_fine=st.floats(0.03, 0.08),
        h_coarse=st.floats(0.2, 0.5),
        passes=st.integers(1, 3),
    )
    @settings(max_examples=12, deadline=None)
    def test_adapt_never_inverts_or_drops_segments(
            self, case, h_fine, h_coarse, passes):
        mesh = square_mesh()
        field = metric_from_case(mesh.points, case, h_fine, h_coarse)
        tri = load_mesh(mesh.points, mesh.triangles, mesh.segments)
        adaptor = MeshAdaptor(tri, field)
        adaptor.adapt(max_passes=passes)
        check_integrity(tri)
        assert_no_inversion(tri)
        out = adaptor.to_mesh()
        assert_segments_survive(out, mesh.segments, mesh.points)

    @given(data=st.data())
    @settings(max_examples=10, deadline=None)
    def test_individual_operations_preserve_invariants(self, data):
        """Random interleaving of raw split/collapse/flip calls."""
        mesh = square_mesh(max_area=0.05)
        field = MetricField.uniform(mesh.points, 0.15)
        tri = load_mesh(mesh.points, mesh.triangles, mesh.segments)
        adaptor = MeshAdaptor(tri, field)
        protected = adaptor._protected_vertices()
        for _ in range(20):
            edges = adaptor._edge_table()[0].tolist()
            if not edges:
                break
            i = data.draw(st.integers(0, len(edges) - 1))
            op = data.draw(st.integers(0, 2))
            u, v = edges[i]
            if op == 0:
                adaptor.split_edge(u, v)
            elif op == 1:
                adaptor.collapse_edge(u, v, protected)
            else:
                oracle_adapt.flip_edge(adaptor, u, v)
            check_integrity(tri)
            assert_no_inversion(tri)
        out = adaptor.to_mesh()
        assert_segments_survive(out, mesh.segments, mesh.points)

    def test_protect_segments_keeps_boundary_verbatim(self):
        mesh = square_mesh()
        field = MetricField.uniform(mesh.points, 0.02)  # wants splits
        adapted, _ = adapt_mesh(mesh, field, max_passes=2,
                                protect_segments=True)
        orig = {tuple(p) for p in
                mesh.points[np.unique(mesh.segments.ravel())]}
        new = {tuple(p) for p in
               adapted.points[np.unique(adapted.segments.ravel())]}
        assert new == orig


class TestAdaptationEffect:
    def test_conformity_improves_toward_band_metric(self):
        mesh = square_mesh()
        field = metric_from_case(mesh.points, 0, 0.04, 0.3)
        adapted, report = adapt_mesh(mesh, field, max_passes=4)
        assert report.conformity_after > report.conformity_before
        assert report.conformity_after > 0.8
        assert report.splits > 0 and report.collapses > 0
        assert adapted.is_conforming()
        assert np.all(adapted.areas() > 0)

    def test_uniform_fine_metric_refines(self):
        mesh = square_mesh(max_area=0.1)
        field = MetricField.uniform(mesh.points, 0.05)
        adapted, report = adapt_mesh(mesh, field, max_passes=3)
        assert adapted.n_points > mesh.n_points
        assert report.splits > 0

    def test_uniform_coarse_metric_coarsens(self):
        mesh = square_mesh(max_area=0.005)
        field = MetricField.uniform(mesh.points, 0.3)
        adapted, report = adapt_mesh(mesh, field, max_passes=3)
        assert adapted.n_points < mesh.n_points
        assert report.collapses > 0

    def test_holes_stay_empty(self):
        """The hole of the mesh is a hole of the loaded triangulation:
        no seed says so."""
        mesh = pins.holed_square()
        field = MetricField.uniform(mesh.points, 0.1)
        adapted, _ = adapt_mesh(mesh, field, max_passes=2)
        cents = adapted.points[adapted.triangles].mean(axis=1)
        inside = ((np.abs(cents[:, 0] - 0.5) < 0.1 - 1e-9)
                  & (np.abs(cents[:, 1] - 0.5) < 0.1 - 1e-9))
        assert not inside.any()
        assert np.abs(adapted.areas()).sum() == pytest.approx(0.96)


# ----------------------------------------------------------------------
# One region model: the mesh is loaded as it is
# ----------------------------------------------------------------------
def holed_square_mesh(side=4.0, hole=(1.5, 2.5), max_area=1.0):
    """A ``side`` square around a square hole spanning ``hole`` in x and
    y, refined without splitting a segment more than it must."""
    lo, hi = hole
    pts = np.array([(0, 0), (side, 0), (side, side), (0, side),
                    (lo, lo), (hi, lo), (hi, hi), (lo, hi)], dtype=float)
    segs = np.array([(0, 1), (1, 2), (2, 3), (3, 0),
                     (4, 5), (5, 6), (6, 7), (7, 4)])
    return refine_pslg(pts, segs, holes=[(2.0, 2.0)], max_area=max_area)


class TestLoadedMesh:
    def test_load_then_export_is_the_same_mesh(self):
        mesh = pins.holed_square()
        tri = load_mesh(mesh.points, mesh.triangles, mesh.segments)
        check_integrity(tri)
        out = tri.to_mesh()
        assert np.array_equal(out.points, mesh.points)
        assert np.array_equal(out.triangles, mesh.triangles)
        assert np.array_equal(out.segments, mesh.segments)

    def test_every_boundary_edge_is_a_constraint_with_a_ghost(self):
        """A mesh that lists no segments still has walls: its boundary
        edges become constraints, each bordered by a ghost."""
        mesh = pins.holed_square()
        tri = load_mesh(mesh.points, mesh.triangles, np.empty((0, 2)))
        boundary = {tuple(sorted(e)) for e in mesh.boundary_edges().tolist()}
        assert tri.constraints == boundary
        ghosts = [tri.ghost_edge(t) for t in tri.live_triangles()
                  if tri.is_ghost(t)]
        assert {tuple(sorted(e)) for e in ghosts} == boundary

    @pytest.mark.parametrize("edit, match", [
        (lambda t, s: (t[:, ::-1], s), "counter-clockwise"),
        (lambda t, s: (np.vstack([t, t[:1]]), s), "held by two triangles"),
        (lambda t, s: (t, np.vstack([s, [[0, 2]]])), "not an edge"),
        (lambda t, s: (t[:0], s), "no triangles"),
    ])
    def test_what_is_not_a_mesh_is_a_value_error(self, edit, match):
        mesh = pins.holed_square()
        tris, segs = edit(mesh.triangles.astype(np.int64),
                          mesh.segments.astype(np.int64))
        with pytest.raises(ValueError, match=match):
            load_mesh(mesh.points, tris, segs)

    def test_a_pinched_boundary_is_a_value_error(self):
        """Two triangles touching at one vertex: two boundary loops meet
        there, and no ghost ring can go round both."""
        pts = np.array([(0, 0), (1, 0), (0, 1), (-1, 0), (0, -1)], float)
        tris = np.array([(0, 1, 2), (0, 3, 4)])
        with pytest.raises(ValueError, match="vertex 0: two boundary"):
            load_mesh(pts, tris, np.empty((0, 2)))

    def test_hole_seeds_are_refused(self):
        mesh = pins.holed_square()
        field = MetricField.uniform(mesh.points, 0.1)
        with pytest.raises(ValueError, match="no hole seeds"):
            adapt_mesh(mesh, field, holes=[(0.5, 0.5)])

    @pytest.mark.parametrize("protect", [False, True])
    def test_split_of_hole_and_outer_segments_is_valid(self, protect):
        """A metric of spacing 0.15 splits every segment of the hole and
        of the outer square many times over (or, protected, none).  The
        split is an edge split beside a ghost: the mesh stays valid,
        the hole stays empty and the area stays 15."""
        mesh = holed_square_mesh()
        field = MetricField.uniform(mesh.points, 0.15)
        adapted, report = adapt_mesh(mesh, field, max_passes=3,
                                     protect_segments=protect)
        assert validate_mesh(adapted, check_delaunay=False).ok
        assert np.abs(adapted.areas()).sum() == pytest.approx(15.0)
        cents = adapted.points[adapted.triangles].mean(axis=1)
        assert not (np.abs(cents - 2.0) < 0.5).all(axis=1).any()
        def on_hole_and_outer(points):
            return ((np.abs(points - 2.0).max(axis=1) == 0.5).sum(),
                    ((points == 0.0) | (points == 4.0)).any(axis=1).sum())

        before, after = on_hole_and_outer(mesh.points), on_hole_and_outer(
            adapted.points)
        if protect:
            assert after == before
        else:
            # Side 1 and 4 at spacing 0.15: about 7 and 27 per side.
            assert after[0] >= 4 * 6 and after[1] >= 4 * 20 > before[1]


# ----------------------------------------------------------------------
# refine_pslg pins
# ----------------------------------------------------------------------
class TestByteIdentity:
    """``refine_pslg`` meshes (``tests/pins.py``), byte for byte: each
    refines the polygon its loops bound, un-locked."""

    def test_square_max_area(self):
        assert mesh_hash(pins.square_max_area()) == pin(
            "refine_pslg", "square_max_area")

    def test_lshape_area_fn(self):
        assert mesh_hash(pins.lshape_area_fn()) == pin(
            "refine_pslg", "lshape_area_fn")

    def test_thin_rect_quality_only(self):
        assert mesh_hash(pins.thin_rect_quality()) == pin(
            "refine_pslg", "thin_rect_quality")

    def test_holed_square(self):
        assert mesh_hash(pins.holed_square()) == pin(
            "refine_pslg", "holed_square")


# ----------------------------------------------------------------------
# Adapted meshes
# ----------------------------------------------------------------------
class TestAdaptedMeshPins:
    def test_shear_layer_loop(self, monkeypatch):
        """The perf ledger's seed-0 ``adapt_shear`` op (hash, size, DOF,
        error, operation counts, conformity traces; the frozen ledger
        reads ``delaunay.adapt.ops`` from the counts); every cycle's
        kernel passes ``check_integrity`` (live count, vertex hints)."""
        adapt = MeshAdaptor.adapt

        def checked(self, **kwargs):
            report = adapt(self, **kwargs)
            check_integrity(self.tri)
            return report

        monkeypatch.setattr(MeshAdaptor, "adapt", checked)
        assert pins.adapt_shear_pins(pins.adapt_shear()) == pin(
            "adapt_shear")

    @pytest.mark.parametrize("protect, digest, size, ops, conformity", [
        (protect, want["hash"], want["size"], want["ops"],
         want["conformity_after"])
        for protect, want in (
            (False, pin("holed_square_adapt", "free")),
            (True, pin("holed_square_adapt", "protected")))],
        ids=["free", "protected"])
    def test_holed_square_rotated_metric(self, protect, digest, size, ops,
                                         conformity):
        assert pins.holed_square_adapt(protect) == {
            "hash": digest, "size": size, "ops": ops,
            "conformity_after": conformity}
