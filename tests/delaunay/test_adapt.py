"""Local-operation adaptation: invariants, conformity, byte-identity.

Three layers of guarantees:

* **Operation invariants** (hypothesis-driven): whatever sequence of
  split/collapse/flip/smooth the adaptor applies to whatever metric,
  no triangle ever inverts (exact ``orient2d``), every constrained
  segment survives as a chain of mesh edges, and the kernel's own
  adjacency audit stays green.
* **Adaptation effectiveness**: adapting toward a metric raises the
  fraction of in-band metric edge lengths.
* **Differential byte-identity**: the size-criterion refactor of the
  refinement sizing contract keeps the area path *bit-identical* —
  pinned canonical hashes from the pre-refactor code must reproduce
  exactly.
* **Adapted-mesh pins**: whole ``adapt_loop`` / ``adapt_mesh`` outputs
  (hash, DOF, error, operation counts, conformity traces) recorded
  before the flip pass became a dirty-edge worklist; the differential
  against the full-sweep oracle is ``test_adapt_flip.py``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.delaunay import (
    MeshAdaptor,
    adapt_mesh,
    cavity,
    refine_pslg,
)
from repro.delaunay.adapt import HIGH_BAND, LOW_BAND
from repro.delaunay.constrained import triangulate_pslg
from repro.delaunay.kernel import GHOST
from repro.geometry.predicates import orient2d
from repro.metric import MetricField, tensor
from repro.runtime import serde
from repro.solver.adapt import ShearLayerProblem, adapt_loop

from . import oracle_adapt

UNIT_SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
SQUARE_SEGS = np.array([[0, 1], [1, 2], [2, 3], [3, 0]])


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
        tri = triangulate_pslg(mesh.points, mesh.segments)
        adaptor = MeshAdaptor(tri, field)
        adaptor.adapt(max_passes=passes)
        tri.check_integrity()
        assert_no_inversion(tri)
        out = adaptor.to_mesh()
        assert_segments_survive(out, mesh.segments, mesh.points)

    @given(data=st.data())
    @settings(max_examples=10, deadline=None)
    def test_individual_operations_preserve_invariants(self, data):
        """Random interleaving of raw split/collapse/flip calls."""
        mesh = square_mesh(max_area=0.05)
        field = MetricField.uniform(mesh.points, 0.15)
        tri = triangulate_pslg(mesh.points, mesh.segments)
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
            tri.check_integrity()
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
        pts = np.vstack([UNIT_SQUARE,
                         [[0.4, 0.4], [0.6, 0.4], [0.6, 0.6], [0.4, 0.6]]])
        segs = np.vstack([SQUARE_SEGS,
                          [[4, 5], [5, 6], [6, 7], [7, 4]]])
        mesh = refine_pslg(pts, segs, max_area=0.02,
                           holes=[(0.5, 0.5)])
        field = MetricField.uniform(mesh.points, 0.1)
        adapted, _ = adapt_mesh(mesh, field, holes=[(0.5, 0.5)],
                                max_passes=2)
        cents = adapted.points[adapted.triangles].mean(axis=1)
        inside = ((np.abs(cents[:, 0] - 0.5) < 0.1 - 1e-9)
                  & (np.abs(cents[:, 1] - 0.5) < 0.1 - 1e-9))
        assert not inside.any()


# ----------------------------------------------------------------------
# Differential byte-identity of the size-criterion refactor
# ----------------------------------------------------------------------
#: Canonical hashes pinned from the pre-refactor refinement code
#: (commit 946022f): the AreaCriterion default path must reproduce
#: these outputs byte for byte.
PINNED = {
    "square_max_area": (
        "7494fd968e968a061abf2531dc7981b4ca8342734c6ae26200bb767ff2767815"),
    "lshape_area_fn": (
        "6449ee1a2c65301e4a23ccf4ce2fc401b325d8f4545a1c2d8fab1dbaf07d7645"),
    "thin_rect_quality": (
        "f325e6c1a57f96a9a960633a66ca2eff0eedde421bc2ddda2d9499a4b5126659"),
    "holed_square": (
        "b361060858fad0e6d1bb610309071fd3b3ee266248ef0577a8cd7e7cba7e0312"),
}


def mesh_hash(mesh):
    return serde.canonical_hash(serde.pack_mesh(mesh))


class TestByteIdentity:
    def test_square_max_area(self):
        mesh = refine_pslg(UNIT_SQUARE.copy(), SQUARE_SEGS.copy(),
                           max_area=0.01)
        assert mesh_hash(mesh) == PINNED["square_max_area"]

    def test_lshape_area_fn(self):
        pts = np.array([[0.0, 0.0], [2.0, 0.0], [2.0, 1.0],
                        [1.0, 1.0], [1.0, 2.0], [0.0, 2.0]])
        segs = np.array([[0, 1], [1, 2], [2, 3], [3, 4], [4, 5], [5, 0]])
        mesh = refine_pslg(
            pts, segs, area_fn=lambda x, y: 0.002 + 0.05 * (x * x + y * y))
        assert mesh_hash(mesh) == PINNED["lshape_area_fn"]

    def test_thin_rect_quality_only(self):
        pts = np.array([[0.0, 0.0], [10.0, 0.0], [10.0, 1.0], [0.0, 1.0]])
        segs = np.array([[0, 1], [1, 2], [2, 3], [3, 0]])
        mesh = refine_pslg(pts, segs)
        assert mesh_hash(mesh) == PINNED["thin_rect_quality"]

    def test_holed_square(self):
        pts = np.vstack([UNIT_SQUARE,
                         [[0.4, 0.4], [0.6, 0.4], [0.6, 0.6], [0.4, 0.6]]])
        segs = np.vstack([SQUARE_SEGS,
                          [[4, 5], [5, 6], [6, 7], [7, 4]]])
        mesh = refine_pslg(pts, segs, max_area=0.02, holes=[(0.5, 0.5)])
        assert mesh_hash(mesh) == PINNED["holed_square"]


# ----------------------------------------------------------------------
# Adapted meshes, pinned at commit c676863 (full-sweep flip pass)
# ----------------------------------------------------------------------
def holed_square_mesh():
    pts = np.vstack([UNIT_SQUARE,
                     [[0.4, 0.4], [0.6, 0.4], [0.6, 0.6], [0.4, 0.6]]])
    segs = np.vstack([SQUARE_SEGS, [[4, 5], [5, 6], [6, 7], [7, 4]]])
    return refine_pslg(pts, segs, max_area=0.02, holes=[(0.5, 0.5)])


def rotated_metric(points, theta, h_across, h_along):
    """Constant analytic metric: spacing ``h_across`` along the
    direction at angle ``theta``, ``h_along`` normal to it."""
    c, s = np.cos(theta), np.sin(theta)
    l1, l2 = 1.0 / (h_across * h_across), 1.0 / (h_along * h_along)
    tensors = np.empty((len(points), 3))
    tensors[:, 0] = l1 * c * c + l2 * s * s
    tensors[:, 1] = (l1 - l2) * c * s
    tensors[:, 2] = l1 * s * s + l2 * c * c
    return MetricField(points, tensors)


class TestAdaptedMeshPins:
    @pytest.mark.skipif(
        cavity.DEFAULT_STRATEGY != "scalar",
        reason="cycle 2 re-triangulates 456 vertices: past its 120-point "
               "scalar bootstrap `batch` numbers the start triangulation "
               "differently, and every later operation follows from it")
    def test_shear_layer_loop(self, monkeypatch):
        """The perf ledger's seed-0 ``adapt_shear`` op; every cycle's
        kernel passes ``check_integrity`` (live count, vertex hints)."""
        adapt = MeshAdaptor.adapt

        def checked(self, **kwargs):
            report = adapt(self, **kwargs)
            self.tri.check_integrity()
            return report

        monkeypatch.setattr(MeshAdaptor, "adapt", checked)
        result = adapt_loop(square_mesh(),
                            problem=ShearLayerProblem(0.05, 0.1),
                            cycles=2, eps=4e-2, h_min=1e-3, h_max=0.3)
        assert mesh_hash(result.mesh) == (
            "84c17f882cf7277b97a4430dfe130252062ca705e6a7e4b9aa3bc1b6551ca46a")
        assert (result.mesh.n_points, result.mesh.n_triangles) == (353, 618)
        assert [c.dof for c in result.history] == [42, 456, 353]
        assert result.error == 0.017987992463276273
        first, second = (c.report for c in result.history[1:])
        assert (first.splits, first.collapses, first.flips,
                first.smooth_moves) == (507, 93, 298, 767)
        assert (second.splits, second.collapses, second.flips,
                second.smooth_moves) == (399, 502, 697, 757)
        assert first.conformity_trace == [
            0.14594594594594595, 0.7407407407407407, 0.9545804464973057]
        assert second.conformity_trace == [
            0.67018779342723, 0.8170212765957446, 0.856701030927835]
        # The frozen ledger reads delaunay.adapt.ops from these fields.
        assert sum(r.splits + r.collapses + r.flips + r.smooth_moves
                   for r in (first, second)) == 4020

    # 53 vertices: inside `batch`'s scalar bootstrap, so these two hold
    # under either session strategy.
    @pytest.mark.parametrize("protect, digest, size, ops, conformity", [
        (False,
         "f8c946f430bda42ac0f0c815a1b2fb4831482228c3aba08588354cc0b8980f8e",
         (200, 288), (209, 62, 493, 235), 0.9569672131147541),
        (True,
         "156cfaec9c5690e986ceba3a16d34f918e6a4e8ffa05195138d7d9af5211d1d6",
         (159, 290), (201, 95, 457, 320), 0.6636971046770601),
    ])
    def test_holed_square_rotated_metric(self, protect, digest, size, ops,
                                         conformity):
        mesh = holed_square_mesh()
        field = rotated_metric(mesh.points, 0.6, 0.03, 0.25)
        adapted, report = adapt_mesh(mesh, field, holes=[(0.5, 0.5)],
                                     max_passes=3, protect_segments=protect)
        assert mesh_hash(adapted) == digest
        assert (adapted.n_points, adapted.n_triangles) == size
        assert (report.splits, report.collapses, report.flips,
                report.smooth_moves) == ops
        assert report.conformity_after == conformity
