"""The worklist flip pass against the full-sweep oracle.

``MeshAdaptor.flip_pass`` scores an edge only after one of its two
triangles changed; ``oracle_adapt.flip_pass`` is the pass it replaced,
which scores every interior edge in every sweep.  Both must flip the
same edges, in the same order, in the same sweeps — the adapted mesh's
bytes follow from that — and the allocation-free quality routine must
return the oracle's float.  The count gates hold the point of the
rewrite: scoring work proportional to what changed.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.delaunay import MeshAdaptor, refine_pslg
from repro.delaunay import adapt as adapt_module
from repro.delaunay.adapt import FLIP_MAX_SWEEPS, FLIP_TOL
from repro.delaunay.arrays import MeshArrays
from repro.delaunay.constrained import triangulate_pslg
from repro.delaunay.kernel import GHOST
from repro.metric import MetricField
from repro.runtime import counters
from repro.solver.adapt import ShearLayerProblem, adapt_loop

from ..pins import mesh_hash
from . import oracle_adapt

UNIT_SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
SQUARE_SEGS = np.array([[0, 1], [1, 2], [2, 3], [3, 0]])
HOLE = np.array([[0.4, 0.4], [0.6, 0.4], [0.6, 0.6], [0.4, 0.6]])
HOLE_SEGS = np.array([[4, 5], [5, 6], [6, 7], [7, 4]])


def start_mesh(max_area, holed):
    if holed:
        return refine_pslg(np.vstack([UNIT_SQUARE, HOLE]),
                           np.vstack([SQUARE_SEGS, HOLE_SEGS]),
                           max_area=max_area, holes=[(0.5, 0.5)])
    return refine_pslg(UNIT_SQUARE.copy(), SQUARE_SEGS.copy(),
                       max_area=max_area)


def banded_metric(points, theta, h_fine, ratio):
    """Spacing ``h_fine`` along direction ``theta`` inside a band through
    the centre and ``4 * h_fine`` outside it; ``ratio`` times that along
    the band."""
    c, s = math.cos(theta), math.sin(theta)
    across = (points[:, 0] - 0.5) * c + (points[:, 1] - 0.5) * s
    h1 = np.where(np.abs(across) < 0.15, h_fine, 4.0 * h_fine)
    l1, l2 = 1.0 / (h1 * h1), 1.0 / (ratio * h1) ** 2
    tensors = np.column_stack([l1 * c * c + l2 * s * s,
                               (l1 - l2) * c * s,
                               l1 * s * s + l2 * c * c])
    return MetricField(points, tensors)


def make_adaptor(mesh, field, holed, protect):
    tri = triangulate_pslg(mesh.points, mesh.segments)
    return MeshAdaptor(tri, field, holes=[(0.5, 0.5)] if holed else (),
                       protect_segments=protect)


def logged_flip_pass(adaptor):
    """Run the production pass; returns the edges each sweep flipped.

    The pass bumps ``report.flip_sweeps`` when a sweep begins, so the
    kernel's ``flip`` can tell which sweep called it.
    """
    tri = adaptor.tri
    first = adaptor.report.flip_sweeps
    log = []

    def spy(t1, k1):
        u, v = tri._edge(t1, k1)
        log.append((adaptor.report.flip_sweeps - first - 1,
                    (u, v) if u < v else (v, u)))
        return kernel_flip(t1, k1)

    kernel_flip, tri.flip = tri.flip, spy
    try:
        adaptor.flip_pass()
    finally:
        del tri.flip
    sweeps = [[] for _ in range(adaptor.report.flip_sweeps - first)]
    for sweep, edge in log:
        sweeps[sweep].append(edge)
    return sweeps


def still_improvable(adaptor):
    """Edges a further sweep would flip, by the oracle's arithmetic."""
    tri = adaptor.tri
    tensors = oracle_adapt.vertex_tensors(adaptor)
    out = []
    for u, v in oracle_adapt.interior_edges(adaptor):
        if (u, v) in tri.constraints:
            continue
        sides = list(adaptor._edge_sides(u, v))
        if len(sides) != 2 or GHOST in (sides[0][1], sides[1][1]):
            continue
        (t1, a), (t2, b) = sides
        if adaptor._is_interior(t1) != adaptor._is_interior(t2):
            continue
        q_now = min(
            oracle_adapt.metric_quality(adaptor, *tri._arr.triangle(t1),
                                        tensors),
            oracle_adapt.metric_quality(adaptor, *tri._arr.triangle(t2),
                                        tensors))
        q_new = min(oracle_adapt.metric_quality(adaptor, a, u, b, tensors),
                    oracle_adapt.metric_quality(adaptor, b, v, a, tensors))
        if (q_new > q_now + FLIP_TOL
                and tri.edge_is_flippable(t1,
                                          tri._arr.triangle(t1).index(a))):
            out.append((u, v))
    return out


class TestAgainstFullSweepOracle:
    @given(
        theta=st.floats(0.0, math.pi),
        ratio=st.sampled_from([1.0, 3.0, 30.0, 1e3]),
        h_fine=st.floats(0.03, 0.08),
        max_area=st.sampled_from([0.05, 0.02, 0.008]),
        holed=st.booleans(),
        protect=st.booleans(),
    )
    @settings(max_examples=15, deadline=None)
    def test_same_flips_same_sweeps_same_bytes(
            self, theta, ratio, h_fine, max_area, holed, protect):
        mesh = start_mesh(max_area, holed)
        field = banded_metric(mesh.points, theta, h_fine, ratio)
        new = make_adaptor(mesh, field, holed, protect)
        old = make_adaptor(mesh, field, holed, protect)
        for _ in range(2):
            for adaptor in (new, old):
                adaptor.split_pass()
                adaptor.collapse_pass()
            assert mesh_hash(new.to_mesh()) == mesh_hash(old.to_mesh())
            # Snapshots from the flat arrays == the per-triangle scans.
            assert (list(map(tuple, new._edge_table()[0].tolist()))
                    == oracle_adapt.interior_edges(new))
            assert (new._protected_vertices()
                    == oracle_adapt.protected_vertices(new))
            assert np.array_equal(new._vertex_tensors(),
                                  oracle_adapt.vertex_tensors(new))

            edges = len(new._edge_table()[0])
            before = (new.report.flip_evaluations, new.report.flips)
            got = logged_flip_pass(new)
            want = []
            oracle_adapt.flip_pass(old, log=want)
            assert got == want
            assert mesh_hash(new.to_mesh()) == mesh_hash(old.to_mesh())
            a, b = new.tri._arr, old.tri._arr
            assert np.array_equal(a.vertex_tri(), b.vertex_tri())

            # Count gate: every edge once, then <= 5 edges per flip.
            evaluations = new.report.flip_evaluations - before[0]
            flips = new.report.flips - before[1]
            assert flips == sum(map(len, want))
            assert evaluations <= edges + 5 * flips
            # Fixpoint: a missed dirty edge is still improvable.
            if len(got) < FLIP_MAX_SWEEPS or not got[-1]:
                assert still_improvable(new) == []

            for adaptor in (new, old):
                adaptor.smooth_pass()
            assert mesh_hash(new.to_mesh()) == mesh_hash(old.to_mesh())
            assert new.conformity() == old.conformity()
            new.tri.check_integrity()

    def test_sweep_cap_is_reported(self, monkeypatch):
        """One sweep allowed where several are needed: the pass stops
        after it, like the oracle, and says so."""
        monkeypatch.setattr(adapt_module, "FLIP_MAX_SWEEPS", 1)
        mesh = start_mesh(0.02, False)
        field = banded_metric(mesh.points, 0.6, 0.04, 30.0)
        new = make_adaptor(mesh, field, False, False)
        old = make_adaptor(mesh, field, False, False)
        for adaptor in (new, old):
            adaptor.split_pass()
            adaptor.collapse_pass()
        want = []
        oracle_adapt.flip_pass(old, max_sweeps=1, log=want)
        assert want[0], "case must flip in its first sweep"
        with counters.use_counters() as sink:
            assert logged_flip_pass(new) == want
            assert (new.flip_sweep_caps, new.report.flip_sweeps) == (1, 1)
            new.adapt(max_passes=0)
        assert sink.events["adapt_flip_sweep_cap"] == 1
        assert mesh_hash(new.to_mesh()) == mesh_hash(old.to_mesh())


class TestMetricQuality:
    @staticmethod
    def both(points, tensors):
        """(production, oracle) quality of triangle (0, 1, 2)."""

        class Stub:
            pass

        stub = Stub()
        stub.tri = Stub()
        stub.tri._arr = MeshArrays()
        for x, y in points:
            stub.tri._arr.new_point(x, y)
        got = adapt_module._metric_quality(
            [c for p in points for c in p], [list(t) for t in tensors],
            0, 1, 2)
        with np.errstate(all="ignore"):
            want = oracle_adapt.metric_quality(
                stub, 0, 1, 2, np.asarray(tensors, dtype=np.float64))
        return got, want

    coordinate = st.floats(-10.0, 10.0) | st.sampled_from([0.0, 0.5, 1.0])
    #: any symmetric row: definite, semi-definite, indefinite, negative.
    tensor_row = st.tuples(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6),
                           st.floats(-1e6, 1e6))

    @given(points=st.lists(st.tuples(coordinate, coordinate),
                           min_size=3, max_size=3),
           tensors=st.lists(tensor_row, min_size=3, max_size=3))
    @settings(max_examples=300, deadline=None)
    def test_equals_array_formulation_on_any_input(self, points, tensors):
        got, want = self.both(points, tensors)
        assert isinstance(got, float)
        assert got == float(want)

    @given(
        points=st.lists(st.tuples(coordinate, coordinate),
                        min_size=3, max_size=3),
        theta=st.floats(0.0, math.pi),
        lam=st.lists(st.tuples(st.floats(1.0, 1e8), st.floats(1.0, 1e6)),
                     min_size=3, max_size=3),
    )
    @settings(max_examples=300, deadline=None)
    def test_equals_array_formulation_on_spd_metrics(self, points, theta,
                                                     lam):
        """Anisotropy up to 1e3 (eigenvalue ratio 1e6), either
        orientation, degenerate and inverted triangles included."""
        c, s = math.cos(theta), math.sin(theta)
        tensors = [(l1 * c * c + l1 / r * s * s, (l1 - l1 / r) * c * s,
                    l1 * s * s + l1 / r * c * c) for l1, r in lam]
        for rotation in (points, points[1:] + points[:1], points[::-1]):
            got, want = self.both(rotation, tensors)
            assert got == float(want)

    def test_guards(self):
        unit = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]
        eye = [(1.0, 0.0, 1.0)] * 3
        assert self.both(unit, eye)[0] > 0.8
        assert self.both(unit[::-1], eye) == (0.0, 0.0)            # inverted
        assert self.both([(0.0, 0.0), (1.0, 1.0), (2.0, 2.0)],
                         eye) == (0.0, 0.0)                        # zero area
        assert self.both(unit, [(1.0, 1.0, 1.0)] * 3) == (0.0, 0.0)  # det = 0
        assert self.both(unit, [(1.0, 2.0, 1.0)] * 3) == (0.0, 0.0)  # det < 0
        equilateral = [(0.0, 0.0), (1.0, 0.0), (0.5, math.sqrt(0.75))]
        assert self.both(equilateral, eye)[0] == pytest.approx(1.0)


# ----------------------------------------------------------------------
# The pinned ledger problem: scoring work, not wall time
# ----------------------------------------------------------------------
LOOP = dict(problem=ShearLayerProblem(0.05, 0.1), cycles=2, eps=4e-2,
            h_min=1e-3, h_max=0.3)


@pytest.fixture(scope="module")
def shear_reports():
    mesh = refine_pslg(UNIT_SQUARE.copy(), SQUARE_SEGS.copy(), max_area=0.02)
    with counters.use_counters() as sink:
        result = adapt_loop(mesh, **LOOP)
    return [c.report for c in result.history[1:]], sink


class TestScoringWork:
    def test_evaluations_follow_flips(self, shear_reports):
        """The full-sweep pass scored 22 778 edges for the same 995
        flips in the same 27 sweeps (scalar start triangulation)."""
        reports, _ = shear_reports
        evaluations = sum(r.flip_evaluations for r in reports)
        flips = sum(r.flips for r in reports)
        assert evaluations <= 9000
        assert flips / evaluations > 0.1
        assert sum(r.flip_sweeps for r in reports) <= 6 * FLIP_MAX_SWEEPS

    def test_sink_carries_the_flip_counts(self, shear_reports):
        reports, sink = shear_reports
        assert sink.events["adapt_flip_evaluations"] == sum(
            r.flip_evaluations for r in reports)
        assert sink.events["adapt_flip_sweeps"] == sum(
            r.flip_sweeps for r in reports)
        assert sink.events["adapt_flips"] == sum(r.flips for r in reports)
        assert "adapt_flip_sweep_cap" not in sink.events
