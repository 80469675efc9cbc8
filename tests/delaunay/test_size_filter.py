"""The Lipschitz filter in front of ``AreaCriterion``'s centroid test.

A sizing function that declares ``lipschitz = (L, slack)`` lets the
criterion decide most size verdicts from the edge length at a corner.
The filter must never change a verdict: ``CheckedRefiner`` recomputes
the unfiltered triangle test (:func:`unfiltered_bad`) on *every* call of
the refiner's one test and asserts equality — and that it ran — driven
through ``refine_subdomain`` (the path every ``generate_mesh`` subdomain
takes).
The graded clouds have >= 600 surface points, so the sizing decimates
(``step > 1``, ``_coarse_pad > 0``) and the subdomains straddle the
``20 * pad`` distance where its far branch takes over with a jump — the
ledger workloads have 168 / 344 points and never leave ``pad = 0``.
"""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import decouple
from repro.core.decouple import DecoupledSubdomain, march_path, ring_from_parts
from repro.delaunay.refine import AreaCriterion, Refiner
from repro.geometry.predicates import exact_eq
from repro.sizing.functions import (
    GradedDistanceSizing,
    RadialSizing,
    UniformSizing,
)

from tests.domains import CallableSizing


def unfiltered_bad(refiner, t):
    """The refiner's triangle test as it was before the size filter:
    the shape test, and the size test as ``area > area_fn(centroid)``,
    in the floats of the point-tuple test."""
    arr = refiner.tri._arr
    corners = arr.triangle(t)
    if min(corners) < 0:
        return False
    (ax, ay), (bx, by), (cx, cy) = (arr.point(v) for v in corners)
    dx, dy = cx - bx, cy - by
    cax, cay = cx - ax, cy - ay
    bax, bay = bx - ax, by - ay
    la = math.sqrt(dx * dx + dy * dy)
    lb = math.sqrt(cax * cax + cay * cay)
    lc = math.sqrt(bax * bax + bay * bay)
    lmin = min(la, lb, lc)
    area = 0.5 * abs(bax * cay - bay * cax)
    if exact_eq(area, 0.0):
        return False
    crit = refiner.criterion
    gx = (ax + bx + cx) / 3.0
    gy = (ay + by + cy) / 3.0
    if crit is not None and area > crit.area_fn(gx, gy):
        return True
    if (refiner.quality_bound is not None
            and la * lb * lc / (4.0 * area) / lmin > refiner.quality_bound):
        return not (refiner.min_edge_floor and lmin <= refiner.min_edge_floor)
    return False


class CheckedRefiner(Refiner):
    """``Refiner`` whose every triangle verdict is compared with the
    unfiltered one, and counted on its criterion (``checked``)."""

    def _triangle_bad(self, t):
        got = super()._triangle_bad(t)
        assert got == unfiltered_bad(self, t), (t, self.tri._arr.triangle(t))
        self.criterion.checked += 1
        return got


class CheckedCriterion(AreaCriterion):
    """``AreaCriterion`` whose priming is counted, and whose verdicts a
    :class:`CheckedRefiner` counts in ``checked``."""

    made = []

    def __init__(self, area_fn):
        super().__init__(area_fn)
        self.primed = self.checked = 0
        self.made.append(self)

    def prime(self, pts):
        before = len(self.edge_at)
        super().prime(pts)
        self.primed += len(self.edge_at) - before
        # Primed by id: vertex v holds the edge length at row v.
        assert len(self.edge_at) in (before, len(pts))


def only_criterion(made):
    """The one criterion ``refine_subdomain`` built; its verdicts were
    checked (a refiner that stopped calling the checked test would
    leave ``checked`` at 0 and pass every comparison)."""
    (crit,) = made
    assert crit.checked > 0
    return crit


def assert_one_evaluation_per_vertex_and_open_verdict(crit):
    """The sizing runs once per primed vertex, once per other vertex a
    size test reached (the refiner's Steiner points; every vertex when
    the sizing has no ``area_at_many``), and once per verdict the bound
    left open — never twice for one vertex."""
    new_vertices = len(crit.edge_at) - crit.primed
    assert new_vertices > 0
    assert crit.evals == crit.primed + new_vertices + crit.band


@pytest.fixture
def checked(monkeypatch):
    """``refine_subdomain`` builds a ``CheckedCriterion`` and refines
    with a ``CheckedRefiner``; yields the list of criteria built."""
    monkeypatch.setattr(decouple, "AreaCriterion", CheckedCriterion)
    monkeypatch.setattr(decouple, "Refiner", CheckedRefiner)
    CheckedCriterion.made = []
    return CheckedCriterion.made


def circle(n, r=0.5):
    th = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    return np.c_[r * np.cos(th), r * np.sin(th)]


def ragged_cloud(n=1500, seed=3):
    """A band of random points around the circle: decimating it leaves
    a large covering radius, so the far-branch jump sits well inside
    the subdomain."""
    rng = np.random.default_rng(seed)
    th = rng.uniform(0.0, 2.0 * np.pi, n)
    r = rng.uniform(0.46, 0.5, n)
    return np.c_[r * np.cos(th), r * np.sin(th)]


def annulus(sizing, half=1.5, n_hole=48):
    """Box ``[-half, half]^2`` marched with the sizing, minus the
    ``n_hole``-gon on the circle the clouds sample."""
    corners = [(-half, -half), (half, -half), (half, half), (-half, half)]
    ring = ring_from_parts([march_path(corners[i], corners[(i + 1) % 4],
                                       sizing) for i in range(4)])
    return DecoupledSubdomain(ring=ring, hole_rings=[circle(n_hole)],
                              holes=[(0.0, 0.0)])


GRADED = {
    "circle700": lambda: GradedDistanceSizing(circle(700), h0=0.06,
                                              grading=0.3, h_max=0.4),
    "circle3000": lambda: GradedDistanceSizing(circle(3000), h0=0.05,
                                               grading=0.15),
    "ragged1500": lambda: GradedDistanceSizing(ragged_cloud(), h0=0.06,
                                               grading=0.45, h_max=0.5),
}


@functools.cache
def graded(name):
    """One sizing per cloud (the property test runs many examples)."""
    return GRADED[name]()


class TestFilterNeverChangesAVerdict:
    @pytest.mark.parametrize("name", sorted(GRADED))
    def test_graded_with_decimated_cloud(self, checked, name):
        sizing = graded(name)
        assert sizing._coarse_pad > 0.0
        assert sizing.lipschitz == (sizing.grading,
                                    sizing.grading * sizing._coarse_pad)
        # The far branch takes over inside the subdomain.
        assert 20.0 * sizing._coarse_pad < 1.0
        mesh = decouple.refine_subdomain(annulus(sizing), sizing)
        crit = only_criterion(checked)
        assert mesh.n_triangles > 300
        # Both outcomes of the filter happen (the ragged cloud's slack
        # leaves a third of the verdicts open), and it pays: one
        # evaluation per vertex plus one per open verdict, not one per
        # test.
        assert crit.clear > crit.band > 0
        assert crit.evals < 0.8 * (crit.clear + crit.band)
        # The subdomain's vertices came in one array call.
        assert crit.primed > 0
        assert_one_evaluation_per_vertex_and_open_verdict(crit)

    def test_radial(self, checked):
        sizing = RadialSizing((0.2, -0.1), h0=0.05, grading=0.4, h_max=0.5)
        decouple.refine_subdomain(annulus(sizing), sizing)
        crit = only_criterion(checked)
        assert crit.clear > crit.band > 0
        assert_one_evaluation_per_vertex_and_open_verdict(crit)

    def test_uniform_is_all_clear_or_rounding(self, checked):
        sizing = UniformSizing(0.004)
        mesh = decouple.refine_subdomain(annulus(sizing), sizing)
        crit = only_criterion(checked)
        assert mesh.n_triangles > 300
        # L = 0: only an area within 1e-9 of the bound is left open.
        assert crit.clear > 0 and crit.band == 0
        assert_one_evaluation_per_vertex_and_open_verdict(crit)

    def test_plain_callable_has_no_filter(self, checked):
        radial = RadialSizing((0.0, 0.0), h0=0.08, grading=0.3)
        sizing = CallableSizing(lambda x, y: radial.area_at(x, y))
        mesh = decouple.refine_subdomain(annulus(sizing), sizing)
        crit = only_criterion(checked)
        assert crit.clear == crit.band == 0
        assert crit.evals > mesh.n_triangles

    def test_same_mesh_as_the_unfiltered_criterion(self):
        sizing = graded("ragged1500")
        sub = annulus(sizing)
        filtered = decouple.refine_subdomain(sub, sizing)
        unfiltered = decouple.refine_subdomain(
            sub, CallableSizing(sizing.area_at))
        assert np.array_equal(filtered.points, unfiltered.points)
        assert np.array_equal(filtered.triangles, unfiltered.triangles)


class TestDeclaredBoundHolds:
    """``|h(p) - h(q)| <= L * |p - q| + slack`` for the floats the
    sizing returns, also across the far-branch jump."""

    @pytest.mark.parametrize("name", sorted(GRADED))
    @given(theta=st.floats(0.0, 2.0 * math.pi),
           off_p=st.floats(-1.0, 1.0), off_q=st.floats(-1.0, 1.0),
           turn=st.floats(-0.3, 0.3), scale=st.sampled_from([1e-3, 0.05, 1.0]))
    @settings(max_examples=150, deadline=None)
    def test_pairs_straddling_the_jump(self, name, theta, off_p, off_q,
                                       turn, scale):
        sizing = graded(name)
        grow, slack = sizing.lipschitz
        jump = 0.5 + 20.0 * sizing._coarse_pad
        width = scale * 20.0 * sizing._coarse_pad
        rp, rq = jump + off_p * width, jump + off_q * width
        p = (rp * math.cos(theta), rp * math.sin(theta))
        q = (rq * math.cos(theta + turn * scale),
             rq * math.sin(theta + turn * scale))
        gap = abs(sizing.edge_length_at(*p) - sizing.edge_length_at(*q))
        assert gap <= grow * math.dist(p, q) + slack + 1e-12

    @given(p=st.tuples(st.floats(-3, 3), st.floats(-3, 3)),
           q=st.tuples(st.floats(-3, 3), st.floats(-3, 3)))
    @settings(max_examples=100, deadline=None)
    def test_radial(self, p, q):
        sizing = RadialSizing((0.2, -0.1), h0=0.05, grading=0.4, h_max=0.5)
        grow, slack = sizing.lipschitz
        gap = abs(sizing.edge_length_at(*p) - sizing.edge_length_at(*q))
        assert gap <= grow * math.dist(p, q) + slack + 1e-12

    def test_uniform(self):
        assert UniformSizing(0.01).lipschitz == (0.0, 0.0)

