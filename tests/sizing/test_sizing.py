"""Tests for sizing functions and the decoupling edge-length formula."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.delaunay.refine import AreaCriterion, _checked_area
from repro.sizing.functions import (
    GradedDistanceSizing,
    RadialSizing,
    UniformSizing,
    areas_at,
    decoupling_edge_length,
)
from tests.sizing import oracle_sizing


class TestDecouplingEdgeLength:
    def test_formula(self):
        # k = 1/2 sqrt(A / sqrt 2)
        a = 2.0
        assert decoupling_edge_length(a) == pytest.approx(
            0.5 * math.sqrt(2.0 / math.sqrt(2.0))
        )

    def test_invalid(self):
        with pytest.raises(ValueError):
            decoupling_edge_length(0.0)

    @given(st.floats(min_value=1e-12, max_value=1e12))
    def test_monotone_in_area(self, a):
        assert decoupling_edge_length(2 * a) > decoupling_edge_length(a)

    @given(st.floats(min_value=1e-6, max_value=1e6))
    def test_triangle_with_edge_2k_satisfies_area(self, a):
        """An equilateral triangle with edge 2k has area <= A: the
        conservative guarantee behind the decoupling path spacing."""
        k = decoupling_edge_length(a)
        area_equilateral = math.sqrt(3) / 4 * (2 * k) ** 2
        assert area_equilateral <= a


class TestUniform:
    def test_constant(self):
        s = UniformSizing(0.5)
        assert s.area_at(0, 0) == 0.5
        assert s.area_at(100, -3) == 0.5
        assert s(1, 1) == 0.5

    def test_invalid(self):
        with pytest.raises(ValueError):
            UniformSizing(-1.0)


class TestGradedDistance:
    def setup_method(self):
        theta = np.linspace(0, 2 * np.pi, 200, endpoint=False)
        self.circle = np.column_stack([np.cos(theta), np.sin(theta)])
        self.s = GradedDistanceSizing(self.circle, h0=0.01, grading=0.3)

    def test_distance_on_surface_zero(self):
        assert self.s.distance_to_surface(1.0, 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_distance_far(self):
        d = self.s.distance_to_surface(10.0, 0.0)
        assert d == pytest.approx(9.0, abs=0.05)

    def test_edge_grows_with_distance(self):
        h_near = self.s.edge_length_at(1.05, 0.0)
        h_far = self.s.edge_length_at(5.0, 0.0)
        assert h_near < h_far
        assert h_near == pytest.approx(0.01 + 0.3 * 0.05, abs=0.01)

    def test_area_consistent_with_edge(self):
        h = self.s.edge_length_at(3.0, 0.0)
        assert self.s.area_at(3.0, 0.0) == pytest.approx(
            math.sqrt(3) / 4 * h * h
        )

    def test_h_max_cap(self):
        s = GradedDistanceSizing(self.circle, h0=0.01, grading=1.0, h_max=0.5)
        assert s.edge_length_at(100.0, 0.0) == 0.5

    def test_validation(self):
        with pytest.raises(ValueError):
            GradedDistanceSizing(np.empty((0, 2)), h0=0.1)
        with pytest.raises(ValueError):
            GradedDistanceSizing(self.circle, h0=-0.1)

    @given(
        x=st.floats(min_value=-40, max_value=40),
        y=st.floats(min_value=-40, max_value=40),
    )
    @settings(max_examples=100)
    def test_coarse_acceleration_accurate(self, x, y):
        """The decimated-cloud fast path must agree with brute force."""
        exact = float(np.min(np.hypot(self.circle[:, 0] - x,
                                      self.circle[:, 1] - y)))
        got = self.s.distance_to_surface(x, y)
        assert got == pytest.approx(exact, rel=0.05, abs=0.05)

    @pytest.mark.parametrize("n_surface", [168, 700, 3000])
    @pytest.mark.parametrize("k", [1, 3, 6, 12, 400])
    def test_area_at_many_is_the_scalar_float(self, n_surface, k):
        """One pass over the cloud for k queries returns ``area_at``'s
        floats bit for bit — with a decimated cloud too (700 and 3000
        points: ``_coarse_pad > 0``), near branch, far branch and on the
        surface itself."""
        theta = np.linspace(0, 2 * np.pi, n_surface, endpoint=False)
        cloud = np.column_stack([np.cos(theta), 0.2 * np.sin(theta)])
        s = GradedDistanceSizing(cloud, h0=0.01, grading=0.15, h_max=1.2)
        rng = np.random.default_rng(k)
        xy = np.vstack([rng.uniform(-30, 30, (k, 2)),
                        rng.uniform(-1.2, 1.2, (k, 2)), cloud[:2]])[:k + 2]
        assert (s.area_at_many(xy).tolist()
                == [s.area_at(x, y) for x, y in xy.tolist()])
        assert areas_at(s, xy).tolist() == s.area_at_many(xy).tolist()

    def test_areas_at_without_an_array_form(self):
        s = RadialSizing((0, 0), h0=0.1, grading=0.5)
        xy = np.array([(0.0, 0.0), (2.0, 0.0), (-1.0, 3.0)])
        assert areas_at(s, xy) == [s.area_at(x, y) for x, y in xy.tolist()]


class TestRadial:
    def test_gradation(self):
        s = RadialSizing((0, 0), h0=0.1, grading=0.5)
        assert s.edge_length_at(0, 0) == pytest.approx(0.1)
        assert s.edge_length_at(2, 0) == pytest.approx(1.1)
        assert s.area_at(2, 0) > s.area_at(0, 0)


class TestBoundsRefused:
    """A sizing parameter that is not a positive finite number (a
    grading that is not a finite number >= 0) is a ``ValueError`` naming
    it, not a sizing whose areas are NaN or whose cap is silently off.
    ``h_max=inf`` is the absent cap and stays allowed."""

    CIRCLE = np.column_stack([np.cos(np.arange(8.0)), np.sin(np.arange(8.0))])

    @pytest.mark.parametrize("build, name", [
        (lambda v: UniformSizing(v), "area"),
        (lambda v: GradedDistanceSizing(TestBoundsRefused.CIRCLE, h0=v),
         "h0"),
        (lambda v: GradedDistanceSizing(TestBoundsRefused.CIRCLE, h0=0.1,
                                        grading=v), "grading"),
        (lambda v: GradedDistanceSizing(TestBoundsRefused.CIRCLE, h0=0.1,
                                        h_max=v), "h_max"),
        (lambda v: RadialSizing((0, 0), h0=v), "h0"),
        (lambda v: RadialSizing((0, 0), h0=0.1, grading=v), "grading"),
        (lambda v: RadialSizing((0, 0), h0=0.1, h_max=v), "h_max"),
    ])
    @pytest.mark.parametrize("value", [math.nan, -1.0])
    def test_named(self, build, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be"):
            build(value)

    @pytest.mark.parametrize("build, name", [
        (lambda: UniformSizing(math.inf), "area"),
        (lambda: GradedDistanceSizing(TestBoundsRefused.CIRCLE,
                                      h0=math.inf), "h0"),
        (lambda: RadialSizing((0, 0), h0=0.1, grading=math.inf), "grading"),
        (lambda: RadialSizing((0, 0), h0=0.1, h_max=0.0), "h_max"),
    ])
    def test_infinite_or_zero(self, build, name):
        with pytest.raises(ValueError, match=f"^{name} must be"):
            build()

    def test_infinite_cap_is_no_cap(self):
        s = GradedDistanceSizing(self.CIRCLE, h0=0.1, h_max=math.inf)
        assert s.edge_length_at(100.0, 0.0) > 10.0
        assert RadialSizing((0, 0), h0=0.1, h_max=math.inf).h_max == math.inf


def _bits(values) -> bytes:
    return np.asarray(values, np.float64).tobytes()


def _cloud(n):
    theta = np.linspace(0, 2 * np.pi, n, endpoint=False)
    return np.column_stack([np.cos(theta), 0.2 * np.sin(theta)])


class TestCapShortcut:
    """Where the cap binds, ``area_at`` and ``area_at_many`` answer from
    the cloud's box; each must be the scan's float bit for bit
    (``oracle_sizing``), on both sides of the cap distance, on the box
    itself, with a decimated cloud, without grading or cap, for NaN and
    infinite coordinates and in batches of several chunks."""

    SIZINGS = [(0.15, 1.2), (0.0, 1.2), (0.0, 0.01), (0.0, 0.005),
               (0.15, math.inf), (0.15, 0.01)]

    @staticmethod
    def counting(s):
        """Count the scans ``s`` runs (``distance_to_surface`` calls)."""
        calls = []
        scan = s.distance_to_surface
        s.distance_to_surface = lambda x, y: calls.append(1) or scan(x, y)
        return calls

    def check(self, s, xy):
        xy = np.asarray(xy, np.float64).reshape(-1, 2)
        want = [oracle_sizing.scan_area(s, x, y) for x, y in xy.tolist()]
        assert _bits(oracle_sizing.scan_areas(s, xy)) == _bits(want)
        assert _bits([s.area_at(x, y) for x, y in xy.tolist()]) == _bits(want)
        assert _bits(s.area_at_many(xy)) == _bits(want)

    def straddling(self, s):
        """Queries whose distance is the cap distance ±1e-9 relative: on
        the x axis right of the cloud (box distance = distance) and off
        its corner (box distance < distance)."""
        reach = (s.h_max - s.h0) / s.grading
        rel = np.linspace(-1e-9, 1e-9, 41)
        xs = np.concatenate([1.0 + reach * (1.0 + rel),
                             1.0 + 0.5 * s._coarse_pad + reach * (1.0 + rel)])
        corner = np.column_stack([1.0 + reach * (1.0 + rel) / math.sqrt(2),
                                  0.2 + reach * (1.0 + rel) / math.sqrt(2)])
        return np.vstack([np.column_stack([xs, np.zeros_like(xs)]), corner])

    @pytest.mark.parametrize("n_surface", [168, 700, 3000])
    def test_straddling_the_cap_distance(self, n_surface):
        s = GradedDistanceSizing(_cloud(n_surface), h0=0.01, grading=0.15,
                                 h_max=1.2)
        assert (s._coarse_pad > 0.0) == (n_surface > 511)
        xy = self.straddling(s)
        self.check(s, xy)
        calls = self.counting(s)
        areas = [s.area_at(x, y) for x, y in xy.tolist()]
        # Both sides are reached: some queries scan, some take the box.
        assert 0 < len(calls) < len(xy)
        assert areas.count(s._cap_area) > len(xy) - len(calls)

    @pytest.mark.parametrize("n_surface", [168, 700, 3000])
    @pytest.mark.parametrize("grading, h_max", SIZINGS)
    def test_on_the_box(self, n_surface, grading, h_max):
        """Points on the box's edges and corners, and just outside."""
        s = GradedDistanceSizing(_cloud(n_surface), h0=0.01,
                                 grading=grading, h_max=h_max)
        xlo, ylo, xhi, yhi = s._box
        t = np.linspace(0.0, 1.0, 9)
        edges = [np.column_stack([xlo + (xhi - xlo) * t, np.full(9, ylo)]),
                 np.column_stack([xlo + (xhi - xlo) * t, np.full(9, yhi)]),
                 np.column_stack([np.full(9, xlo), ylo + (yhi - ylo) * t]),
                 np.column_stack([np.full(9, xhi), ylo + (yhi - ylo) * t])]
        box = np.vstack(edges)
        self.check(s, np.vstack([box, np.nextafter(box, 2.0 * box)]))

    @pytest.mark.parametrize("n_surface", [168, 700, 3000])
    @pytest.mark.parametrize("grading, h_max", SIZINGS)
    def test_mixed_batches_over_several_chunks(self, n_surface, grading,
                                               h_max):
        s = GradedDistanceSizing(_cloud(n_surface), h0=0.01,
                                 grading=grading, h_max=h_max)
        rows = max(1, 2 ** 16 // n_surface)
        rng = np.random.default_rng(n_surface)
        xy = np.vstack([rng.uniform(-30, 30, (3 * rows, 2)),
                        rng.uniform(-1.5, 1.5, (3 * rows, 2))])
        xy = xy[rng.permutation(len(xy))]
        if grading > 0.0 and h_max < math.inf:
            xy = np.vstack([xy, self.straddling(s)])
        assert len(xy) > 2 * rows
        self.check(s, xy)
        calls = self.counting(s)
        for x, y in xy.tolist():
            s.area_at(x, y)
        if (grading, h_max) == (0.15, 1.2):
            assert 0 < len(calls) < len(xy)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("grading, h_max", SIZINGS)
    @pytest.mark.parametrize("x, y", [
        (math.nan, 0.0), (math.nan, 1e6), (1e6, math.nan),
        (math.nan, math.inf), (-math.inf, math.nan), (math.nan, math.nan),
        (math.inf, 0.0), (-math.inf, 0.1), (0.3, math.inf),
        (math.inf, -math.inf)])
    def test_nan_and_infinite_coordinates(self, grading, h_max, x, y):
        """An infinite coordinate gets the scan's float, whatever branch
        gives it; a NaN one is always scanned."""
        s = GradedDistanceSizing(_cloud(700), h0=0.01, grading=grading,
                                 h_max=h_max)
        self.check(s, [(x, y)])
        if math.isnan(x) or math.isnan(y):
            calls = self.counting(s)
            s.area_at(x, y)
            assert len(calls) == 1
            nans = []
            scan = s._scan_areas
            s._scan_areas = (lambda xy: nans.append(np.isnan(xy).any(axis=1)
                                                    .sum()) or scan(xy))
            s.area_at_many(np.array([(x, y), (1.0, 0.0), (x, y)]))
            assert nans == [2]

    @pytest.mark.parametrize("x, y", [(math.nan, 1e6), (1e6, math.nan),
                                      (math.nan, 0.0)])
    def test_refinement_names_a_nan_point(self, x, y):
        """The refiner's criterion still refuses a NaN point by name,
        through the scalar and the array call."""
        s = GradedDistanceSizing(_cloud(700), h0=0.01, grading=0.15,
                                 h_max=1.2)
        criterion = AreaCriterion(s.area_at)
        with pytest.raises(ValueError, match=r"size bound at \("):
            criterion.prime(np.array([(0.0, 0.0), (x, y)]))
        with pytest.raises(ValueError, match=r"size bound at \("):
            _checked_area(criterion.area_fn(x, y), x, y)
