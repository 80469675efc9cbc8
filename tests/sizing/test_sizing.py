"""Tests for sizing functions and the decoupling edge-length formula."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sizing.functions import (
    GradedDistanceSizing,
    RadialSizing,
    UniformSizing,
    areas_at,
    decoupling_edge_length,
)


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
