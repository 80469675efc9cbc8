"""Tests for the boundary-layer growth law."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sizing.growth import GeometricGrowth


class TestGeometric:
    def test_heights(self):
        g = GeometricGrowth(0.1, ratio=2.0)
        assert g.height(0) == 0.0
        assert g.height(1) == pytest.approx(0.1)
        assert g.height(2) == pytest.approx(0.3)
        assert g.height(3) == pytest.approx(0.7)

    def test_spacing_matches_height_diff(self):
        g = GeometricGrowth(0.05, ratio=1.3)
        for k in range(1, 20):
            assert g.spacing(k) == pytest.approx(g.height(k) - g.height(k - 1))

    def test_ratio_one_uniform(self):
        g = GeometricGrowth(0.2, ratio=1.0)
        assert g.height(5) == pytest.approx(1.0)
        assert g.spacing(3) == pytest.approx(0.2)

    def test_validation(self):
        with pytest.raises(ValueError):
            GeometricGrowth(0.0)
        with pytest.raises(ValueError):
            GeometricGrowth(0.1, ratio=0.9)
        with pytest.raises(ValueError):
            GeometricGrowth(0.1).spacing(0)
        with pytest.raises(ValueError):
            GeometricGrowth(0.1).height(-1)

    @given(
        d0=st.floats(min_value=1e-6, max_value=1.0),
        r=st.floats(min_value=1.0, max_value=2.0),
        k=st.integers(min_value=1, max_value=50),
    )
    @settings(max_examples=100)
    def test_monotone_increasing(self, d0, r, k):
        g = GeometricGrowth(d0, ratio=r)
        assert g.height(k + 1) > g.height(k)
        assert g.spacing(k + 1) >= g.spacing(k)
