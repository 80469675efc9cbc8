"""Unit and property tests for the robust geometric predicates."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import predicates
from repro.geometry.predicates import (
    ORIENT_CCW,
    ORIENT_COLLINEAR,
    ORIENT_CW,
    incircle,
    orient2d,
    orient2d_batch,
)

from . import oracle_predicates as oracle

coord = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)
point = st.tuples(coord, coord)


class TestOrient2d:
    def test_ccw(self):
        assert orient2d((0, 0), (1, 0), (0, 1)) == ORIENT_CCW

    def test_cw(self):
        assert orient2d((0, 0), (0, 1), (1, 0)) == ORIENT_CW

    def test_collinear(self):
        assert orient2d((0, 0), (1, 1), (2, 2)) == ORIENT_COLLINEAR

    def test_collinear_tiny_offsets(self):
        # Near-degenerate: points on a line with coordinates that round.
        a = (0.1, 0.1)
        b = (0.2, 0.2)
        c = (0.3, 0.3)
        assert orient2d(a, b, c) == ORIENT_COLLINEAR

    def test_adversarial_near_collinear(self):
        # Classic robustness test: walking a point across a line in ulps.
        base = (12.0, 12.0)
        for i in range(-8, 9):
            c = (24.0, np.nextafter(24.0, 24.0 + i))
            got = orient2d((0.0, 0.0), base, c)
            exact = np.sign((c[1] - 24.0))  # line y = x through origin & base
            assert got == int(exact)

    @given(a=point, b=point, c=point)
    @settings(max_examples=200)
    def test_antisymmetry(self, a, b, c):
        assert orient2d(a, b, c) == -orient2d(b, a, c)

    @given(a=point, b=point, c=point)
    @settings(max_examples=200)
    def test_cyclic_invariance(self, a, b, c):
        s = orient2d(a, b, c)
        assert orient2d(b, c, a) == s
        assert orient2d(c, a, b) == s

    @given(a=point, b=point)
    @settings(max_examples=100)
    def test_degenerate_repeats(self, a, b):
        assert orient2d(a, a, b) == ORIENT_COLLINEAR
        assert orient2d(a, b, b) == ORIENT_COLLINEAR
        assert orient2d(a, b, a) == ORIENT_COLLINEAR


class TestOrient2dBatch:
    @given(st.lists(st.tuples(point, point, point), min_size=1, max_size=30))
    @settings(max_examples=50)
    def test_matches_scalar(self, triples):
        a = np.array([t[0] for t in triples])
        b = np.array([t[1] for t in triples])
        c = np.array([t[2] for t in triples])
        batch = orient2d_batch(a, b, c)
        for i, (pa, pb, pc) in enumerate(triples):
            assert batch[i] == orient2d(pa, pb, pc)


class TestIncircle:
    def test_inside(self):
        # Unit circle through three CCW points; origin is inside.
        a, b, c = (1, 0), (0, 1), (-1, 0)
        assert incircle(a, b, c, (0, 0)) == 1

    def test_outside(self):
        a, b, c = (1, 0), (0, 1), (-1, 0)
        assert incircle(a, b, c, (2, 2)) == -1

    def test_cocircular(self):
        a, b, c = (1, 0), (0, 1), (-1, 0)
        assert incircle(a, b, c, (0, -1)) == 0

    def test_orientation_flips_sign(self):
        a, b, c, d = (1, 0), (0, 1), (-1, 0), (0, 0)
        assert incircle(a, c, b, d) == -incircle(a, b, c, d)

    def test_near_cocircular_exact(self):
        a, b, c = (1.0, 0.0), (0.0, 1.0), (-1.0, 0.0)
        d_in = (0.0, np.nextafter(-1.0, 0.0))
        d_out = (0.0, np.nextafter(-1.0, -2.0))
        assert incircle(a, b, c, d_in) == 1
        assert incircle(a, b, c, d_out) == -1

    @given(a=point, b=point, c=point, d=point)
    @settings(max_examples=150)
    def test_symmetry_under_even_permutation(self, a, b, c, d):
        s = incircle(a, b, c, d)
        assert incircle(b, c, a, d) == s
        assert incircle(c, a, b, d) == s

    @given(a=point, b=point, c=point)
    @settings(max_examples=100)
    def test_vertex_on_circle(self, a, b, c):
        # Each defining vertex is cocircular by definition.
        assert incircle(a, b, c, a) == 0
        assert incircle(a, b, c, b) == 0
        assert incircle(a, b, c, c) == 0


def test_incircle_consistent_with_circumcircle_distance():
    rng = np.random.default_rng(42)
    from tests.delaunay.oracle_refine import circumcenter, distance

    for _ in range(200):
        pts = rng.uniform(-10, 10, size=(4, 2))
        a, b, c, d = (tuple(p) for p in pts)
        if orient2d(a, b, c) != ORIENT_CCW:
            a, b = b, a
        if orient2d(a, b, c) != ORIENT_CCW:
            continue  # collinear triple
        cc = circumcenter(a, b, c)
        r = distance(cc, a)
        dist_d = distance(cc, d)
        if abs(dist_d - r) < 1e-9 * max(r, 1.0):
            continue  # too close to the circle for float comparison
        expected = 1 if dist_d < r else -1
        assert incircle(a, b, c, d) == expected


# ----------------------------------------------------------------------
# The exact stage: integer determinants vs the Fraction oracle
# ----------------------------------------------------------------------
def _ulps(x: float, n: int) -> float:
    for _ in range(abs(n)):
        x = math.nextafter(x, math.inf if n > 0 else -math.inf)
    return x


def _exact_stage_corpus():
    """8-tuples ``(ax, ay, bx, by, cx, cy, dx, dy)`` the filters cannot
    decide or that stress the common power-of-two scale."""
    tiny, sub = 5e-324, 2.2250738585072014e-308 / 4
    corpus = [
        # collinear runs: a border's evenly marched points
        (0.1 * i, 0.1 * i, 0.1 * (i + 1), 0.1 * (i + 1),
         0.1 * (i + 2), 0.1 * (i + 2), 0.1 * (i + 3), 0.1 * (i + 3))
        for i in range(6)
    ] + [
        # cocircular rectangles (the boundary layer's bulk points)
        (x, y, x + w, y, x + w, y + h, x, y + h)
        for x, y, w, h in [(0.0, 0.0, 1.0, 1.0), (0.3, -0.7, 0.1, 1e-3),
                           (-29.5, 17.25, 1.2, 0.6), (1e6, 1e6, 0.5, 0.25)]
    ] + [
        # subnormals, the smallest float, and 1e+-300 mixed in one tuple
        (tiny, 0.0, 0.0, tiny, -tiny, 0.0, 0.0, -tiny),
        (sub, sub, 2 * sub, 2 * sub, 3 * sub, 3 * sub, tiny, tiny),
        (1e300, 1e-300, -1e300, 1e-300, 0.0, tiny, 1e-300, 1e300),
        (1e300, 1e300, -1e300, -1e300, 1e-300, 1e-300, 0.0, 0.0),
        (1e-300, tiny, 1e-300, -tiny, 1e300, 0.0, -1e300, 0.0),
    ]
    # dyadic lattice: every determinant small and exact, many zeros
    rng = np.random.default_rng(7)
    corpus += [tuple(v / 8.0 for v in row)
               for row in rng.integers(-4, 5, size=(60, 8)).tolist()]
    # 1-ulp perturbations of degenerate configurations
    for base in list(corpus[:10]):
        for k in range(8):
            for n in (-1, 1):
                moved = list(base)
                moved[k] = _ulps(moved[k], n)
                corpus.append(tuple(moved))
    return corpus


finite = st.floats(allow_nan=False, allow_infinity=False)


def _assert_matches_oracle(t):
    t = tuple(float(v) for v in t)
    assert predicates._orient2d_exact(*t[:6]) == oracle._orient2d_exact(*t[:6])
    assert predicates._incircle_exact(*t) == oracle._incircle_exact(*t)


class TestIntegerExactStage:
    """``src/`` takes exact signs from integer determinants on a common
    power-of-two scale; the ``Fraction`` stage it replaced is the oracle."""

    @pytest.mark.parametrize("t", _exact_stage_corpus())
    def test_corpus_sign_is_the_oracles(self, t):
        _assert_matches_oracle(t)

    @given(st.tuples(*[finite] * 8))
    @settings(max_examples=300)
    def test_any_finite_floats(self, t):
        _assert_matches_oracle(t)

    @given(st.tuples(*[st.integers(-64, 64)] * 8), st.integers(-1070, 900))
    @settings(max_examples=200)
    def test_scaled_lattices(self, ints, exp):
        # Degenerate far more often than random floats, at any magnitude.
        _assert_matches_oracle(tuple(math.ldexp(i, exp) for i in ints))

    def test_public_predicates_agree_on_the_corpus(self):
        """Scalar and array forms, filter and all, return the oracle's
        sign on inputs whose filter stage mostly cannot decide."""
        corpus = np.array(_exact_stage_corpus(), dtype=np.float64)
        a, b, c, d = (corpus[:, 0:2], corpus[:, 2:4], corpus[:, 4:6],
                      corpus[:, 6:8])
        want_o = [oracle._orient2d_exact(*row[:6]) for row in corpus.tolist()]
        want_i = [oracle._incircle_exact(*row) for row in corpus.tolist()]
        assert [orient2d(*p) for p in zip(a, b, c)] == want_o
        assert [incircle(*p) for p in zip(a, b, c, d)] == want_i
        with np.errstate(all="ignore"):  # the 1e300 rows overflow the filter
            assert orient2d_batch(a, b, c).tolist() == want_o
