"""Robust geometric predicates.

The mesh generator's correctness rests on two predicates: ``orient2d``
(which side of a directed line a point lies on) and ``incircle`` (whether a
point lies inside the circumcircle of a triangle).  Both are evaluated as
signs of small determinants.  Plain floating-point evaluation misclassifies
near-degenerate inputs, which in a Delaunay kernel manifests as inverted
triangles and infinite flip loops.

We use the standard two-stage scheme popularised by Shewchuk:

1. a fast floating-point evaluation with a forward error bound (the
   *filter*); when the magnitude of the float result exceeds the bound, its
   sign is provably correct and we return it;
2. otherwise an exact evaluation in Python integers: floats are dyadic
   rationals, so the coordinates go on one power-of-two scale and the
   determinant's sign is an integer computation (no ``Fraction``, no gcd).

The exact stage is slow but is only reached for (near-)degenerate inputs,
which are rare in practice, so the amortised cost is close to the plain
float cost.  The triangulation kernel inlines the filter stage of the
scalar predicates in its hot loops and shares their error bounds from
here.  :func:`orient2d_batch` is the one vectorised form (the filter
over whole arrays, uncertain entries escalated to the exact path one by
one), for callers that hold whole arrays.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "orient2d",
    "orient2d_batch",
    "incircle",
    "ORIENT_CCW",
    "ORIENT_CW",
    "ORIENT_COLLINEAR",
    "ORIENT_ERR_BOUND",
    "INCIRCLE_ERR_BOUND",
    "ORIENT_UNDERFLOW_GUARD",
    "INCIRCLE_UNDERFLOW_GUARD",
    "exact_eq",
]

# Sign conventions (matching Shewchuk's Triangle):
#   orient2d(a, b, c) > 0  <=>  a, b, c in counter-clockwise order
#   incircle(a, b, c, d) > 0 <=> d strictly inside circumcircle of ccw (a,b,c)
ORIENT_CCW = 1
ORIENT_CW = -1
ORIENT_COLLINEAR = 0

# Machine epsilon for double precision (2^-53).
_EPS = np.finfo(np.float64).eps / 2.0
# Forward error-bound coefficients (Shewchuk, "Adaptive Precision
# Floating-Point Arithmetic and Fast Robust Geometric Predicates", 1997).
_CCW_ERR_BOUND = (3.0 + 16.0 * _EPS) * _EPS
_ICC_ERR_BOUND = (10.0 + 96.0 * _EPS) * _EPS
# Shewchuk's bounds assume no under/overflow.  A float64 product can
# underflow to zero or a subnormal (absolute error up to 2^-1074), which
# would let the filter certify a *wrong* sign when every term is tiny.
# Whenever the magnitude sum falls below these guards the relative error
# bound no longer dominates the worst-case absolute subnormal error, so we
# escalate to the exact path instead.
_ORIENT_UNDERFLOW_GUARD = 1e-280
_ICC_UNDERFLOW_GUARD = 1e-250

# Public aliases so callers that inline the filter stage (the Delaunay
# kernel's hot loops) share one source of truth for the bounds.
ORIENT_ERR_BOUND = _CCW_ERR_BOUND
INCIRCLE_ERR_BOUND = _ICC_ERR_BOUND
ORIENT_UNDERFLOW_GUARD = _ORIENT_UNDERFLOW_GUARD
INCIRCLE_UNDERFLOW_GUARD = _ICC_UNDERFLOW_GUARD

def exact_eq(a, b):
    """Intentional bitwise float equality (scalar or elementwise array).

    Geometric code does not write a bare ``x == 0.0``: the reader
    cannot tell a tolerance bug from a deliberate exact-representation
    test (an exact cusp test at a zero-width spike turns its tip normal
    into the body: ``tests/core/test_normals.py::TestZeroWidthSpike``).
    This helper *names* the intent — true-zero guards before division,
    duplicate-coordinate detection, sentinel defaults — and is the
    sanctioned spelling.  Anything that actually wants a tolerance must
    not come here.
    """
    return a == b


def _on_common_scale(*coords):
    """The floats as integers over one shared denominator: a finite
    float is ``n / 2**k`` exactly, so scaling each numerator up to the
    largest denominator needs no gcd, and a determinant of coordinate
    differences keeps its sign under the common factor."""
    ratios = [c.as_integer_ratio() for c in coords]
    dmax = max(d for _, d in ratios)
    return [n * (dmax // d) for n, d in ratios]


def _orient2d_exact(ax, ay, bx, by, cx, cy) -> int:
    """Exact sign of the 2x2 orientation determinant, in integers."""
    ax, ay, bx, by, cx, cy = _on_common_scale(ax, ay, bx, by, cx, cy)
    det = (ax - cx) * (by - cy) - (ay - cy) * (bx - cx)
    return (det > 0) - (det < 0)  # ORIENT_CCW / ORIENT_CW / ORIENT_COLLINEAR


def orient2d(a, b, c) -> int:
    """Return the orientation of the ordered point triple ``(a, b, c)``.

    Parameters are ``(x, y)`` pairs (any indexable of two floats).

    Returns :data:`ORIENT_CCW` (+1) when the triple turns counter-clockwise,
    :data:`ORIENT_CW` (-1) when clockwise, :data:`ORIENT_COLLINEAR` (0) when
    the three points are exactly collinear.  The result is exact.
    """
    ax, ay = float(a[0]), float(a[1])
    bx, by = float(b[0]), float(b[1])
    cx, cy = float(c[0]), float(c[1])

    detleft = (ax - cx) * (by - cy)
    detright = (ay - cy) * (bx - cx)
    det = detleft - detright

    # Exact-zero shortcuts: a float product is a TRUE zero only when one of
    # its factors is zero (a zero result with nonzero factors is underflow,
    # which must not be trusted).  A nonzero float product always carries
    # the true sign.
    lzero = ax == cx or by == cy
    rzero = ay == cy or bx == cx
    if lzero and rzero:
        return ORIENT_COLLINEAR
    if lzero:
        if detright > 0.0:
            return ORIENT_CW
        if detright < 0.0:
            return ORIENT_CCW
        return _orient2d_exact(ax, ay, bx, by, cx, cy)  # detright underflowed
    if rzero:
        if detleft > 0.0:
            return ORIENT_CCW
        if detleft < 0.0:
            return ORIENT_CW
        return _orient2d_exact(ax, ay, bx, by, cx, cy)  # detleft underflowed

    detsum = abs(detleft) + abs(detright)
    errbound = _CCW_ERR_BOUND * detsum
    if detsum > _ORIENT_UNDERFLOW_GUARD:
        if det > errbound:
            return ORIENT_CCW
        if -det > errbound:
            return ORIENT_CW
    return _orient2d_exact(ax, ay, bx, by, cx, cy)


def orient2d_batch(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Vectorised :func:`orient2d` over arrays of shape ``(n, 2)``.

    Entries whose floating-point filter is inconclusive are escalated to the
    exact integer path individually, so the returned sign array is exact.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64)
    detleft = (a[..., 0] - c[..., 0]) * (b[..., 1] - c[..., 1])
    detright = (a[..., 1] - c[..., 1]) * (b[..., 0] - c[..., 0])
    det = detleft - detright
    detsum = np.abs(detleft) + np.abs(detright)
    errbound = _CCW_ERR_BOUND * detsum

    # True-zero detection (see scalar orient2d): a zero product with both
    # factors nonzero is an underflow and cannot be trusted.
    lzero = (a[..., 0] == c[..., 0]) | (b[..., 1] == c[..., 1])
    rzero = (a[..., 1] == c[..., 1]) | (b[..., 0] == c[..., 0])
    both_zero = lzero & rzero
    certified = (detsum > _ORIENT_UNDERFLOW_GUARD) & (np.abs(det) > errbound)
    certified |= lzero & (detright != 0.0)
    certified |= rzero & (detleft != 0.0)

    out = np.zeros(det.shape, dtype=np.int8)
    out[certified & (det > 0)] = ORIENT_CCW
    out[certified & (det < 0)] = ORIENT_CW
    for i in np.flatnonzero(~certified & ~both_zero):
        out[i] = _orient2d_exact(
            a[i, 0], a[i, 1], b[i, 0], b[i, 1], c[i, 0], c[i, 1]
        )
    return out


def _incircle_exact(ax, ay, bx, by, cx, cy, dx, dy) -> int:
    """Exact sign of the 4x4 incircle determinant, in integers."""
    ax, ay, bx, by, cx, cy, dx, dy = _on_common_scale(
        ax, ay, bx, by, cx, cy, dx, dy)

    adx, ady = ax - dx, ay - dy
    bdx, bdy = bx - dx, by - dy
    cdx, cdy = cx - dx, cy - dy

    alift = adx * adx + ady * ady
    blift = bdx * bdx + bdy * bdy
    clift = cdx * cdx + cdy * cdy

    det = (
        alift * (bdx * cdy - cdx * bdy)
        + blift * (cdx * ady - adx * cdy)
        + clift * (adx * bdy - bdx * ady)
    )
    return (det > 0) - (det < 0)


def incircle(a, b, c, d) -> int:
    """Sign of the incircle test for point ``d`` against triangle ``(a,b,c)``.

    For a *counter-clockwise* triangle, returns +1 when ``d`` lies strictly
    inside the circumcircle, -1 when strictly outside, 0 when cocircular.
    For a clockwise triangle the sign is flipped (standard determinant
    behaviour); callers keep triangles CCW.  The result is exact.
    """
    ax, ay = float(a[0]), float(a[1])
    bx, by = float(b[0]), float(b[1])
    cx, cy = float(c[0]), float(c[1])
    dx, dy = float(d[0]), float(d[1])

    adx, ady = ax - dx, ay - dy
    bdx, bdy = bx - dx, by - dy
    cdx, cdy = cx - dx, cy - dy

    bdxcdy = bdx * cdy
    cdxbdy = cdx * bdy
    alift = adx * adx + ady * ady

    cdxady = cdx * ady
    adxcdy = adx * cdy
    blift = bdx * bdx + bdy * bdy

    adxbdy = adx * bdy
    bdxady = bdx * ady
    clift = cdx * cdx + cdy * cdy

    det = (
        alift * (bdxcdy - cdxbdy)
        + blift * (cdxady - adxcdy)
        + clift * (adxbdy - bdxady)
    )

    permanent = (
        (abs(bdxcdy) + abs(cdxbdy)) * alift
        + (abs(cdxady) + abs(adxcdy)) * blift
        + (abs(adxbdy) + abs(bdxady)) * clift
    )
    errbound = _ICC_ERR_BOUND * permanent
    if permanent > _ICC_UNDERFLOW_GUARD:
        if det > errbound:
            return 1
        if -det > errbound:
            return -1
    return _incircle_exact(ax, ay, bx, by, cx, cy, dx, dy)
