"""The exact predicate stage as it was until ISSUE 21: signs of the
orientation and incircle determinants in :class:`fractions.Fraction`
arithmetic, verbatim.  ``src/`` now takes the same signs from integer
determinants on a common power-of-two scale; these stay as the reference
that stage is compared against (``test_predicates.py``).
"""

from fractions import Fraction

from repro.geometry.predicates import (
    ORIENT_CCW,
    ORIENT_COLLINEAR,
    ORIENT_CW,
)


def _orient2d_exact(ax, ay, bx, by, cx, cy) -> int:
    """Exact sign of the 2x2 orientation determinant via rationals."""
    ax, ay = Fraction(ax), Fraction(ay)
    bx, by = Fraction(bx), Fraction(by)
    cx, cy = Fraction(cx), Fraction(cy)
    det = (ax - cx) * (by - cy) - (ay - cy) * (bx - cx)
    if det > 0:
        return ORIENT_CCW
    if det < 0:
        return ORIENT_CW
    return ORIENT_COLLINEAR


def _incircle_exact(ax, ay, bx, by, cx, cy, dx, dy) -> int:
    """Exact sign of the 4x4 incircle determinant via rationals."""
    ax, ay = Fraction(ax), Fraction(ay)
    bx, by = Fraction(bx), Fraction(by)
    cx, cy = Fraction(cx), Fraction(cy)
    dx, dy = Fraction(dx), Fraction(dy)

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
    if det > 0:
        return 1
    if det < 0:
        return -1
    return 0
