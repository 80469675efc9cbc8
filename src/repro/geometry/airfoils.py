"""Airfoil geometry generators.

The paper evaluates on the NACA 0012 (Fig. 2) and the 30p30n three-element
high-lift configuration (Figs. 3-5, 8, 13-16).  The 30p30n coordinate set
is not redistributable, so this module synthesises an equivalent
three-element configuration from NACA sections with deflection, gap and
overlap transforms, plus the geometric features that drive every special
code path in the boundary-layer generator:

* sharp trailing-edge *cusps*  -> fan-of-rays insertion (Figs. 3-4, 13b);
* *blunt* trailing edges       -> two slope discontinuities (Fig. 13e);
* concave *cove* cut-outs      -> ray self-intersections (Fig. 13b-c);
* closely spaced elements      -> multi-element ray intersections (Fig. 13d).

All generators return counter-clockwise coordinate arrays (trailing edge ->
upper surface -> leading edge -> lower surface) without a duplicated
closing point.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

from .pslg import PSLG

__all__ = [
    "add_cove",
    "blunt_trailing_edge",
    "circle",
    "cosine_spacing",
    "flat_plate",
    "joukowski",
    "naca4",
    "naca5",
    "naca0012",
    "three_element_airfoil",
    "transform_coords",
]


def cosine_spacing(n: int) -> np.ndarray:
    """``n`` chordwise stations in [0, 1] clustered at both ends.

    Cosine clustering concentrates surface vertices at the leading and
    trailing edges where curvature (and hence required resolution) is
    highest - the standard aerospace surface distribution.
    """
    if n < 2:
        raise ValueError("need at least 2 stations")
    beta = np.linspace(0.0, math.pi, n)
    return 0.5 * (1.0 - np.cos(beta))


def _naca4_thickness(x: np.ndarray, t: float, *, closed_te: bool) -> np.ndarray:
    """NACA 4-digit half-thickness distribution.

    With ``closed_te`` the final coefficient is -0.1036 so the thickness
    vanishes exactly at x=1 (a sharp cusp); the historical -0.1015 leaves a
    small open trailing edge.
    """
    a4 = -0.1036 if closed_te else -0.1015
    return (t / 0.2) * (
        0.2969 * np.sqrt(x)
        - 0.1260 * x
        - 0.3516 * x**2
        + 0.2843 * x**3
        + a4 * x**4
    )


def _naca4_camber(x: np.ndarray, m: float, p: float) -> Tuple[np.ndarray, np.ndarray]:
    """Camber line ``yc`` and slope ``dyc/dx`` for a 4-digit section."""
    yc = np.zeros_like(x)
    dyc = np.zeros_like(x)
    if m > 0.0 and 0.0 < p < 1.0:
        fore = x < p
        aft = ~fore
        yc[fore] = m / p**2 * (2 * p * x[fore] - x[fore] ** 2)
        dyc[fore] = 2 * m / p**2 * (p - x[fore])
        yc[aft] = m / (1 - p) ** 2 * ((1 - 2 * p) + 2 * p * x[aft] - x[aft] ** 2)
        dyc[aft] = 2 * m / (1 - p) ** 2 * (p - x[aft])
    return yc, dyc


def naca4(code: str, n_points: int = 101, *, closed_te: bool = True) -> np.ndarray:
    """Generate a NACA 4-digit airfoil as a CCW ``(m, 2)`` coordinate array.

    ``code`` is the 4-digit designation, e.g. ``"0012"`` or ``"4412"``.
    ``n_points`` is the number of chordwise stations per surface; the
    result has ``2 * n_points - 2`` vertices (shared leading edge, single
    trailing-edge vertex when ``closed_te``).
    """
    if len(code) != 4 or not code.isdigit():
        raise ValueError(f"bad NACA 4-digit code: {code!r}")
    m = int(code[0]) / 100.0
    p = int(code[1]) / 10.0
    t = int(code[2:]) / 100.0
    if t <= 0.0:
        raise ValueError("zero-thickness airfoil is degenerate")

    x = cosine_spacing(n_points)
    yt = _naca4_thickness(x, t, closed_te=closed_te)
    yc, dyc = _naca4_camber(x, m, p)
    theta = np.arctan(dyc)

    xu = x - yt * np.sin(theta)
    yu = yc + yt * np.cos(theta)
    xl = x + yt * np.sin(theta)
    yl = yc - yt * np.cos(theta)

    # TE -> upper -> LE -> lower -> (TE implicit).  Skip the duplicated LE
    # point and, for a closed TE, the duplicated final lower-surface point.
    upper = np.column_stack([xu[::-1], yu[::-1]])  # TE .. LE
    lower = np.column_stack([xl[1:], yl[1:]])      # LE+1 .. TE
    coords = np.vstack([upper, lower])
    if closed_te:
        coords = coords[:-1]  # drop duplicated TE vertex
    return _dedupe_consecutive(coords)


def _dedupe_consecutive(coords: np.ndarray) -> np.ndarray:
    """Remove consecutive (and wrap-around) vertices within 1e-12."""
    tol = 1e-12
    keep = [0]
    for i in range(1, len(coords)):
        if np.linalg.norm(coords[i] - coords[keep[-1]]) > tol:
            keep.append(i)
    if len(keep) > 1 and np.linalg.norm(coords[keep[-1]] - coords[keep[0]]) <= tol:
        keep.pop()
    return coords[keep]


def transform_coords(
    coords: np.ndarray,
    *,
    scale: float = 1.0,
    rotate_deg: float = 0.0,
    translate: Tuple[float, float] = (0.0, 0.0),
    pivot: Tuple[float, float] = (0.0, 0.0),
) -> np.ndarray:
    """Scale about the origin, rotate about ``pivot``, then translate.

    Positive ``rotate_deg`` deflects the section nose-up (counter-clockwise);
    high-lift devices use negative (nose-down) deflections.
    """
    out = np.asarray(coords, dtype=np.float64) * scale
    th = math.radians(rotate_deg)
    c, s = math.cos(th), math.sin(th)
    px, py = pivot
    x = out[:, 0] - px
    y = out[:, 1] - py
    out = np.column_stack([px + c * x - s * y, py + s * x + c * y])
    out[:, 0] += translate[0]
    out[:, 1] += translate[1]
    return out


def add_cove(
    coords: np.ndarray,
    *,
    x_start: float = 0.55,
    x_end: float = 0.97,
    depth: float = 0.6,
) -> np.ndarray:
    """Carve a concave cove into the lower aft surface of an airfoil.

    Real high-lift slats and mains have concave coves on their lower
    trailing regions (where the retracted downstream element nests).  The
    cove is what produces ray *self*-intersections in the boundary-layer
    generator (paper Fig. 13b-c).  We displace the lower-surface vertices
    with chordwise stations in ``[x_start, x_end]`` toward the camber line
    by a smooth bump of relative ``depth`` in (0, 1].
    """
    if not 0.0 < depth <= 1.0:
        raise ValueError("depth must be in (0, 1]")
    coords = np.asarray(coords, dtype=np.float64).copy()
    n = len(coords)
    le_idx = int(np.argmin(coords[:, 0]))
    # Lower surface follows the leading edge in CCW order.
    lower = np.arange(le_idx + 1, n)
    xs = coords[lower, 0]
    span = x_end - x_start
    inside = (xs > x_start) & (xs < x_end)
    u = (xs[inside] - x_start) / span
    bump = np.sin(math.pi * u) ** 2  # 0 at both ends, 1 mid-cove
    sel = lower[inside]
    # Pull lower-surface points up toward y=0 (the chord line); since the
    # lower surface has y<0 this creates a concavity with two concave
    # corners at the cove lips.
    coords[sel, 1] *= 1.0 - depth * bump
    return coords


def blunt_trailing_edge(coords: np.ndarray, x_cut: float = 0.98) -> np.ndarray:
    """Truncate the trailing edge at ``x_cut`` to create a blunt base.

    The vertical base introduces two slope discontinuities (paper Fig. 13e)
    that each receive a fan of rays.
    """
    coords = np.asarray(coords, dtype=np.float64)
    keep = coords[:, 0] <= x_cut
    if keep.sum() < 3:
        raise ValueError("x_cut removes nearly the whole section")
    le_idx = int(np.argmin(coords[:, 0]))
    upper = coords[:le_idx + 1][keep[:le_idx + 1]]
    lower = coords[le_idx + 1:][keep[le_idx + 1:]]

    # Interpolate exact base corners on each surface at x == x_cut.
    def _corner(p_in: np.ndarray, p_out: np.ndarray) -> np.ndarray:
        tpar = (x_cut - p_in[0]) / (p_out[0] - p_in[0])
        return p_in + tpar * (p_out - p_in)

    # upper runs TE->LE, so its first kept point follows a removed point.
    first_keep_u = int(np.flatnonzero(keep[:le_idx + 1])[0])
    if first_keep_u > 0:
        corner_u = _corner(coords[first_keep_u], coords[first_keep_u - 1])
        upper = np.vstack([corner_u, upper])
    lower_global = np.arange(le_idx + 1, len(coords))
    kept_lower = lower_global[keep[le_idx + 1:]]
    if len(kept_lower) and kept_lower[-1] + 1 < len(coords):
        corner_l = _corner(coords[kept_lower[-1]], coords[kept_lower[-1] + 1])
        lower = np.vstack([lower, corner_l])
    out = np.vstack([upper, lower])
    return _dedupe_consecutive(out)


def naca0012(n_points: int = 101) -> np.ndarray:
    """The NACA 0012 of paper Fig. 2 (sharp trailing edge)."""
    return naca4("0012", n_points)


def three_element_airfoil(
    n_points: int = 101,
    *,
    flap_deflection: float = -30.0,
) -> PSLG:
    """Synthetic three-element high-lift configuration (30p30n stand-in).

    Leading-edge slat (25% chord, deflected -30 degrees) and main element,
    each with a cove, and a slotted trailing-edge flap (30% chord) with a
    blunt trailing edge.  The default -30/-30 deflections mirror the
    30p30n designation (30 degree slat, 30 degree flap).  Gaps/overlaps
    are chosen so neighbouring boundary layers interact (multi-element
    intersections, Fig. 13d) while the loops themselves stay disjoint.
    """
    # Main element: cambered section with a lower cove where the flap nests.
    main = naca4("4412", n_points)
    main = add_cove(main, x_start=0.72, x_end=0.98, depth=0.55)
    main = transform_coords(main, scale=0.83, translate=(0.05, 0.0))

    # Slat: thin section ahead of and below the main leading edge.
    slat = naca4("4410", max(2 * n_points // 3, 31))
    slat = add_cove(slat, x_start=0.45, x_end=0.95, depth=0.65)
    slat = transform_coords(
        slat, scale=0.25, rotate_deg=-30.0, pivot=(0.0, 0.0),
        translate=(-0.155, -0.028),
    )

    # Flap: deployed downward-aft of the main trailing edge with a slot gap.
    flap = naca4("4408", max(2 * n_points // 3, 31), closed_te=False)
    flap = blunt_trailing_edge(flap, x_cut=0.97)
    flap = transform_coords(
        flap, scale=0.30, rotate_deg=flap_deflection, pivot=(0.0, 0.0),
        translate=(0.862, -0.0385),
    )

    return PSLG.from_loops(
        [slat, main, flap],
        names=["slat", "main", "flap"],
        is_body=[True, True, True],
    )


def circle(n_points: int = 64) -> np.ndarray:
    """A unit-diameter circle (cylinder section) centred at (0.5, 0) —
    the classic bluff-body test case."""
    if n_points < 3:
        raise ValueError("need >= 3 points")
    th = np.linspace(0.0, 2.0 * math.pi, n_points, endpoint=False)
    return np.column_stack([0.5 + 0.5 * np.cos(th), 0.5 * np.sin(th)])


def flat_plate(n_points: int = 51) -> np.ndarray:
    """A flat plate of unit chord and thickness 0.004 (the canonical BL
    validation body), both ends closed with vertical bases (four slope
    discontinuities).
    """
    if n_points < 3:
        raise ValueError("bad plate parameters")
    xs = np.linspace(1.0, 0.0, n_points)
    upper = np.column_stack([xs, np.full_like(xs, 0.002)])
    lower = np.column_stack([xs[::-1], np.full_like(xs, -0.002)])
    return _dedupe_consecutive(np.vstack([upper, lower]))


def joukowski(n_points: int = 101) -> np.ndarray:
    """Joukowski airfoil via the conformal map z = w + 1/w.

    The circle |w - w0| = r through w = +1 maps to an airfoil with a
    perfect cusp at the trailing edge — the sharpest TE any smooth
    geometry produces, a stress test for the cusp-fan machinery.  The
    circle centre is shifted 0.1 in -x (thickness) and 0.03 in +y
    (camber).  The result is normalised to unit chord with the leading
    edge at x = 0.
    """
    if n_points < 8:
        raise ValueError("need >= 8 points")
    w0 = complex(-0.1, 0.03)
    r = abs(1.0 - w0)
    th = np.linspace(0.0, 2.0 * math.pi, n_points, endpoint=False)
    w = w0 + r * np.exp(1j * th)
    z = w + 1.0 / w
    coords = np.column_stack([z.real, z.imag])
    # Normalise to unit chord, LE at origin, TE at (1, y_te).
    xmin = coords[:, 0].min()
    xmax = coords[:, 0].max()
    coords[:, 0] = (coords[:, 0] - xmin) / (xmax - xmin)
    coords[:, 1] = coords[:, 1] / (xmax - xmin)
    return _dedupe_consecutive(coords)


def naca5(code: str, n_points: int = 101) -> np.ndarray:
    """NACA 5-digit sections (the 230xx family and relatives).

    The camber line follows the standard 5-digit formulation with
    tabulated (m, k1) for the common camber designations; thickness uses
    the 4-digit distribution with a sharp trailing edge.
    """
    if len(code) != 5 or not code.isdigit():
        raise ValueError(f"bad NACA 5-digit code: {code!r}")
    t = int(code[3:]) / 100.0
    if t <= 0:
        raise ValueError("zero-thickness airfoil is degenerate")
    designation = code[:3]
    table = {
        "210": (0.0580, 361.400),
        "220": (0.1260, 51.640),
        "230": (0.2025, 15.957),
        "240": (0.2900, 6.643),
        "250": (0.3910, 3.230),
    }
    if designation not in table:
        raise ValueError(f"unsupported 5-digit camber {designation!r} "
                         f"(supported: {sorted(table)})")
    m, k1 = table[designation]

    x = cosine_spacing(n_points)
    yt = _naca4_thickness(x, t, closed_te=True)
    yc = np.where(
        x < m,
        (k1 / 6.0) * (x**3 - 3 * m * x**2 + m * m * (3 - m) * x),
        (k1 * m**3 / 6.0) * (1 - x),
    )
    dyc = np.where(
        x < m,
        (k1 / 6.0) * (3 * x**2 - 6 * m * x + m * m * (3 - m)),
        -(k1 * m**3 / 6.0),
    )
    theta = np.arctan(dyc)
    xu = x - yt * np.sin(theta)
    yu = yc + yt * np.cos(theta)
    xl = x + yt * np.sin(theta)
    yl = yc - yt * np.cos(theta)
    upper = np.column_stack([xu[::-1], yu[::-1]])
    lower = np.column_stack([xl[1:], yl[1:]])
    # Sharp trailing edge: drop the duplicated final lower-surface point.
    return _dedupe_consecutive(np.vstack([upper, lower])[:-1])
