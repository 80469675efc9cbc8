"""The refiner's geometry on coordinates against the point-tuple forms.

The refiner's hot path reads the kernel's flat arrays and passes scalars:
its orientation (``refine._orient``: the float filter, then
``orient2d``), the straight walk's crossing test (``refine._crosses``,
which takes the sign ``d2`` the walk already has) and its circumcenter
(``refine._circumcenter``, ``None`` where the tuple form raised or went
non-finite).  Each must decide exactly what ``predicates.orient2d``,
``primitives.segments_intersect`` (touching counts) and the old
``circumcenter`` (``oracle_refine``) decide, float for float, on inputs
built to sit on the boundaries: collinear runs, shared endpoints,
axis-aligned segments, 1-ulp offsets and coordinates whose products
straddle ``ORIENT_UNDERFLOW_GUARD``.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.delaunay import refine
from repro.geometry.predicates import ORIENT_UNDERFLOW_GUARD, orient2d
from repro.geometry.primitives import segments_intersect

from tests.delaunay.oracle_refine import circumcenter
from tests.geometry.oracle_predicates import _orient2d_exact

#: Common scales of a drawn configuration: plain, small, large, and
#: three where squared coordinate differences sit around the guard.
GUARD_SIDE = math.sqrt(ORIENT_UNDERFLOW_GUARD)
SCALES = [1.0, 3e-3, 7e2, 1e140, 4 * GUARD_SIDE, GUARD_SIDE,
          GUARD_SIDE / 4]


def nudge(x: float, ulps: int) -> float:
    for _ in range(abs(ulps)):
        x = math.nextafter(x, math.inf if ulps > 0 else -math.inf)
    return x


@st.composite
def configurations(draw, n):
    """``n`` points derived from three base points on one scale: a base
    or earlier point again (shared endpoints), a point on the line of
    two (collinear runs), the x of one with the y of another
    (axis-aligned segments), or any of those moved by 1-2 ulps."""
    scale = draw(st.sampled_from(SCALES))
    coord = st.one_of(st.integers(-3, 3).map(float),
                      st.floats(-4.0, 4.0, allow_nan=False))
    pool = [(draw(coord) * scale, draw(coord) * scale) for _ in range(3)]
    out = []
    for _ in range(n):
        p = draw(st.sampled_from(pool + out))
        q = draw(st.sampled_from(pool + out))
        kind = draw(st.sampled_from(["same", "line", "axis", "nudge"]))
        if kind == "line":
            t = draw(st.sampled_from([0.5, 2.0, -1.0, 1.0 / 3.0, 0.25]))
            p = (p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1]))
        elif kind == "axis":
            p = (p[0], q[1])
        elif kind == "nudge":
            p = (nudge(p[0], draw(st.integers(-2, 2))),
                 nudge(p[1], draw(st.integers(-2, 2))))
        out.append(p)
    return out


@settings(max_examples=600, deadline=None)
@given(configurations(3))
def test_orientation_is_orient2d(pts):
    a, b, c = pts
    want = orient2d(a, b, c)
    assert refine._orient(*a, *b, *c) == want
    assert want == _orient2d_exact(*a, *b, *c)


@settings(max_examples=600, deadline=None)
@given(configurations(4))
def test_crossing_is_segments_intersect(pts):
    s, p, u, v = pts
    d2 = orient2d(u, v, p)
    assert (refine._crosses(*s, *p, *u, *v, d2)
            == segments_intersect(s, p, u, v))


@settings(max_examples=600, deadline=None)
@given(configurations(3))
def test_circumcenter_is_the_point_tuple_one(pts):
    try:
        want = circumcenter(*pts)
    except ValueError:
        want = None
    if want is not None and not all(map(math.isfinite, want)):
        want = None  # the refiner skipped a non-finite circumcenter too
    got = refine._circumcenter(*pts[0], *pts[1], *pts[2])
    if want is None:
        assert got is None
    else:
        assert [v.hex() for v in got] == [v.hex() for v in want]


def test_filter_decides_and_escalation_falls_back(monkeypatch):
    """Both halves of ``_orient`` run: a clear sign never reaches
    ``orient2d``, an exact zero always does."""
    calls = []

    def counting(*args):
        calls.append(args)
        return orient2d(*args)

    monkeypatch.setattr(refine, "orient2d", counting)
    assert refine._orient(0.0, 0.0, 1.0, 0.0, 0.3, 0.7) == 1
    assert calls == []
    assert refine._orient(0.0, 0.0, 1.0, 1.0, 3.0, 3.0) == 0
    assert len(calls) == 1
