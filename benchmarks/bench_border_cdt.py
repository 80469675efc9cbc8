"""How long the triangulations "from the boundary" of a ``generate_mesh`` take.

Every work item of ``generate_mesh`` past the boundary layer starts by
triangulating its subdomain from the rings alone
(``repro.delaunay.constrained.triangulate_polygon``), and the
boundary-layer item triangulates the annuli from their rays
(``triangulate_rays``).  This script collects the subdomains and the
boundary layer of the ledger's seed-0 ``naca_farfield`` and
``highlift_bl`` inputs (``benchmarks/ledger/workloads.py``, imported
read-only) from one serial run, then times each builder against
``triangulate_pslg`` + ``carve`` on the same PSLG, min of 7, and prints
seconds and microseconds per point of both and their ratio; the ring
checks that precede the polygon builder in ``refine_subdomain`` are
timed apart.  The ``rings`` rows are the probe for the ledger's planned
``core.border_cdt.s``.

The ``same`` column compares the triangle sets: ``yes``, ``tie`` when
they differ but the builder's triangulation has as many triangles, every
unconstrained edge passes the exact incircle test and some are exactly
cocircular (two constrained Delaunay triangulations may break such a tie
differently: the axis-aligned '+' rings of ``naca_farfield`` do), else
``NO``.  ``--smoke`` takes the smoke inputs, times one repeat, and exits
1 on a ``NO``.

Usage: ``python3 benchmarks/bench_border_cdt.py [--smoke]``
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE / "ledger")]

import workloads  # noqa: E402  (benchmarks/ledger/workloads.py)
from repro import generate_mesh  # noqa: E402
from repro.core import pipeline  # noqa: E402
from repro.core.bl_pipeline import interior_seed  # noqa: E402
from repro.delaunay.constrained import (  # noqa: E402
    carve,
    checked_rings,
    triangulate_polygon,
    triangulate_pslg,
    triangulate_rays,
)
from repro.geometry.predicates import incircle  # noqa: E402


def inputs(name: str, smoke: bool):
    """The boundary layer and every subdomain one serial
    ``generate_mesh`` of workload ``name`` refines, near-body first, in
    submission order."""
    pslg, config = workloads.WORKLOADS[name](0, smoke, 1).build_inputs()
    seen = []
    refine = pipeline.refine_subdomain

    def spy(sub, sizing):
        seen.append(sub)
        return refine(sub, sizing)

    pipeline.refine_subdomain = spy
    try:
        bl = generate_mesh(pslg, config, backend="serial").bl
    finally:
        pipeline.refine_subdomain = refine
    return bl, seen


def best_of(repeats: int, call) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - t0)
    return best


def triangle_set(tri, mask=None) -> set:
    rows = tri._arr.tri_v()
    keep = rows.min(axis=1) >= 0
    if mask is not None:
        keep &= mask[:len(rows)]
    pts = tri._arr.pts()
    return {frozenset(map(tuple, pts[row])) for row in rows[keep]}


def cocircular_edges(tri) -> int:
    """Unconstrained edges whose quad is exactly cocircular, or -1 when
    one fails the exact incircle test."""
    rows, nbrs = tri._arr.tri_v().tolist(), tri._arr.tri_n().tolist()
    pts = tri._arr.pts().tolist()
    ties = 0
    for t, (row, nb) in enumerate(zip(rows, nbrs)):
        for k, n in enumerate(nb):
            u, v = row[(k + 1) % 3], row[(k + 2) % 3]
            if (min(row) < 0 or n < t or min(rows[n]) < 0
                    or (min(u, v), max(u, v)) in tri.constraints):
                continue
            apex = next(w for w in rows[n] if w not in (u, v))
            side = incircle(*(pts[w] for w in row), pts[apex])
            if side > 0:
                return -1
            ties += side == 0
    return ties


def same(tri, ref, mask) -> str:
    mine, want = triangle_set(tri), triangle_set(ref, mask)
    if mine == want:
        return "yes"
    if len(mine) == len(want) and cocircular_edges(tri) > 0:
        return "tie"
    return "NO"


def ring_pslg(ring, holes):
    """The PSLG and hole seeds of one subdomain's rings (holes are
    clockwise, their seeds taken on the reversed ring)."""
    pts = np.vstack([ring, *holes])
    segs, base = [], 0
    for part in [ring, *holes]:
        m = len(part)
        segs += [(base + i, base + (i + 1) % m) for i in range(m)]
        base += m
    return pts, np.asarray(segs), [interior_seed(h[::-1]) for h in holes]


def pslg_cdt(points, segments, seeds):
    tri = triangulate_pslg(points, segments)
    return tri, carve(tri, seeds)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--smoke", action="store_true",
                    help="smoke inputs, one repeat; exit 1 on a triangle "
                    "set that differs from triangulate_pslg's")
    args = ap.parse_args(argv)
    repeats = 1 if args.smoke else 7
    print(f"{'workload':<14} {'builder':<9} {'parts':>5} {'points':>6} "
          f"{'build_s':>8} {'us_per_pt':>9} {'pslg_s':>8} {'us_per_pt':>9} "
          f"{'ratio':>6} {'check_s':>8} {'same':>4}")
    differ = 0
    for name in ("naca_farfield", "highlift_bl"):
        bl, subs = inputs(name, args.smoke)
        rings = [checked_rings(s.ring, s.hole_rings) for s in subs]
        ring_pslgs = [ring_pslg(r, h) for r, h in rings]
        cases = {
            "rings": (len(rings), sum(len(p) for p, _, _ in ring_pslgs),
                      lambda: [triangulate_polygon(r, h) for r, h in rings],
                      lambda: [pslg_cdt(*c) for c in ring_pslgs],
                      best_of(repeats, lambda: [
                          checked_rings(s.ring, s.hole_rings) for s in subs])),
            "bl annuli": (len(bl.outer_borders), len(bl.points),
                          lambda: [triangulate_rays(*bl.item())],
                          lambda: [pslg_cdt(bl.points, bl.segments, [
                              interior_seed(loop)
                              for loop in bl.surface_loops])],
                          None),
        }
        for builder, (parts, points, build, ref, check) in cases.items():
            verdicts = {same(tri, *want) for tri, want in zip(build(), ref())}
            verdict = next(v for v in ("NO", "tie", "yes") if v in verdicts)
            differ += verdict == "NO"
            new_s, pslg_s = best_of(repeats, build), best_of(repeats, ref)
            check_col = f"{check:>8.4f}" if check is not None else f"{'-':>8}"
            print(f"{name:<14} {builder:<9} {parts:>5} {points:>6} "
                  f"{new_s:>8.4f} {1e6 * new_s / points:>9.1f} "
                  f"{pslg_s:>8.4f} {1e6 * pslg_s / points:>9.1f} "
                  f"{new_s / pslg_s:>6.2f} {check_col} "
                  f"{verdict:>4}")
    return 1 if args.smoke and differ else 0


if __name__ == "__main__":
    sys.exit(main())
