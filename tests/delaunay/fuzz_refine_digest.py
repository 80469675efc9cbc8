"""Differential fuzz of the refinement worklist on hostile un-locked input.

``python tests/delaunay/fuzz_refine_digest.py [--cases N] [--start S]
[--expect DIGEST]`` refines ``N`` seeded star polygons twice — :class:`Refiner` and the
rescan oracle (:mod:`oracle_refine`) — and prints one digest per driver
over every mesh hash (an invalid input contributes the name of its typed
error).  The two digests must be equal, and equal to the same command's
output at any other commit that claims not to move a refined mesh; the
count of cases whose oracle rescan found work says how much of the run
exercised the survivor re-queue at all (about one valid case in 14).
With ``--expect`` the command is the check itself: it exits 1 when
either driver's digest is not the given one (CI runs ``--cases 1500
--expect e4ac8beba723``).

Un-locked refinement with ``min_edge_floor`` is where the order bad
triangles are revisited in shows: ``generate_mesh`` locks every segment,
so no ledger workload can.  1 500 cases take about a minute.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import math
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[2]
if __name__ == "__main__":
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from repro.delaunay.constrained import triangulate_pslg  # noqa: E402
from repro.delaunay.kernel import TriangulationError  # noqa: E402
from repro.delaunay.refine import (  # noqa: E402
    AreaCriterion, RefinementError, Refiner)
from repro.runtime import serde  # noqa: E402

FLOOR = 1e-3


def star_case(seed: int):
    """``(points, segments, holes, max_area)`` of case ``seed``, or
    ``None`` when the drawn angles leave a gap of pi or more (the origin
    would not be strictly inside).

    5-23 vertices at sorted uniform angles, radii in [0.3, 1]; odd seeds
    carry a small polygonal hole about the origin, which a long edge of
    the star may cross — an invalid PSLG, kept on purpose.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 24))
    angles = np.sort(rng.uniform(0.0, 2.0 * math.pi, n))
    radii = rng.uniform(0.3, 1.0, n)
    max_area = float(rng.uniform(0.002, 0.05))
    if np.diff(np.append(angles, angles[0] + 2.0 * math.pi)).max() >= math.pi:
        return None
    points = np.column_stack([radii * np.cos(angles), radii * np.sin(angles)])
    segments = [(i, (i + 1) % n) for i in range(n)]
    holes = ()
    if seed % 2:
        m = int(rng.integers(3, 8))
        ring = 2.0 * math.pi * (np.arange(m) + rng.uniform()) / m
        r = rng.uniform(0.04, 0.15, m)
        points = np.vstack([points,
                            np.column_stack([r * np.cos(ring),
                                             r * np.sin(ring)])])
        segments += [(n + i, n + (i + 1) % m) for i in range(m)]
        holes = ((0.0, 0.0),)
    return points, np.array(segments), holes, max_area


def refined(cls, points, segments, *, max_area=None, **options) -> Refiner:
    """``cls`` (a :class:`Refiner` taking ``options``) run to completion
    on the PSLG, un-locked, under a uniform area bound."""
    criterion = (None if max_area is None
                 else AreaCriterion(lambda x, y: max_area))
    refiner = cls(triangulate_pslg(points, segments), criterion=criterion,
                  **options)
    refiner.refine()
    return refiner


def mesh_hash(refiner: Refiner) -> str:
    return serde.canonical_hash(serde.pack_mesh(refiner.to_mesh()))


def outcome(cls, points, segments, **options):
    """``(mesh hash, refiner)`` of :func:`refined`, or ``(name of the
    typed error, None)`` when the input is refused."""
    try:
        refiner = refined(cls, points, segments, **options)
    except (TriangulationError, RefinementError) as exc:
        return type(exc).__name__, None
    return mesh_hash(refiner), refiner


def case_outcome(cls, seed: int):
    """:func:`outcome` of :func:`star_case` ``seed`` at :data:`FLOOR`."""
    points, segments, holes, max_area = star_case(seed)
    return outcome(cls, points, segments, holes=holes, max_area=max_area,
                   min_edge_floor=FLOOR)


def main(argv=None) -> int:
    from tests.delaunay.oracle_refine import RescanRefiner

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--cases", type=int, default=1500)
    ap.add_argument("--start", type=int, default=0)
    ap.add_argument("--expect", metavar="DIGEST",
                    help="exit 1 unless both digests equal this one")
    args = ap.parse_args(argv)
    digests = {"refiner": hashlib.sha256(), "oracle": hashlib.sha256()}
    n_cases = n_invalid = n_rescan = n_differ = 0
    for seed in itertools.count(args.start):
        if n_cases == args.cases:
            break
        if star_case(seed) is None:
            continue
        n_cases += 1
        got, _ = case_outcome(Refiner, seed)
        want, oracle = case_outcome(RescanRefiner, seed)
        digests["refiner"].update(got.encode())
        digests["oracle"].update(want.encode())
        n_invalid += oracle is None
        found = oracle is not None and oracle.rescan_found > 0
        n_rescan += found
        if got != want:
            n_differ += 1
            print(f"seed {seed}: refiner {got[:12]} oracle {want[:12]}")
        elif found:
            print(f"seed {seed}: rescan found {oracle.rescan_found}, "
                  f"mesh {got[:12]}")
    print(f"cases {n_cases} (seeds {args.start}..{seed - 1}), invalid "
          f"{n_invalid}, oracle rescan found work in {n_rescan}, "
          f"differing {n_differ}")
    moved = 0
    for name, digest in digests.items():
        print(f"digest {name:<8} {digest.hexdigest()[:12]}")
        moved += args.expect not in (None, digest.hexdigest()[:12])
    if moved:
        print(f"expected {args.expect}: a refined mesh moved")
    return 1 if n_differ or moved else 0


if __name__ == "__main__":
    sys.exit(main())
