"""Differential fuzz of the refinement worklist on hostile un-locked input.

``python tests/delaunay/fuzz_refine_digest.py [--cases N] [--start S]``
refines ``N`` seeded star polygons twice — :class:`Refiner` and the
rescan oracle (:mod:`oracle_refine`) — and prints one digest per driver
over every mesh hash (an invalid input contributes the name of its typed
error).  It exits 1 when the two drivers differ on any case, or when the
slice ``(S, N)`` is pinned in ``tests/pins.json`` and either digest is
not the pinned one; the count of cases whose oracle rescan found work
says how much of the run exercised the survivor re-queue at all (about
one valid case in 14).

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
from tests.pins import fuzz_slice_key, mesh_hash, pin  # noqa: E402

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


def outcome(cls, points, segments, **options):
    """``(mesh hash, refiner)`` of :func:`refined`, or ``(name of the
    typed error, None)`` when the input is refused."""
    try:
        refiner = refined(cls, points, segments, **options)
    except (TriangulationError, RefinementError) as exc:
        return type(exc).__name__, None
    return mesh_hash(refiner.to_mesh()), refiner


def case_outcome(cls, seed: int):
    """:func:`outcome` of :func:`star_case` ``seed`` at :data:`FLOOR`."""
    points, segments, holes, max_area = star_case(seed)
    return outcome(cls, points, segments, holes=holes, max_area=max_area,
                   min_edge_floor=FLOOR)


def slice_seeds(start: int, cases: int):
    """The first ``cases`` seeds from ``start`` that draw a star."""
    seeds = (seed for seed in itertools.count(start)
             if star_case(seed) is not None)
    return list(itertools.islice(seeds, cases))


def digest(hashes) -> str:
    """First 12 hex digits of the SHA-256 of ``hashes``, in order."""
    sha = hashlib.sha256()
    for h in hashes:
        sha.update(h.encode())
    return sha.hexdigest()[:12]


def slice_digest(cls, start: int, cases: int) -> str:
    """:func:`digest` of ``cls``'s outcomes on :func:`slice_seeds`."""
    return digest(case_outcome(cls, seed)[0]
                  for seed in slice_seeds(start, cases))


def main(argv=None) -> int:
    from tests.delaunay.oracle_refine import RescanRefiner

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--cases", type=int, default=1500)
    ap.add_argument("--start", type=int, default=0)
    args = ap.parse_args(argv)
    hashes = {"refiner": [], "oracle": []}
    n_invalid = n_rescan = n_differ = 0
    seeds = slice_seeds(args.start, args.cases)
    for seed in seeds:
        got, _ = case_outcome(Refiner, seed)
        want, oracle = case_outcome(RescanRefiner, seed)
        hashes["refiner"].append(got)
        hashes["oracle"].append(want)
        n_invalid += oracle is None
        found = oracle is not None and oracle.rescan_found > 0
        n_rescan += found
        if got != want:
            n_differ += 1
            print(f"seed {seed}: refiner {got[:12]} oracle {want[:12]}")
        elif found:
            print(f"seed {seed}: rescan found {oracle.rescan_found}, "
                  f"mesh {got[:12]}")
    print(f"cases {len(seeds)} (seeds {args.start}..{seeds[-1]}), invalid "
          f"{n_invalid}, oracle rescan found work in {n_rescan}, "
          f"differing {n_differ}")
    pinned = pin("fuzz_refine_digest").get(
        fuzz_slice_key(args.start, args.cases))
    moved = 0
    for name, driver_hashes in hashes.items():
        value = digest(driver_hashes)
        print(f"digest {name:<8} {value}")
        moved += pinned not in (None, value)
    if pinned is None:
        print("slice not pinned in tests/pins.json")
    elif moved:
        print(f"pinned {pinned}: a refined mesh moved")
    return 1 if n_differ or moved else 0


if __name__ == "__main__":
    sys.exit(main())
