"""How long the subdomain triangulations of a ``generate_mesh`` take.

Every work item of ``generate_mesh`` past the boundary layer starts by
triangulating its subdomain from the rings alone
(``repro.delaunay.constrained.triangulate_polygon``).  This script
collects the subdomains of the ledger's seed-0 ``naca_farfield`` and
``highlift_bl`` inputs (``benchmarks/ledger/workloads.py``, imported
read-only) from one serial run, then times all of their triangulations
together, min of 7, and prints seconds, ring points and microseconds per
ring point; the ring checks that precede them in ``refine_subdomain``
are timed apart.  It is the probe for the ledger's planned
``core.border_cdt.s``.

Usage: ``python3 benchmarks/bench_border_cdt.py``
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE / "ledger")]

import workloads  # noqa: E402  (benchmarks/ledger/workloads.py)
from repro import generate_mesh  # noqa: E402
from repro.core import decouple, pipeline  # noqa: E402
from repro.delaunay.constrained import triangulate_polygon  # noqa: E402


def subdomains(name: str):
    """Every subdomain one serial ``generate_mesh`` of workload ``name``
    refines, near-body first, in submission order."""
    pslg, config = workloads.WORKLOADS[name](0, False, 1).build_inputs()
    seen = []
    refine = pipeline.refine_subdomain

    def spy(sub, sizing):
        seen.append(sub)
        return refine(sub, sizing)

    pipeline.refine_subdomain = spy
    try:
        generate_mesh(pslg, config, backend="serial")
    finally:
        pipeline.refine_subdomain = refine
    return seen


def best_of_7(call) -> float:
    best = float("inf")
    for _ in range(7):
        t0 = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - t0)
    return best


def main() -> None:
    print(f"{'workload':<14} {'rings':>5} {'points':>6} {'cdt_s':>8} "
          f"{'us_per_pt':>9} {'check_s':>8}")
    for name in ("naca_farfield", "highlift_bl"):
        subs = subdomains(name)
        rings = [decouple.checked_rings(s) for s in subs]
        points = sum(len(r) + sum(map(len, h)) for r, h in rings)
        cdt = best_of_7(lambda: [triangulate_polygon(r, h) for r, h in rings])
        check = best_of_7(lambda: [decouple.checked_rings(s) for s in subs])
        print(f"{name:<14} {len(rings):>5} {points:>6} {cdt:>8.4f} "
              f"{1e6 * cdt / points:>9.1f} {check:>8.4f}")


if __name__ == "__main__":
    main()
