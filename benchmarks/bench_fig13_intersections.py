"""E8 / Fig. 13: resolved self- and multi-element intersections.

Paper Fig. 13 highlights: (b) self-intersection at the slat cove +
trailing-edge fan, (c) self-intersection at a concave corner, (d)
multi-element intersection between neighbouring boundary layers, (e)
blunt-trailing-edge fans.  We run the three-element configuration and
verify (1) the resolution machinery fires, (2) no crossing segments
survive, and (3) the hierarchical pruning (extent-box sweep + batched
exact tests) beats brute force.
"""

import time

import numpy as np
import pytest

from repro.core.bl_pipeline import BoundaryLayerConfig, generate_boundary_layer
from repro.core.intersections import ray_segment
from repro.geometry.airfoils import three_element_airfoil
from repro.geometry.primitives import segments_intersect

from conftest import print_table


@pytest.fixture(scope="module")
def highlift_bl():
    pslg = three_element_airfoil(n_points=61)
    cfg = BoundaryLayerConfig(first_spacing=8e-4, growth_ratio=1.3,
                              max_layers=25)
    return generate_boundary_layer(pslg, cfg)


def test_fig13_truncations_fired(benchmark, highlift_bl):
    res = benchmark.pedantic(lambda: highlift_bl, rounds=1, iterations=1)
    s = res.stats
    print_table(
        "Fig. 13 — intersection resolution events",
        ["mechanism", "count"],
        [
            ["self-intersection truncations (coves, b/c)",
             int(s["n_self_truncations"])],
            ["multi-element truncations (gaps, d)",
             int(s["n_multi_truncations"])],
            ["border untangle shrinks", int(s["n_border_shrinks"])],
        ],
    )
    assert s["n_self_truncations"] > 0      # the coves
    assert s["n_multi_truncations"] > 0     # slat/main and main/flap gaps


def test_fig13_no_crossings_survive(benchmark, highlift_bl):
    """After resolution, no two BL ray segments properly cross."""

    def check():
        crossings = 0
        all_rays = [(el, r) for el, rays in
                    enumerate(highlift_bl.element_rays) for r in rays]
        segs = [
            (el, ray_segment(r, r.heights[-1] if r.heights else 0.0))
            for el, r in all_rays
        ]
        live = [(el, s) for el, s in segs if s[0] != s[1]]
        for i in range(len(live)):
            for j in range(i + 1, len(live)):
                (el1, (a1, b1)), (el2, (a2, b2)) = live[i], live[j]
                if a1 == a2:
                    continue  # shared fan origin
                if segments_intersect(a1, b1, a2, b2, proper_only=True):
                    crossings += 1
        return crossings

    crossings = benchmark.pedantic(check, rounds=1, iterations=1)
    print(f"\nFig. 13 — surviving ray crossings after resolution: "
          f"{crossings}")
    assert crossings == 0


def test_fig13_hierarchical_pruning_beats_bruteforce(benchmark):
    """The bulk pruning hierarchy (Section II.B) vs all-pairs checks."""
    from repro.core.intersections import resolve_self_intersections
    from repro.core.rays import Ray

    rng = np.random.default_rng(0)
    n = 800
    rays = []
    for i in range(n):
        x = i / n
        # Wavy surface with overlapping normals in the troughs.
        rays.append(Ray(origin=(x, 0.05 * np.sin(20 * x)),
                        direction=(0.0, 1.0)))

    def hierarchical():
        rs = [Ray(origin=r.origin, direction=r.direction) for r in rays]
        resolve_self_intersections(rs, default_height=0.5)

    def brute():
        rs = [Ray(origin=r.origin, direction=r.direction) for r in rays]
        segs = [ray_segment(r, 0.5) for r in rs]
        hits = 0
        for i in range(len(segs)):
            for j in range(i + 1, len(segs)):
                if segments_intersect(*segs[i], *segs[j], proper_only=True):
                    hits += 1
        return hits

    t0 = time.perf_counter()
    brute()
    t_brute = time.perf_counter() - t0
    benchmark.pedantic(hierarchical, rounds=1, iterations=1)
    t0 = time.perf_counter()
    hierarchical()
    t_hier = time.perf_counter() - t0
    print_table(
        "Fig. 13 / Section II.B — pruning hierarchy vs brute force "
        f"({n} rays)",
        ["method", "time"],
        [["extent-box sweep + batched exact", f"{t_hier:.3f}s"],
         ["all-pairs exact", f"{t_brute:.3f}s"],
         ["speedup", f"{t_brute / max(t_hier, 1e-9):.1f}x"]],
    )
    assert t_hier < t_brute
