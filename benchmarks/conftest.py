"""Shared fixtures and helpers for the experiment benchmarks.

Every benchmark regenerates one table/figure of the paper's evaluation
(see DESIGN.md's experiment index and EXPERIMENTS.md for paper-vs-measured
numbers).  Expensive artefacts (meshes, measured task costs) are built
once per session and shared.
"""

from __future__ import annotations

import time
from typing import Dict, List

import numpy as np
import pytest

from repro.core.bl_pipeline import BoundaryLayerConfig
from repro.core.pipeline import MeshConfig, generate_mesh
from repro.geometry.airfoils import naca0012, three_element_airfoil
from repro.geometry.pslg import PSLG
from repro.runtime.simulator import SimTask


def print_table(title: str, header: List[str], rows: List[List]) -> None:
    print(f"\n=== {title} ===")
    widths = [max(len(str(h)), max((len(str(r[i])) for r in rows), default=0))
              for i, h in enumerate(header)]
    print("  " + "  ".join(str(h).rjust(w) for h, w in zip(header, widths)))
    for r in rows:
        print("  " + "  ".join(str(v).rjust(w) for v, w in zip(r, widths)))


@pytest.fixture(scope="session")
def naca_mesh_result():
    """Medium push-button NACA 0012 mesh shared across benchmarks."""
    pslg = PSLG.from_loops([naca0012(81)])
    config = MeshConfig(
        bl=BoundaryLayerConfig(first_spacing=1e-3, growth_ratio=1.3,
                               max_layers=30),
        farfield_chords=30.0,
        target_subdomains=32,
    )
    return pslg, config, generate_mesh(pslg, config)


@pytest.fixture(scope="session")
def highlift_mesh_result():
    """Three-element high-lift mesh (the 30p30n stand-in)."""
    pslg = three_element_airfoil(n_points=61)
    config = MeshConfig(
        bl=BoundaryLayerConfig(first_spacing=8e-4, growth_ratio=1.3,
                               max_layers=30),
        farfield_chords=20.0,
        target_subdomains=24,
    )
    return pslg, config, generate_mesh(pslg, config)


@pytest.fixture(scope="session")
def measured_tasks(naca_mesh_result) -> List[SimTask]:
    """Per-subdomain costs measured from the live kernel, replicated to
    cluster scale (~1e4 tasks) for the strong-scaling simulations."""
    from repro.core.decouple import refine_subdomain
    from repro.sizing.functions import GradedDistanceSizing

    pslg, config, result = naca_mesh_result
    sizing = GradedDistanceSizing(
        np.vstack(result.bl.outer_borders),
        h0=result.stats["h0"], grading=config.grading,
        h_max=config.h_max_chords * result.stats["chord"],
    )
    base: List[SimTask] = []
    for sub in result.subdomains:
        t0 = time.perf_counter()
        refine_subdomain(sub, sizing)
        base.append(SimTask(cost=time.perf_counter() - t0,
                            size_bytes=16.0 * len(sub.ring)))
    bl_cost = (result.timings["boundary_layer"]
               + result.timings["bl_triangulate"])
    for _ in range(max(8, len(base) // 4)):
        base.append(SimTask(cost=bl_cost / max(8, len(base) // 4),
                            size_bytes=64e3))
    rng = np.random.default_rng(7)
    factor = max(1, 12288 // len(base))
    return [
        SimTask(cost=float(t.cost * rng.uniform(0.8, 1.25)),
                size_bytes=t.size_bytes)
        for _ in range(factor) for t in base
    ]
