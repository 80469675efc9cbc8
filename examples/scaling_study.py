#!/usr/bin/env python
"""Strong-scaling study on the simulated cluster (paper Figs. 11-12).

Measures real per-subdomain meshing costs from a decomposed/decoupled
run, then replays them on the discrete-event cluster simulator (alpha-beta
Infiniband network model, tree distribution, RMA-window work stealing)
for 1..256 ranks, printing the speedup/efficiency series of Figs. 11-12.

Run:  python examples/scaling_study.py
"""

import time

import numpy as np

from repro import BoundaryLayerConfig, MeshConfig, PSLG, generate_mesh, naca0012
from repro.core.decouple import estimate_triangles
from repro.runtime.simulator import NetworkModel, SimConfig, SimTask, strong_scaling
from repro.sizing.functions import GradedDistanceSizing


def measure_subdomain_costs() -> tuple[list[SimTask], float]:
    """Mesh a real case and time every subdomain refinement."""
    from repro.core.decouple import refine_subdomain

    pslg = PSLG.from_loops([naca0012(81)])
    config = MeshConfig(
        bl=BoundaryLayerConfig(first_spacing=1e-3, growth_ratio=1.3,
                               max_layers=30),
        farfield_chords=30.0,
        target_subdomains=48,
    )
    result = generate_mesh(pslg, config)
    sizing = GradedDistanceSizing(
        np.vstack(result.bl.outer_borders),
        h0=result.stats["h0"], grading=config.grading,
        h_max=config.h_max_chords * result.stats["chord"],
    )
    tasks = []
    t_total = result.timings["refinement"] + result.timings["boundary_layer"]
    for sub, mesh in zip(result.subdomains, result.inviscid_meshes[0:]):
        t0 = time.perf_counter()
        refine_subdomain(sub, sizing)
        dt = time.perf_counter() - t0
        # Payload: border vertices only (inviscid subdomains ship borders).
        tasks.append(SimTask(cost=dt, size_bytes=16.0 * len(sub.ring)))
    # The BL subdomains: model as tasks proportional to their points.
    bl_cost = (result.timings["boundary_layer"]
               + result.timings["bl_triangulate"])
    n_bl_tasks = max(8, len(tasks) // 4)
    for _ in range(n_bl_tasks):
        tasks.append(SimTask(cost=bl_cost / n_bl_tasks, size_bytes=64e3))
    return tasks, t_total


def main() -> None:
    print("measuring real per-subdomain costs ...")
    tasks, t_seq = measure_subdomain_costs()
    total = sum(t.cost for t in tasks)
    print(f"  {len(tasks)} tasks, total work {total:.2f}s "
          f"(costs from the live kernel)")

    # Scale the task population up to cluster size (the paper's fixed mesh
    # of 1.7e8 triangles is ~3 orders larger than a laptop run): replicate
    # the measured cost distribution.
    rng = np.random.default_rng(0)
    factor = 8192 // len(tasks) + 1
    big = [
        SimTask(cost=float(t.cost * rng.uniform(0.8, 1.25)),
                size_bytes=t.size_bytes)
        for _ in range(factor) for t in tasks
    ]
    total = sum(t.cost for t in big)
    print(f"  replicated to {len(big)} tasks, total {total:.1f}s\n")

    cfg = SimConfig(
        network=NetworkModel(latency=2e-6, bandwidth=7e9),  # 4X FDR IB
        serial_setup=0.002 * total,   # input read + initial quadrants
        per_task_overhead=1e-4,
    )
    table = strong_scaling(
        big, [1, 2, 4, 8, 16, 32, 64, 128, 256], cfg,
        t_sequential=total / 1.02,   # best sequential tool does 2% less work
    )
    print(f"{'ranks':>6} {'speedup':>9} {'efficiency':>11} {'steals':>7}")
    for p, row in table.items():
        print(f"{p:>6} {row['speedup']:>9.1f} {row['efficiency']:>10.0%} "
              f"{int(row['steals']):>7}")
    print("\npaper (Figs. 11-12): speedup ~102 @128, ~180 @256; "
          "efficiency ~80% @128, ~70% @256")


if __name__ == "__main__":
    main()
