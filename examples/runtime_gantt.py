#!/usr/bin/env python
"""Execution timeline of a simulated 16-rank meshing run (ASCII Gantt).

Replays 400 log-normally distributed work items on the discrete-event
cluster simulator and draws one row per rank, then reports how idle the
ranks were over the final tenth of the run.

Run:  python examples/runtime_gantt.py
"""

import numpy as np

from repro.runtime.simulator import NetworkModel, SimConfig, SimTask
from repro.runtime.trace import render_gantt, simulate_traced


def show_gantt() -> None:
    print("=== simulated 16-rank meshing timeline ===")
    rng = np.random.default_rng(0)
    tasks = [SimTask(float(c), 5e4) for c in rng.lognormal(-2.5, 1.0, 400)]
    trace = simulate_traced(tasks, 16,
                            SimConfig(network=NetworkModel(2e-6, 7e9)))
    print(render_gantt(trace, width=64, max_ranks=16))
    print(f"idle fraction over the final 10%: "
          f"{trace.idle_fraction_tail(0.1):.0%} "
          "(largest-first queueing keeps the tail busy)")


if __name__ == "__main__":
    show_gantt()
