"""Which of ``src/repro`` do the four ledger workloads actually run?

Runs each workload's seed-0 primary op once in this process (inputs from
``benchmarks/ledger/workloads.py``, imported read-only) under
``sys.setprofile`` and prints (1) every function of ``src/repro`` that no
workload called, by module (deletion *candidates*: one may still be a
test reference or safety code) and (2) each workload's merged
``KernelCounters`` plus three ratios of them (``locates_per_insert``,
``incircle_per_cavity_triangle``, ``orient_per_walk_step``), the
graded sizing's scalar queries (``sizing.area_at_calls``) with
``sizing.capped_share``, the share of them its bounding box answered at
the cap without a scan of the cloud (``distance_to_surface`` not
called; counted by the same profile hook, 0 where no graded sizing
runs), the
refiner's ``triangle_tests`` with ``triangle_tests_per_steiner`` (its
quality/size tests per point it inserted) and what the size tests cost
(``sizing_evals``; ``size_verdicts_clear`` decided by the sizing's
Lipschitz bound, ``size_verdicts_band`` by the centroid's exact value)
and its ways off the fast path (``locked_segment_skips``;
``straight_walk_fallbacks``, circumcenters the kernel walk located;
``blocked_circumcenters``, ones a segment hid) and, counted by the
same profile hook, the calls per Steiner point of the refiner's four
steps (``calls_per_steiner.*``: the triangle test, the straight walk,
``carve`` and ``retriangulate``; near 1 for the walk and each cavity
step means each question is asked once, the excess being attempts a
segment or a lock stopped; under ``adapt_shear`` the adaptor's own
insertions add carves and commits), the subdomain rings
triangulated (``ring_points``) with ``flips_per_ring_point`` (the Lawson
flips that made them Delaunay, per ring point: ~1.8; not printed under
adaptation, whose flips share the counter), the boundary-layer
annuli zipped from their rays (``bl_points``, the strip checks'
``bl_orient_tests``, ``bl_incircle_tests`` and ``bl_flips``, outside the
kernel block) with ``bl_flips_per_point`` (~0.3), then the
boundary-layer triangulation work item (``bl_item_s``,
``bl_item_kb``: its wall and bytes where it ran) beside the executor's
per-rank item counts when a pool ran the op (``executor.items.rank*``,
``executor.bl_item.rank*``), then the sink's ``adapt_*``
events with ``adapt_flips_per_evaluation`` (the useful share of the flip
pass's scoring) and ``adapt_quality_evals_per_evaluation`` (quality
calls per scored edge: 4 without the flip pass's per-slot memo; only
``adapt_shear`` adapts).  The
``service_mix`` daemon is out of the profiler's sight, so its in-process
op is ``check_direct`` of a served request.
Usage: ``python3 benchmarks/traffic_map.py [--smoke] [--workload NAME]``
"""

from __future__ import annotations

import argparse
import ast
import sys
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
sys.path[:0] = [str(SRC), str(Path(__file__).resolve().parent / "ledger")]

import workloads  # noqa: E402  (benchmarks/ledger/workloads.py)
from repro.runtime import counters  # noqa: E402


def defined_functions():
    """``{(file, line): (module, qualname)}`` per def of ``src/repro``
    (a decorated def's code object starts at its first decorator)."""
    out = {}

    def visit(node, path, module, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = (module, prefix + child.name)
                out.update({(str(path), at.lineno): name
                            for at in [child, *child.decorator_list]})
            elif not isinstance(child, ast.ClassDef):
                continue
            visit(child, path, module, prefix + child.name + ".")

    for path in sorted((SRC / "repro").rglob("*.py")):
        module = ".".join(path.relative_to(SRC).with_suffix("").parts)
        visit(ast.parse(path.read_text()), path, module, "")
    return out


def run_op(name: str, smoke: bool) -> counters.Counters:
    """One primary op of workload ``name`` under a counters sink."""
    wl = workloads.WORKLOADS[name](0, smoke, 1)
    with counters.use_counters() as sink:
        wl.setup(warm_up=False)
        try:
            wl.op()
            if name == "service_mix":
                for key in wl.sample_keys(1):
                    wl.check_direct(key)
            attempted, failed, notes = wl.check()
        finally:
            wl.teardown()
    if failed:
        raise SystemExit(f"{name}: {failed}/{attempted} ops failed: {notes}")
    return sink


#: The refiner's steps per Steiner point: ``(row, module, qualname)``.
REFINER_STEPS = (
    ("triangle_test", "repro.delaunay.refine", "Refiner._triangle_bad"),
    ("straight_walk", "repro.delaunay.refine", "Refiner._locate_visible"),
    ("carve", "repro.delaunay.cavity", "carve"),
    ("retriangulate", "repro.delaunay.cavity", "retriangulate"),
)

#: The graded sizing's scalar query and the scan behind it: ``area_at``
#: calls that scanned the cloud ran ``distance_to_surface`` once.
SIZING_STEPS = (
    ("area_at", "repro.sizing.functions", "GradedDistanceSizing.area_at"),
    ("scans", "repro.sizing.functions",
     "GradedDistanceSizing.distance_to_surface"),
)


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--smoke", action="store_true", help="small inputs")
    ap.add_argument("--workload", action="append",
                    choices=sorted(workloads.WORKLOADS))
    args = ap.parse_args(argv)
    calls = Counter()

    def profiler(frame, event, arg):
        if event == "call":
            code = frame.f_code
            calls[code.co_filename, code.co_firstlineno] += 1

    functions = defined_functions()
    where = {name: at for at, name in functions.items()}
    steps = {}
    sinks = {}
    sys.setprofile(profiler)    # this thread: no op here starts another
    try:
        for name in args.workload or sorted(workloads.WORKLOADS):
            before = calls.copy()
            sinks[name] = run_op(name, args.smoke)
            steps[name] = {row: calls[where[m, q]] - before[where[m, q]]
                           for row, m, q in REFINER_STEPS + SIZING_STEPS}
    finally:
        sys.setprofile(None)

    every = set(functions.values())
    dead = sorted(every - {functions[k] for k in calls if k in functions})
    print(f"== never called: {len(dead)} of {len(every)} functions of "
          f"src/repro ({', '.join(sinks)})")
    for module in sorted({m for m, _ in dead}):
        print(f"{module}: " + ", ".join(q for m, q in dead if m == module))
    for name, sink in sinks.items():
        print(f"== kernel counters: {name}")
        kernel = sink.kernel
        rows = list(kernel.as_dict().items())
        # One number per kind of duplicated traversal: a second walk, a
        # second flood of the conflict region, a walk that re-tests edges.
        for key, count, per in (
                ("locates_per_insert", kernel.locates, kernel.inserts),
                ("incircle_per_cavity_triangle", kernel.incircle_tests,
                 kernel.cavity_triangles),
                ("orient_per_walk_step", kernel.orient_tests,
                 kernel.walk_steps)):
            rows.append((key, count / per if per else 0.0))
        queries = steps[name]["area_at"]
        rows += [("sizing.area_at_calls", queries),
                 ("sizing.capped_share",
                  1.0 - steps[name]["scans"] / queries if queries else 0.0)]
        events = sink.events
        if events.get("steiner_points"):
            rows += [(k, events.get(k, 0))
                     for k in ("steiner_points", "triangle_tests",
                               "sizing_evals", "size_verdicts_clear",
                               "size_verdicts_band", "locked_segment_skips",
                               "straight_walk_fallbacks",
                               "blocked_circumcenters")]
            rows.append(("triangle_tests_per_steiner",
                         events["triangle_tests"] / events["steiner_points"]))
            rows += [(f"calls_per_steiner.{row}",
                      steps[name][row] / events["steiner_points"])
                     for row, _, _ in REFINER_STEPS]
        # The adaptor's flips and the edge splits' Lawson flips share
        # the kernel's flip counter: no ratio to ring points there.
        if events.get("ring_points") and not events.get("adapt_passes"):
            rows += [("ring_points", events["ring_points"]),
                     ("flips_per_ring_point",
                      kernel.flips / events["ring_points"])]
        if events.get("bl_points"):
            rows += [(k, events[k]) for k in ("bl_points", "bl_orient_tests",
                                              "bl_incircle_tests", "bl_flips")]
            rows.append(("bl_flips_per_point",
                         events["bl_flips"] / events["bl_points"]))
        if sink.samples.get("executor.bl_item_seconds"):
            rows += [("bl_item_s",
                      sum(sink.samples["executor.bl_item_seconds"])),
                     ("bl_item_kb",
                      sum(sink.samples["executor.bl_item_bytes"]) / 1e3)]
        rows += sorted((k, n) for k, n in events.items()
                       if k.startswith(("executor.items.rank",
                                        "executor.bl_item.rank", "adapt_")))
        if events.get("adapt_flip_evaluations"):
            rows += [(f"adapt_{k}_per_evaluation", events[f"adapt_{k}"]
                      / events["adapt_flip_evaluations"])
                     for k in ("flips", "quality_evals")]
        for key, value in rows:
            print(f"  {key:<34} {value:.6g}")


if __name__ == "__main__":
    main()
