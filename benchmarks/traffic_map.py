"""Which of ``src/repro`` do the four ledger workloads actually run?

Runs each workload's seed-0 primary op once in this process (inputs from
``benchmarks/ledger/workloads.py``, imported read-only) under
``sys.setprofile`` and prints (1) every function of ``src/repro`` that no
workload called, by module (deletion *candidates*: one may still be a
test reference or safety code) and (2) each workload's merged
``KernelCounters`` plus three ratios of them (``locates_per_insert``,
``incircle_per_cavity_triangle``, ``orient_per_walk_step``), the
refiner's ``triangle_tests`` with ``triangle_tests_per_steiner`` (its
quality/size tests per point it inserted) and what the size tests cost
(``sizing_evals``; ``size_verdicts_clear`` decided by the sizing's
Lipschitz bound, ``size_verdicts_band`` by the centroid's exact value)
and its ways off the fast path (``locked_segment_skips``;
``straight_walk_fallbacks``, circumcenters the kernel walk located;
``blocked_circumcenters``, ones a segment hid), then the boundary-layer triangulation work item (``bl_item_s``,
``bl_item_kb``: its wall and bytes where it ran) beside the executor's
per-rank item counts when a pool ran the op (``executor.items.rank*``,
``executor.bl_item.rank*``), then the sink's ``adapt_*``
events with ``adapt_flips_per_evaluation`` (the useful share of the flip
pass's scoring; only ``adapt_shear`` adapts).  The
``service_mix`` daemon is out of the profiler's sight, so its in-process
op is ``check_direct`` of a served request.
Usage: ``python3 benchmarks/traffic_map.py [--smoke] [--workload NAME]``
"""

from __future__ import annotations

import argparse
import ast
import sys
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


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--smoke", action="store_true", help="small inputs")
    ap.add_argument("--workload", action="append",
                    choices=sorted(workloads.WORKLOADS))
    args = ap.parse_args(argv)
    called = set()

    def profiler(frame, event, arg):
        if event == "call":
            code = frame.f_code
            called.add((code.co_filename, code.co_firstlineno))

    sys.setprofile(profiler)    # this thread: no op here starts another
    try:
        sinks = {name: run_op(name, args.smoke)
                 for name in args.workload or sorted(workloads.WORKLOADS)}
    finally:
        sys.setprofile(None)

    functions = defined_functions()
    every = set(functions.values())
    dead = sorted(every - {functions[k] for k in called if k in functions})
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
        if sink.samples.get("executor.bl_item_seconds"):
            rows += [("bl_item_s",
                      sum(sink.samples["executor.bl_item_seconds"])),
                     ("bl_item_kb",
                      sum(sink.samples["executor.bl_item_bytes"]) / 1e3)]
        rows += sorted((k, n) for k, n in events.items()
                       if k.startswith(("executor.items.rank",
                                        "executor.bl_item.rank", "adapt_")))
        if events.get("adapt_flip_evaluations"):
            rows.append(("adapt_flips_per_evaluation", events["adapt_flips"]
                         / events["adapt_flip_evaluations"]))
        for key, value in rows:
            print(f"  {key:<28} {value:.6g}")


if __name__ == "__main__":
    main()
