"""The traced run of each workload: spans in, per-layer metrics out.

``run(workload, tracer)`` replays the workload's op under spans
(``replay.py``), runs the layer probes that belong to the workload, and
turns the recorded spans plus the program's own counts (``use_counters``
sink, ``MeshResult.timings/stats``, ``AdaptReport``, the service
``stats`` frame; all read, none added) into one value per metric in
``metrics.PER_LAYER``.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

import numpy as np

from repro.core.decompose import decompose, triangulate_leaves
from repro.core.pipeline import generate_mesh, mesh_workitem, \
    unpack_mesh_request
from repro.delaunay import refine_pslg, triangulate
from repro.io.meshio import write_mesh_ascii, write_mesh_npz
from repro.runtime import executor, serde
from repro.runtime.counters import use_counters
from repro.runtime.simulator import calibrate_from_counters, simulate, \
    strong_scaling
from repro.solver.adapt import l2_error, solve_on_mesh

import stats
from metrics import PER_LAYER
from replay import (ADAPT_SPANS, BL_STAGE_SPANS, MESH_SPANS, replay_adapt,
                    replay_bl_stages, replay_mesh)
from spans import Tracer
from workloads import (OUT_DIR, REPO_ROOT, SQUARE_SEGS, UNIT_SQUARE,
                       AdaptShear, MeshWorkload, ServiceMix, mesh_hash)

__all__ = ["run"]

#: interleaved (untraced op, traced replay) pairs of a traced run.
REPLAY_PAIRS = 3
#: (burst, hits) rounds of the service's traced run.
SERVICE_ROUNDS = 10
SIZING_POINTS = 10_000
DISPATCH_CALLS = 20
PINGS = 200
CLI_STARTS = 3
#: misses re-meshed in-process for runtime.service.overhead_ms.
SERVICE_SAMPLE = 8
UNIFORM_AREAS = [0.02, 0.005, 0.00125, 0.0003125, 7.8125e-05]

PROBE_SPANS = [
    "core.decompose", "sizing.eval", "delaunay.triangulate_scalar",
    "delaunay.triangulate_batch", "delaunay.mesh_batch",
    "solver.uniform_equal_error", "runtime.executor.warm_op",
    "runtime.executor.dispatch", "runtime.serde.mesh_roundtrip",
    "runtime.serde.shm_roundtrip", "runtime.serde.hash",
    "runtime.service.ping", "runtime.service.miss", "runtime.service.hit",
    "runtime.service.inprocess", "io.write_ascii", "io.write_npz",
    "cli.startup", "bench.op_replay",
]

#: time metric -> (span name(s), aggregate, scale to the metric's unit).
#: ``replay`` aggregates read only the fastest replay's spans.
TIME_METRICS: Dict[str, Tuple[Tuple[str, ...], str, float]] = {
    "core.bl.s": (("core.bl",), "replay_sum", 1.0),
    "core.bl.rays_s": (("core.bl.rays",), "sum", 1.0),
    "core.bl.intersections_s": (("core.bl.intersections",), "sum", 1.0),
    "core.bl.insert_s": (("core.bl.insert",), "sum", 1.0),
    "core.bl.triangulate_s": (("core.bl.triangulate",), "sum", 1.0),
    "core.decouple.s": (("core.nearbody", "core.decouple"), "replay_sum",
                        1.0),
    "core.merge.s": (("core.merge",), "replay_sum", 1.0),
    "core.decompose.s": (("core.decompose",), "sum", 1.0),
    "sizing.eval_us": (("sizing.eval",), "sum", 1e6 / SIZING_POINTS),
    "delaunay.refine.s": (("delaunay.refine",), "replay_sum", 1.0),
    "delaunay.refine.max_item_s": (("delaunay.refine",), "replay_max", 1.0),
    "delaunay.triangulate_scalar_s": (("delaunay.triangulate_scalar",),
                                      "sum", 1.0),
    "delaunay.triangulate_batch_s": (("delaunay.triangulate_batch",),
                                     "sum", 1.0),
    "delaunay.mesh_batch_s": (("delaunay.mesh_batch",), "sum", 1.0),
    "delaunay.adapt.s": (("delaunay.adapt",), "replay_sum", 1.0),
    "metric.hessian_s": (("metric.hessian",), "replay_sum", 1.0),
    "metric.limit_s": (("metric.limit",), "replay_sum", 1.0),
    "solver.solve_s": (("solver.solve", "solver.l2_error"), "replay_sum",
                       1.0),
    "solver.uniform_equal_error_s": (("solver.uniform_equal_error",), "sum",
                                     1.0),
    "runtime.executor.dispatch_ms": (("runtime.executor.dispatch",),
                                     "median", 1e3),
    "runtime.serde.item_pack_ms": (("runtime.serde.item_pack",),
                                   "replay_mean", 1e3),
    "runtime.serde.mesh_roundtrip_ms": (("runtime.serde.mesh_roundtrip",),
                                        "median", 1e3),
    "runtime.serde.shm_roundtrip_ms": (("runtime.serde.shm_roundtrip",),
                                       "median", 1e3),
    "runtime.serde.hash_ms": (("runtime.serde.hash",), "median", 1e3),
    "runtime.service.ping_rtt_ms": (("runtime.service.ping",), "median",
                                    1e3),
    "runtime.service.miss_p90_ms": (("runtime.service.miss",), "p90", 1e3),
    "runtime.service.hit_p99_ms": (("runtime.service.hit",), "p99", 1e3),
    "io.write_ascii_s": (("io.write_ascii",), "sum", 1.0),
    "io.write_npz_s": (("io.write_npz",), "sum", 1.0),
    "cli.startup_s": (("cli.startup",), "median", 1.0),
}

AGGREGATES: Dict[str, Callable[[List[float]], float]] = {
    "sum": sum,
    "max": max,
    "mean": lambda v: sum(v) / len(v),
    "median": stats.median,
    "p90": lambda v: stats.percentile(v, 90.0),
    "p99": lambda v: stats.percentile(v, 99.0),
}


def _repeat(tr: Tracer, name: str, times: int, fn: Callable[[], object]):
    out = None
    for _ in range(times):
        with tr.span(name):
            out = fn()
    return out


# ----------------------------------------------------------------------
# Probes shared by several workloads
# ----------------------------------------------------------------------
def probe_outputs(tr: Tracer, mesh) -> None:
    """What a CLI user pays on top of the op: start-up and the writers."""
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        with tr.span("io.write_ascii"):
            write_mesh_ascii(os.path.join(tmp, "mesh"), mesh)
        with tr.span("io.write_npz"):
            write_mesh_npz(os.path.join(tmp, "mesh.npz"), mesh)
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    for _ in range(CLI_STARTS):
        with tr.span("cli.startup"):
            subprocess.run(
                [sys.executable, "-c",
                 "import repro.cli as c; c.build_parser()"],
                check=True, env=env, stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL)


def probe_mesh_layers(tr: Tracer, seed: int, mesh, sizing, request) -> None:
    """Sizing evaluation and the serde paths, on the op's own data."""
    lo, hi = mesh.points.min(axis=0), mesh.points.max(axis=0)
    pts = np.random.default_rng(seed).uniform(lo, hi, (SIZING_POINTS, 2))
    with tr.span("sizing.eval"):
        for x, y in pts.tolist():
            sizing.area_at(x, y)

    def mesh_roundtrip():
        blob = serde.buffers_to_bytes(serde.pack_mesh(mesh))
        return serde.unpack_mesh(serde.bytes_to_buffers(blob))

    def shm_roundtrip():
        wire = serde.buffers_to_wire(serde.pack_mesh(mesh))
        try:
            return serde.unpack_mesh(serde.wire_to_buffers(wire))
        finally:
            serde.discard_wire(wire)

    _repeat(tr, "runtime.serde.mesh_roundtrip", 5, mesh_roundtrip)
    _repeat(tr, "runtime.serde.shm_roundtrip", 5, shm_roundtrip)
    _repeat(tr, "runtime.serde.hash", 20,
            lambda: serde.canonical_hash(request))


def _echo(payload):
    """Near-zero-work executor item: the call's wall is dispatch cost."""
    return payload


def probe_dispatch(tr: Tracer, ranks: int) -> None:
    backend = executor.get_backend("processes")
    payloads = [{"x": np.full(8, float(i))} for i in range(ranks)]
    backend.map_workitems(_echo, payloads, n_ranks=ranks)
    _repeat(tr, "runtime.executor.dispatch", DISPATCH_CALLS,
            lambda: backend.map_workitems(_echo, payloads, n_ranks=ranks))


# ----------------------------------------------------------------------
# Replays
# ----------------------------------------------------------------------
@dataclass
class Replayed:
    """What interleaved (untraced op, traced replay) pairs measured."""

    #: median wall of the untraced ops.
    op_untraced: float
    #: op label of the fastest replay; its spans feed the layer times.
    best: str
    #: what that replay returned.
    out: Dict[str, object]
    #: medians over the pairs of (span self time under the replay) and
    #: (replay wall - untraced wall), each over the pair's untraced wall.
    coverage: float
    overhead: float


def replay_pairs(w, tr: Tracer,
                 replay: Callable[[], Dict[str, object]]) -> Replayed:
    """Interleave untraced ops with traced replays.

    The machine's speed drifts between one op and the next, so coverage
    and overhead are taken pair by pair, neighbours against neighbours,
    and the median pair is reported.
    """
    untraced: List[float] = []
    coverage: List[float] = []
    overhead: List[float] = []
    best, best_wall, best_out = "", float("inf"), {}
    for i in range(1 if w.smoke else REPLAY_PAIRS):
        samples = w.op()
        label = f"replay{i}"
        t0 = time.perf_counter()
        with tr.op(label), tr.span("bench.op_replay"):
            out = replay()
        wall = time.perf_counter() - t0
        if wall < best_wall:
            best, best_wall, best_out = label, wall, out
        if samples:
            # What the replay spent outside any span stays with the
            # bench layer and is not counted as covered.
            layers = tr.layer_self_times(label)
            covered = sum(t for layer, t in layers.items()
                          if layer != "bench")
            untraced.append(samples[0])
            coverage.append(covered / samples[0])
            overhead.append((wall - samples[0]) / samples[0])
    w.info.update(layer_self_s={k: round(v, 4) for k, v in
                                sorted(tr.layer_self_times(best).items())})
    if not untraced:
        return Replayed(float("nan"), best, best_out, 0.0, 0.0)
    return Replayed(stats.median(untraced), best, best_out,
                    stats.median(coverage), stats.median(overhead))


def span_times(tr: Tracer, values: Dict[str, float], best: str) -> None:
    """Every time metric, from the spans recorded so far."""
    for name, (span_names, aggregate, scale) in TIME_METRICS.items():
        op = best if aggregate.startswith("replay_") else None
        durations = [d for s in span_names for d in tr.durations(s, op)]
        fn = AGGREGATES[aggregate.replace("replay_", "")]
        values[name] = fn(durations) * scale
    values["runtime.service.overhead_ms"] = 1e3 * (
        stats.median(tr.durations("runtime.service.miss"))
        - stats.median(tr.durations("runtime.service.inprocess")))


def bench_values(values: Dict[str, float], replayed: Replayed,
                 parity: bool) -> None:
    values["bench.op_untraced_s"] = replayed.op_untraced
    values["bench.coverage"] = replayed.coverage
    values["bench.trace_overhead_frac"] = replayed.overhead
    values["bench.replay_parity"] = float(parity)


# ----------------------------------------------------------------------
# Mesh ops: naca_farfield, highlift_bl, and one service_mix miss
# ----------------------------------------------------------------------
def mesh_op_values(tr: Tracer, values: Dict[str, float], best: str,
                   out: Dict[str, object]) -> None:
    """Counts and ratios of one replayed mesh op."""
    bl = out["bl"]
    values["core.bl.points"] = bl.stats["n_points"]
    values["core.bl.truncations"] = (bl.stats["n_self_truncations"]
                                     + bl.stats["n_multi_truncations"])
    costs = out["costs"]
    values["core.decouple.subdomains"] = float(len(costs))
    values["core.decouple.cost_imbalance"] = max(costs) / (sum(costs)
                                                           / len(costs))
    values["runtime.serde.item_kb"] = (sum(out["item_bytes"])
                                       / len(out["item_bytes"]) / 1e3)
    refined = sum(m.n_triangles for m in out["meshes"])
    values["delaunay.refine.tri_per_s"] = (refined
                                           / values["delaunay.refine.s"])
    serial = (values["core.bl.s"] + values["core.decouple.s"]
              + values["core.merge.s"] + tr.total("sizing.build", best))
    values["core.serial_frac"] = serial / (serial
                                           + values["delaunay.refine.s"])


def kernel_counts(values: Dict[str, float], sink) -> None:
    """The kernel's own counts for one serial op (they repeat exactly)."""
    kernel = sink.kernel.as_dict()
    values["delaunay.refine.steiner_points"] = float(
        sink.events.get("steiner_points", 0))
    for key in ("inserts", "walk_steps_mean", "cavity_size_mean",
                "exact_escalation_rate"):
        values[f"delaunay.kernel.{key}"] = float(kernel[key])


def trace_mesh(w: MeshWorkload, tr: Tracer, values: Dict[str, float]):
    notes: List[str] = []
    replayed = replay_pairs(w, tr,
                            lambda: replay_mesh(tr, w.pslg, w.config))
    out = replayed.out
    reference = w.reference_hash()
    parity = mesh_hash(out["mesh"]) == reference
    if not parity:
        notes.append("replayed mesh hash differs from the timed op's")
    with tr.op("bl_stages"):
        stages_ok = replay_bl_stages(tr, w.pslg, w.config.bl, out["bl"])
    if not stages_ok:
        notes.append("BL stage replay does not reproduce the BL result")

    # The program's own counts for one serial op, then the warm op: once
    # plain for its wall, once under the sink for the executor samples.
    with use_counters() as sink:
        w.op()
    kernel_counts(values, sink)
    with tr.span("runtime.executor.warm_op"):
        w.op_warm()
    with use_counters() as sink:
        w.op_warm()
    speedup = replayed.op_untraced / tr.total("runtime.executor.warm_op")
    items = sink.samples.get("executor.item_seconds", [])
    per_rank = [n for key, n in sink.events.items()
                if key.startswith("executor.items.rank")]
    values["runtime.executor.speedup"] = speedup
    values["runtime.executor.efficiency"] = speedup / w.ranks
    values["runtime.executor.busy_frac"] = sum(items) / (
        w.ranks * w.last_result.timings["refinement"])
    values["runtime.executor.items_max_rank_frac"] = (
        max(per_rank) / sum(per_rank) if per_rank else 0.0)
    values["runtime.executor.steals"] = float(
        sink.events.get("executor.steals", 0))
    if w.name == "naca_farfield" and items:
        tasks, cfg = calibrate_from_counters(sink, replicate_to=len(items))
        serial = sum(t.cost for t in tasks) + cfg.serial_setup
        values["runtime.sim.pred_speedup"] = (
            serial / simulate(tasks, w.ranks, cfg).makespan)
        tasks, cfg = calibrate_from_counters(sink)
        # Triangle, the best sequential mesher, runs ~2 % faster than
        # the per-subdomain sum: the Fig. 11 reference baseline.
        table = strong_scaling(tasks, [256], cfg,
                               t_sequential=sum(t.cost for t in tasks) / 1.02)
        values["runtime.sim.s256"] = table[256]["speedup"]

    probe_dispatch(tr, w.ranks)
    request = serde.nest("pslg.", serde.pack_pslg(w.pslg))
    probe_mesh_layers(tr, w.seed, out["mesh"], out["sizing"], request)
    probe_outputs(tr, out["mesh"])
    if w.name == "highlift_bl":
        with tr.span("core.decompose"):
            result = decompose(out["bl"].points)
            triangulate_leaves(result)
        values["core.decompose.balance"] = float(result.balance())
        values["core.decompose.leaves"] = float(len(result.leaves))
    if w.name == "naca_farfield":
        points = out["mesh"].points
        with tr.span("delaunay.triangulate_scalar"):
            triangulate(points, strategy="scalar")
        with tr.span("delaunay.triangulate_batch"):
            triangulate(points, strategy="batch")
        with tr.span("delaunay.mesh_batch"):
            batch = generate_mesh(w.pslg, w.config, backend="serial",
                                  insert_strategy="batch")
        values["delaunay.batch_parity"] = float(
            mesh_hash(batch.mesh) == reference)
        w.info.update(batch_triangles=batch.mesh.n_triangles)

    span_times(tr, values, replayed.best)
    mesh_op_values(tr, values, replayed.best, out)
    bench_values(values, replayed, parity)
    return 2, (not parity) + (not stages_ok), notes


# ----------------------------------------------------------------------
# adapt_shear
# ----------------------------------------------------------------------
def trace_adapt(w: AdaptShear, tr: Tracer, values: Dict[str, float]):
    notes: List[str] = []
    del w.problems[1:]  # every traced op on the problem the replay uses
    replayed = replay_pairs(
        w, tr, lambda: replay_adapt(tr, w.mesh0, w.problem, **w.loop))
    out = replayed.out
    reference = w.reference_hash()
    parity = mesh_hash(out["mesh"]) == reference
    if not parity:
        notes.append("replayed adapt mesh hash differs from the timed op's")

    with tr.span("runtime.executor.warm_op"):
        w.op_warm()
    values["runtime.executor.speedup"] = (
        replayed.op_untraced / tr.total("runtime.executor.warm_op"))

    # Error per second: the first uniform level at least as accurate.
    target = out["errors"][-1]
    for area in UNIFORM_AREAS:
        t0 = time.perf_counter()
        mesh = refine_pslg(UNIT_SQUARE.copy(), SQUARE_SEGS.copy(),
                           max_area=area)
        err = l2_error(mesh, solve_on_mesh(mesh, w.problem), w.problem)
        t1 = time.perf_counter()
        if err <= target or area == UNIFORM_AREAS[-1]:
            tr.record("solver.uniform_equal_error", t0, t1)
            w.info.update(uniform_equal_error_dof=mesh.n_points,
                          uniform_equal_error=err)
            break
    probe_outputs(tr, out["mesh"])

    span_times(tr, values, replayed.best)
    reports = out["reports"]
    ops = sum(r.splits + r.collapses + r.flips + r.smooth_moves
              for r in reports)
    values["delaunay.adapt.ops"] = float(ops)
    values["delaunay.adapt.ops_per_s"] = ops / values["delaunay.adapt.s"]
    values["delaunay.adapt.conformity"] = float(reports[-1].conformity_after)
    values["delaunay.adapt.dof"] = float(out["mesh"].n_points)
    values["solver.l2_error"] = float(target)
    bench_values(values, replayed, parity)
    return 1, int(not parity), notes


# ----------------------------------------------------------------------
# service_mix
# ----------------------------------------------------------------------
def trace_service(w: ServiceMix, tr: Tracer, values: Dict[str, float]):
    notes: List[str] = []
    client = w.clients[0]
    for _ in range(PINGS):
        with tr.span("runtime.service.ping"):
            client.ping()

    w.tracer = tr
    misses: List[float] = []
    n_hits, hit_wall = 0, 0.0
    for _ in range(2 if w.smoke else SERVICE_ROUNDS):
        misses.extend(w.op())
        t0 = time.perf_counter()
        n_hits += len(w.op_warm())
        hit_wall += time.perf_counter() - t0
    w.tracer = None

    sample = w.sample_keys(SERVICE_SAMPLE)
    for key in sample:
        with tr.span("runtime.service.inprocess"):
            w.check_direct(key)
    values["runtime.service.hit_req_per_s"] = n_hits / hit_wall
    values["runtime.service.request_kb"] = w.frame_bytes["request"] / 1e3
    values["runtime.service.reply_kb"] = w.frame_bytes["reply"] / 1e3
    server = client.stats()
    values["runtime.service.hit_ratio"] = server["hit_ratio"]
    values["runtime.service.evictions"] = server["cache_evictions"]
    values["runtime.service.batch_size_mean"] = server["batch_size_mean"]

    # What a miss does inside a pool worker, layer by layer.
    payload = w.payloads[sample[0]]
    with use_counters() as sink:
        mesh_workitem(payload)
    kernel_counts(values, sink)
    pslg, config = unpack_mesh_request(payload)
    with tr.op("replay0"), tr.span("bench.op_replay"):
        out = replay_mesh(tr, pslg, config)
    blob = serde.buffers_to_bytes(serde.pack_mesh(out["mesh"]))
    parity = blob == w.first_bytes[sample[0]]
    if not parity:
        notes.append("replayed miss differs from the served bytes")
    with tr.op("bl_stages"):
        replay_bl_stages(tr, pslg, config.bl, out["bl"])
    probe_mesh_layers(tr, w.seed, out["mesh"], out["sizing"], payload)
    probe_outputs(tr, out["mesh"])

    span_times(tr, values, "replay0")
    mesh_op_values(tr, values, "replay0", out)
    values["bench.op_untraced_s"] = stats.median(misses)
    values["bench.replay_parity"] = float(parity)
    return 1, int(not parity), notes


# ----------------------------------------------------------------------
def run(workload, tr: Tracer):
    """Traced run -> ``(values, attempted, failed, notes)``."""
    tr.calibrate(sorted(set(MESH_SPANS + BL_STAGE_SPANS + ADAPT_SPANS
                            + PROBE_SPANS)))
    values: Dict[str, float] = {m.name: 0.0 for m in PER_LAYER}
    if isinstance(workload, MeshWorkload):
        attempted, failed, notes = trace_mesh(workload, tr, values)
    elif isinstance(workload, AdaptShear):
        attempted, failed, notes = trace_adapt(workload, tr, values)
    else:
        attempted, failed, notes = trace_service(workload, tr, values)
    return values, attempted, failed, notes
