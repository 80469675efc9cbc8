"""The ledger's metric registry: names, units, directions, bounds.

``BENCHMARK.json`` at the repo root repeats these tables (a self-test
keeps the two in step).  Every run prints every metric of its kind:
end-to-end metrics with tracing off, per-layer metrics from the traced
run.  A per-layer metric whose layer a workload never enters reads 0
(counts, ratios) or the span recorder's own resolution (times).
"""

from __future__ import annotations

from typing import List, NamedTuple

__all__ = ["EndToEnd", "PerLayer", "END_TO_END", "PER_LAYER"]


class EndToEnd(NamedTuple):
    name: str
    unit: str
    better: str
    #: share of the parent's median by which the metric may get worse.
    bound: float
    definition: str


class PerLayer(NamedTuple):
    name: str
    unit: str
    better: str
    #: workloads whose traced run measures it (others print 0/resolution).
    home: str
    how: str
    #: the end-to-end metric it should move, and where.
    moves: str


#: The three timings are walls (the median set-up, the first quartile of
#: each op's samples) scaled from the run's machine pace to a reference
#: pace (README, "Noise").  Their bounds are still 25 %:
#: on this shared 2-cpu box the speed wanders by tens of percent for
#: minutes at a time and the scaling removes only part of that.
END_TO_END: List[EndToEnd] = [
    EndToEnd("setup_s", "s", "lower", 0.25,
             "interpreter start until the workload could run its first "
             "timed op: import repro, build inputs, fork and warm the pool "
             "or start the daemon until ping answers; warm-up op excluded; "
             "median of 5 fresh interpreters, pace-scaled"),
    EndToEnd("op_s", "s", "lower", 0.25,
             "wall of one primary op: serial generate_mesh (mesh "
             "workloads), in-process adapt_loop (adapt_shear), burst start "
             "until a cache-miss reply (service_mix); first quartile of the "
             "run's samples, pace-scaled"),
    EndToEnd("op_warm_s", "s", "lower", 0.25,
             "wall of the same request on the long-lived path: "
             "generate_mesh / adapt_loop on the warm processes pool, or a "
             "cache-hit round trip (service_mix); first quartile of the "
             "run's samples, pace-scaled"),
    EndToEnd("peak_rss_mb", "MB", "lower", 0.10,
             "largest resident set of any process the workload ran "
             "(ru_maxrss of the interpreter and of its waited-for "
             "children: pool workers, daemon)"),
]

_MESH = "naca_farfield highlift_bl service_mix"
_POOL = "naca_farfield highlift_bl"
_ALL = "all"

PER_LAYER: List[PerLayer] = [
    # -- core ----------------------------------------------------------
    PerLayer("core.bl.s", "s", "lower", _MESH,
             "span generate_boundary_layer",
             "op_s on highlift_bl (the largest share); a few % on "
             "naca_farfield: predicted no visible change there"),
    PerLayer("core.bl.rays_s", "s", "lower", _MESH,
             "stage replay: loop_surface_vertices + refine_rays",
             "core.bl.s -> op_s on highlift_bl"),
    PerLayer("core.bl.intersections_s", "s", "lower", _MESH,
             "stage replay: resolve_self/multi_element_intersections",
             "core.bl.s -> op_s on highlift_bl (largest BL stage)"),
    PerLayer("core.bl.insert_s", "s", "lower", _MESH,
             "stage replay: insert_points",
             "core.bl.s -> op_s on highlift_bl"),
    PerLayer("core.bl.triangulate_s", "s", "lower", _MESH,
             "stage replay: triangulate_pslg + carve + to_mesh on the BL "
             "cloud", "core.bl.s -> op_s on highlift_bl"),
    PerLayer("core.bl.points", "count", "lower", _MESH,
             "BoundaryLayerResult.stats n_points", "explains core.bl.*_s"),
    PerLayer("core.bl.truncations", "count", "lower", _MESH,
             "BoundaryLayerResult.stats self + multi truncations",
             "explains core.bl.intersections_s"),
    PerLayer("core.decouple.s", "s", "lower", _MESH,
             "spans core.nearbody + core.decouple (march_path, "
             "initial_quadrants, decouple_stream)",
             "op_s on both mesh workloads; with BL and merge it is the "
             "serial part that caps op_warm_s"),
    PerLayer("core.decouple.subdomains", "count", "higher", _MESH,
             "work items of the replayed op", "explains op_warm_s"),
    PerLayer("core.decouple.cost_imbalance", "ratio", "lower", _MESH,
             "max / mean est_triangles over the work items",
             "op_warm_s on naca_farfield"),
    PerLayer("core.merge.s", "s", "lower", _MESH, "span merge_meshes",
             "op_s, op_warm_s on naca_farfield (about 1 %)"),
    PerLayer("core.serial_frac", "ratio", "lower", _MESH,
             "(bl + sizing + nearbody + decouple + merge) / replayed op",
             "Amdahl bound on op_warm_s"),
    PerLayer("core.decompose.s", "s", "lower", "highlift_bl",
             "decompose(bl.points) + triangulate_leaves on the BL cloud",
             "none today (not on the generate_mesh path); would move op_s "
             "on highlift_bl"),
    PerLayer("core.decompose.balance", "ratio", "lower", "highlift_bl",
             "DecompositionResult.balance()", "explains core.decompose.s"),
    PerLayer("core.decompose.leaves", "count", "higher", "highlift_bl",
             "leaves of the decomposition", "explains core.decompose.s"),
    # -- sizing --------------------------------------------------------
    PerLayer("sizing.eval_us", "us", "lower", _MESH,
             "mean area_at() over 10k seeded points in the far-field box",
             "core.decouple.s, delaunay.refine.s -> op_s"),
    # -- delaunay ------------------------------------------------------
    PerLayer("delaunay.refine.s", "s", "lower", _MESH,
             "sum of spans refine_subdomain",
             "op_s on naca_farfield (most of it) and highlift_bl"),
    PerLayer("delaunay.refine.tri_per_s", "1/s", "higher", _MESH,
             "refined triangles / delaunay.refine.s", "op_s"),
    PerLayer("delaunay.refine.max_item_s", "s", "lower", _MESH,
             "longest refine_subdomain span",
             "critical path of op_warm_s on naca_farfield"),
    PerLayer("delaunay.refine.steiner_points", "count", "lower", _MESH,
             "counters sink steiner_points, serial traced op (repeats "
             "exactly)", "delaunay.refine.s"),
    PerLayer("delaunay.kernel.inserts", "count", "lower", _MESH,
             "counters sink kernel.inserts (repeats exactly)",
             "delaunay.refine.s"),
    PerLayer("delaunay.kernel.walk_steps_mean", "count", "lower", _MESH,
             "counters sink kernel walk histogram mean", "delaunay.refine.s"),
    PerLayer("delaunay.kernel.cavity_size_mean", "count", "lower", _MESH,
             "counters sink kernel cavity histogram mean",
             "delaunay.refine.s"),
    PerLayer("delaunay.kernel.exact_escalation_rate", "ratio", "lower",
             _MESH, "counters sink exact / all predicate tests",
             "delaunay.refine.s"),
    PerLayer("delaunay.triangulate_scalar_s", "s", "lower", "naca_farfield",
             "triangulate(result points, strategy='scalar')",
             "core.bl.triangulate_s"),
    PerLayer("delaunay.triangulate_batch_s", "s", "lower", "naca_farfield",
             "triangulate(result points, strategy='batch')",
             "none today (batch is not the default)"),
    PerLayer("delaunay.mesh_batch_s", "s", "lower", "naca_farfield",
             "one serial generate_mesh(insert_strategy='batch')",
             "none today; records what batch does end to end"),
    PerLayer("delaunay.batch_parity", "ratio", "higher", "naca_farfield",
             "1 if the batch mesh hashes equal to the scalar mesh, else 0",
             "none; records that the strategies differ after refinement"),
    PerLayer("delaunay.adapt.s", "s", "lower", "adapt_shear",
             "sum of spans adapt_mesh",
             "op_s on adapt_shear (nearly all of it); nothing elsewhere"),
    PerLayer("delaunay.adapt.ops", "count", "lower", "adapt_shear",
             "AdaptReport splits + collapses + flips + smooth_moves",
             "delaunay.adapt.s"),
    PerLayer("delaunay.adapt.ops_per_s", "1/s", "higher", "adapt_shear",
             "delaunay.adapt.ops / delaunay.adapt.s", "op_s on adapt_shear"),
    PerLayer("delaunay.adapt.conformity", "ratio", "higher", "adapt_shear",
             "AdaptReport.conformity_after of the last cycle",
             "guards accuracy while delaunay.adapt.s moves"),
    PerLayer("delaunay.adapt.dof", "count", "lower", "adapt_shear",
             "points of the final mesh", "solver.l2_error per DOF"),
    # -- metric / solver -----------------------------------------------
    PerLayer("metric.hessian_s", "s", "lower", "adapt_shear",
             "sum of spans MetricField.from_hessian", "op_s on adapt_shear"),
    PerLayer("metric.limit_s", "s", "lower", "adapt_shear",
             "sum of spans limit_gradation", "op_s on adapt_shear"),
    PerLayer("solver.solve_s", "s", "lower", "adapt_shear",
             "sum of spans solve_on_mesh + l2_error", "op_s on adapt_shear"),
    PerLayer("solver.l2_error", "1", "lower", "adapt_shear",
             "L2 error of the loop's final cycle (repeats exactly)",
             "guards accuracy while op_s on adapt_shear moves"),
    PerLayer("solver.uniform_equal_error_s", "s", "lower", "adapt_shear",
             "refine_pslg + solve at the first uniform level whose error "
             "is <= solver.l2_error",
             "none; the error-per-second reference for op_s on adapt_shear"),
    # -- runtime.executor / serde / sim --------------------------------
    PerLayer("runtime.executor.speedup", "ratio", "higher",
             "naca_farfield highlift_bl adapt_shear",
             "traced run: untraced op wall / warm op wall",
             "op_warm_s (on naca_farfield only it should exceed 1)"),
    PerLayer("runtime.executor.efficiency", "ratio", "higher", _POOL,
             "runtime.executor.speedup / R", "op_warm_s on naca_farfield"),
    PerLayer("runtime.executor.busy_frac", "ratio", "higher", _POOL,
             "sum executor.item_seconds / (R * timings['refinement'])",
             "op_warm_s"),
    PerLayer("runtime.executor.items_max_rank_frac", "ratio", "lower", _POOL,
             "busiest rank's share of the work items", "op_warm_s"),
    PerLayer("runtime.executor.steals", "count", "lower", _POOL,
             "counters sink executor.steals", "op_warm_s"),
    PerLayer("runtime.executor.dispatch_ms", "ms", "lower", _POOL,
             "median of 20 warm map_workitems calls of R echo items",
             "op_warm_s; op_s on service_mix"),
    PerLayer("runtime.serde.item_pack_ms", "ms", "lower", _MESH,
             "mean span pack_subdomain + pack_sizing per work item",
             "op_warm_s"),
    PerLayer("runtime.serde.item_kb", "kB", "lower", _MESH,
             "mean packed work-item size", "op_warm_s"),
    PerLayer("runtime.serde.mesh_roundtrip_ms", "ms", "lower", _MESH,
             "pack_mesh -> buffers_to_bytes -> bytes_to_buffers -> "
             "unpack_mesh on the result mesh", "op_warm_s; op_s on "
             "service_mix"),
    PerLayer("runtime.serde.shm_roundtrip_ms", "ms", "lower", _MESH,
             "buffers_to_wire -> wire_to_buffers -> discard_wire on the "
             "result mesh", "op_warm_s"),
    PerLayer("runtime.serde.hash_ms", "ms", "lower", _MESH,
             "canonical_hash of the packed request",
             "op_warm_s on service_mix"),
    PerLayer("runtime.sim.pred_speedup", "ratio", "higher", "naca_farfield",
             "calibrate_from_counters on the traced warm op -> "
             "strong_scaling at R ranks",
             "none; printed beside runtime.executor.speedup so the model "
             "is validated every run (paper Fig. 11 vs 12)"),
    PerLayer("runtime.sim.s256", "ratio", "higher", "naca_farfield",
             "the same model at 256 ranks", "none (paper: about 180x)"),
    # -- runtime.service -----------------------------------------------
    PerLayer("runtime.service.ping_rtt_ms", "ms", "lower", "service_mix",
             "median of 200 pings",
             "op_warm_s on service_mix (framing/loop floor)"),
    PerLayer("runtime.service.overhead_ms", "ms", "lower", "service_mix",
             "miss p50 - in-process mesh_workitem median on the sample",
             "op_s on service_mix (window + dispatch + put)"),
    PerLayer("runtime.service.miss_p90_ms", "ms", "lower", "service_mix",
             "client-side p90 of the miss replies", "op_s on service_mix"),
    PerLayer("runtime.service.hit_p99_ms", "ms", "lower", "service_mix",
             "client-side p99 of the hit round trips",
             "op_warm_s on service_mix"),
    PerLayer("runtime.service.hit_req_per_s", "1/s", "higher", "service_mix",
             "hit requests / wall of the hit ops",
             "op_warm_s on service_mix"),
    PerLayer("runtime.service.hit_ratio", "ratio", "higher", "service_mix",
             "stats frame", "explains op_warm_s on service_mix"),
    PerLayer("runtime.service.evictions", "count", "lower", "service_mix",
             "stats frame cache_evictions; must be > 0",
             "explains op_s on service_mix"),
    PerLayer("runtime.service.batch_size_mean", "count", "higher",
             "service_mix", "stats frame; must read R",
             "explains op_s on service_mix"),
    PerLayer("runtime.service.request_kb", "kB", "lower", "service_mix",
             "size of one request frame", "op_warm_s on service_mix"),
    PerLayer("runtime.service.reply_kb", "kB", "lower", "service_mix",
             "size of one reply payload", "op_warm_s on service_mix"),
    # -- io / cli ------------------------------------------------------
    PerLayer("io.write_ascii_s", "s", "lower", _ALL,
             "span write_mesh_ascii of the result mesh",
             "none here (CLI users pay it)"),
    PerLayer("io.write_npz_s", "s", "lower", _ALL,
             "span write_mesh_npz of the result mesh",
             "none here (CLI users pay it)"),
    PerLayer("cli.startup_s", "s", "lower", _ALL,
             "python -c 'import repro.cli as c; c.build_parser()'",
             "none here (every CLI call pays it; part of setup_s)"),
    # -- bench: can the other numbers be trusted -----------------------
    PerLayer("bench.op_untraced_s", "s", "lower", _ALL,
             "the op timed without spans inside the traced run",
             "denominator of the next three"),
    PerLayer("bench.coverage", "ratio", "higher",
             "naca_farfield highlift_bl adapt_shear",
             "sum of the replay's span self times / bench.op_untraced_s "
             "(expect 0.9 - 1.1)", "none"),
    PerLayer("bench.trace_overhead_frac", "ratio", "lower",
             "naca_farfield highlift_bl adapt_shear",
             "(replayed op wall - bench.op_untraced_s) / "
             "bench.op_untraced_s", "none"),
    PerLayer("bench.replay_parity", "ratio", "higher",
             "naca_farfield highlift_bl adapt_shear",
             "1 if the replayed result hashes equal to the timed op's",
             "none"),
    PerLayer("bench.pace_ms", "ms", "lower", _ALL,
             "median wall of the calibration loop (fixed dict/sort work) "
             "sampled before and after the run",
             "none; the machine's speed while the traced run ran"),
    PerLayer("bench.pace_drift", "ratio", "lower", _ALL,
             "|after - before| / before of the calibration loop; the run "
             "is marked noisy above 0.10", "none"),
]
