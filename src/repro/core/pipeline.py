"""The push-button mesher: geometry in, hybrid anisotropic mesh out.

Composes every stage of the paper's Section II:

1. anisotropic boundary layers up to their outer borders (extrusion
   rays, fans, intersection resolution, growth-function insertion);
2. a graded near-body subdomain between the BL outer borders and the
   near-body box;
3. graded Delaunay decoupling of the inviscid far field into the four
   quadrants and their '+'-split descendants;
4. the work items, independent of each other and dispatched through the
   pluggable executor layer (:mod:`repro.runtime.executor`): the
   Delaunay triangulation of the boundary-layer cloud first, then
   Ruppert refinement of the near-body and of every decoupled
   subdomain — sequential (``backend="serial"``) or on a warm pool of
   worker processes (``backend="processes"``);
5. merge into one conforming mesh.

"The user only needs to provide the input configuration and wait for the
output without any human intervention."
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ..delaunay.cavity import get_strategy
from ..delaunay.mesh import TriMesh, merge_meshes
from ..delaunay.refine import RUPPERT_BOUND
from ..geometry.aabb import AABB
from ..geometry.pslg import PSLG
from ..runtime import executor
from ..runtime import serde
from ..runtime.counters import current, timed
from ..sizing.functions import GradedDistanceSizing
from .bl_pipeline import (
    BoundaryLayerConfig,
    BoundaryLayerResult,
    interior_seed,
    prepare_boundary_layer,
    triangulate_boundary_layer,
)
from .decouple import (
    DecoupledSubdomain,
    decouple_stream,
    estimate_triangles,
    initial_quadrants,
    march_path,
    refine_subdomain,
    ring_from_parts,
)

__all__ = [
    "MeshConfig",
    "MeshResult",
    "generate_mesh",
    "pack_mesh_request",
    "unpack_mesh_request",
    "request_cost",
    "mesh_workitem",
    "pack_adapt_item",
    "adapt_workitem",
    "unpack_adapt_result",
]


@dataclass
class MeshConfig:
    """Push-button inputs: geometry handling plus BL parameters."""

    bl: BoundaryLayerConfig = field(default_factory=BoundaryLayerConfig)
    #: far-field extent in chord lengths (paper: 30-50).
    farfield_chords: float = 40.0
    #: isotropic surface edge length at the BL outer border; ``None``
    #: derives it from the BL tip spacing (smooth hand-off, Fig. 5).
    h0: Optional[float] = None
    #: sizing gradation rate toward the far field.
    grading: float = 0.35
    #: cap on far-field edge length in chords; ``None`` = uncapped.
    h_max_chords: Optional[float] = 4.0
    #: near-body box margin around the BL, in chords.
    nearbody_margin_chords: float = 0.75
    #: number of decoupled inviscid subdomains to generate.
    target_subdomains: int = 16
    quality_bound: float = RUPPERT_BOUND
    max_steiner: int = 2_000_000


@dataclass
class MeshResult:
    mesh: TriMesh
    bl: BoundaryLayerResult
    nearbody_mesh: TriMesh
    inviscid_meshes: List[TriMesh]
    subdomains: List[DecoupledSubdomain]
    #: wall seconds per stage.  ``boundary_layer`` is the parent's
    #: :func:`prepare_boundary_layer`; ``bl_triangulate`` the BL
    #: triangulation work item's wall where it ran; ``refinement`` spans
    #: the dispatch of every work item and contains ``decoupling``.
    timings: Dict[str, float]
    #: numeric run statistics plus the resolved ``insert_strategy`` name.
    stats: Dict[str, object]


def _median_spacing(border: np.ndarray) -> float:
    d = np.linalg.norm(np.diff(np.vstack([border, border[:1]]), axis=0),
                       axis=1)
    return float(np.median(d))


def generate_mesh(
    pslg: PSLG,
    config: Optional[MeshConfig] = None,
    *,
    backend: str = "serial",
    n_ranks: int = 4,
    insert_strategy: Optional[str] = None,
) -> MeshResult:
    """Generate the full hybrid mesh for ``pslg`` (all body loops).

    ``backend`` selects the refinement executor (any name from
    :func:`repro.runtime.executor.available_backends`); nothing else,
    the environment included, picks it.  Every backend produces the
    identical mesh — the subdomains are decoupled, so execution order
    cannot change the result.

    Work is fed to the executor as it is discovered.  Everything
    downstream of the boundary layer reads only its outer borders, so
    the triangulation of the BL cloud is submitted first, as work item
    0, the moment the borders exist; then the near-body subdomain,
    before decoupling starts, and each decoupled subdomain the moment
    it is final.  Pool workers triangulate and refine while the parent
    is still splitting — the paper's overlap of boundary-layer work and
    decomposition with refinement — and the BL mesh is first read by
    the merge.  ``serial`` buffers the submissions and maps them after
    decoupling finished; submission order is the same, so it is the
    barriered reference the ``processes`` backend is byte-compared to.

    ``insert_strategy`` picks the Delaunay cavity-engine insertion
    strategy (any name from
    :func:`repro.delaunay.available_strategies`); ``None`` is
    ``scalar``.  It is resolved once here and travels as data:
    a field of the BL triangulation item and of every refinement item,
    so workers forked earlier (a warm pool) triangulate with the same
    strategy as the parent.
    """
    insert_strategy = get_strategy(insert_strategy).name
    config = config or MeshConfig()
    backend_impl = executor.get_backend(backend)
    timings: Dict[str, float] = {}
    chord = pslg.chord_length()

    # ------------------------------------------------------------------
    # 1. Boundary layers, up to their outer borders.
    # ------------------------------------------------------------------
    with timed("boundary_layer") as tm:
        bl = prepare_boundary_layer(pslg, config.bl)
    timings["boundary_layer"] = tm.elapsed

    # ------------------------------------------------------------------
    # 2. Sizing function from the BL outer borders.
    # ------------------------------------------------------------------
    borders = np.vstack(bl.outer_borders)
    h0 = config.h0 or max(
        float(np.median([_median_spacing(ob) for ob in bl.outer_borders])),
        1e-6,
    )
    h_max = (config.h_max_chords * chord
             if config.h_max_chords is not None else math.inf)
    sizing = GradedDistanceSizing(borders, h0=h0, grading=config.grading,
                                  h_max=h_max)

    # ------------------------------------------------------------------
    # 3. Near-body subdomain: graded box around the BL.
    # ------------------------------------------------------------------
    with timed("nearbody_setup") as tm:
        margin = config.nearbody_margin_chords * chord
        nb_box = AABB.of_points(borders).expanded(margin)
        corners = [
            (nb_box.xmin, nb_box.ymin), (nb_box.xmax, nb_box.ymin),
            (nb_box.xmax, nb_box.ymax), (nb_box.xmin, nb_box.ymax),
        ]
        nb_ring_parts = [
            march_path(corners[i], corners[(i + 1) % 4], sizing)
            for i in range(4)
        ]
        nb_ring = ring_from_parts(nb_ring_parts)
        nearbody = DecoupledSubdomain(
            ring=nb_ring,
            hole_rings=[np.asarray(ob) for ob in bl.outer_borders],
            holes=[interior_seed(np.asarray(ob)) for ob in bl.outer_borders],
        )
    timings["nearbody_setup"] = tm.elapsed

    # ------------------------------------------------------------------
    # 4. Decouple the far field.
    # ------------------------------------------------------------------
    cx, cy = nb_box.center
    half = config.farfield_chords * chord
    ff_box = AABB(cx - half, cy - half, cx + half, cy + half)
    quads = initial_quadrants(nb_box, ff_box, sizing)
    target = max(config.target_subdomains - 1, 4)

    # ------------------------------------------------------------------
    # 4+5. Triangulate the BL cloud, decouple the far field and refine
    #    everything (near-body + inviscid subdomains) through the
    #    executor layer: each work item is serde-packed, each result one
    #    packed mesh, ordered like the inputs.  The BL item goes first,
    #    the near-body subdomain before decoupling starts and every
    #    decoupled subdomain as it is produced.
    # ------------------------------------------------------------------
    def _cost(s: DecoupledSubdomain) -> float:
        return (s.est_triangles if s.est_triangles > 0.0
                else max(estimate_triangles(s, sizing), 1.0))

    def _payload(s: DecoupledSubdomain) -> serde.Buffers:
        return _pack_refine_item(s, sizing, config.quality_bound,
                                 config.max_steiner, insert_strategy)

    # Note: ``refinement`` wall time spans the whole overlapped region
    # (it contains ``decoupling``).
    with timed("refinement") as tm_refine:
        session = backend_impl.stream_workitems(_workitem, n_ranks=n_ranks)
        # A triangulation of n points has about 2n triangles: the unit
        # the refinement items' estimates are in.
        session.submit(
            serde.nest("bl.", serde.pack_bl_item(
                bl.points, bl.segments, bl.holes, insert_strategy)),
            cost=2.0 * len(bl.points))
        session.submit(_payload(nearbody), cost=_cost(nearbody))
        subdomains: List[DecoupledSubdomain] = []
        with timed("decoupling") as tm_decouple:
            for s in decouple_stream(quads, sizing, target_count=target):
                subdomains.append(s)
                session.submit(_payload(s), cost=_cost(s))
        bl_packed, *packed = session.results()
        bl.attach_mesh(serde.unpack_mesh(bl_packed))
        timings["bl_triangulate"] = float(bl_packed["seconds"][0])
        meshes = [serde.unpack_mesh(b) for b in packed]
    timings["decoupling"] = tm_decouple.elapsed
    timings["refinement"] = tm_refine.elapsed

    # ------------------------------------------------------------------
    # 6. Merge.
    # ------------------------------------------------------------------
    with timed("merge") as tm:
        merged = merge_meshes([bl.mesh] + meshes)
    timings["merge"] = tm.elapsed

    stats = {
        "n_triangles": float(merged.n_triangles),
        "n_points": float(merged.n_points),
        "n_bl_triangles": float(bl.mesh.n_triangles),
        "n_subdomains": float(len(meshes)),
        "h0": h0,
        "chord": chord,
        "insert_strategy": insert_strategy,
        **{f"bl_{k}": v for k, v in bl.stats.items()},
    }
    return MeshResult(
        mesh=merged,
        bl=bl,
        nearbody_mesh=meshes[0],
        inviscid_meshes=meshes[1:],
        subdomains=list(subdomains),
        timings=timings,
        stats=stats,
    )


def _pack_refine_item(sub: DecoupledSubdomain, sizing,
                      quality_bound: float, max_steiner: int,
                      insert_strategy: str) -> serde.Buffers:
    """One refinement work item as a flat buffer dict (process-safe)."""
    payload = serde.nest("sub.", serde.pack_subdomain(sub))
    payload.update(serde.nest("sizing.", serde.pack_sizing(sizing)))
    payload["params"] = np.asarray([quality_bound, float(max_steiner)],
                                   dtype=np.float64)
    payload["insert_strategy"] = serde._text(insert_strategy)
    return payload


def _workitem(payload: serde.Buffers) -> serde.Buffers:
    """Executor work function of one ``generate_mesh`` dispatch.

    An item's kind is the prefix its first object is nested under:
    ``bl.`` the boundary-layer triangulation, ``sub.`` one subdomain to
    refine.  Module-level by contract — the processes backend resolves
    it by import path in worker processes; the serde round trip is
    exact, so every backend produces bit-identical meshes.
    """
    if "bl.points" in payload:
        return _triangulate_bl_item(payload)
    if "sub.coords" in payload:
        return _refine_item(payload)
    raise serde.SerdeError(
        "unknown work item kind: payload holds neither a 'bl.' nor a "
        f"'sub.' object (keys: {sorted(payload)})")


def _triangulate_bl_item(payload: serde.Buffers) -> serde.Buffers:
    """Triangulate the packed BL cloud -> packed mesh plus ``seconds``,
    the wall it took here (the parent's ``timings["bl_triangulate"]``).

    Under a profiling sink the item also leaves its wall and bytes as
    the ``executor.bl_item_*`` samples and, in a pool worker, its rank
    as an event; they reach the parent with the worker's snapshot.
    """
    with timed("bl_triangulate") as tm:
        points, segments, holes, insert_strategy = serde.unpack_bl_item(
            serde.unnest("bl.", payload))
        mesh = triangulate_boundary_layer(points, segments, holes,
                                          insert_strategy=insert_strategy)
        result = serde.pack_mesh(mesh)
    result["seconds"] = np.asarray([tm.elapsed], dtype=np.float64)
    sink = current()
    if sink is not None:
        sink.observe("executor.bl_item_seconds", tm.elapsed)
        sink.observe("executor.bl_item_bytes",
                     serde.buffers_nbytes(payload)
                     + serde.buffers_nbytes(result))
        if sink.rank is not None:
            sink.incr(f"executor.bl_item.rank{sink.rank}")
    return result


def _refine_item(payload: serde.Buffers) -> serde.Buffers:
    """Refine one packed subdomain -> packed mesh."""
    sub = serde.unpack_subdomain(serde.unnest("sub.", payload))
    sizing = serde.unpack_sizing(serde.unnest("sizing.", payload))
    quality_bound, max_steiner = (float(x) for x in payload["params"])
    mesh = refine_subdomain(
        sub, sizing, quality_bound=quality_bound,
        max_steiner=int(max_steiner),
        insert_strategy=serde._untext(payload["insert_strategy"]))
    return serde.pack_mesh(mesh)


# ----------------------------------------------------------------------
# Whole-request work items (the meshing service's unit of batching)
# ----------------------------------------------------------------------
def pack_mesh_request(pslg: PSLG,
                      config: Optional[MeshConfig] = None) -> serde.Buffers:
    """Flatten one complete ``generate_mesh`` input into a buffer dict.

    The dict carries *everything* that determines the output mesh —
    PSLG geometry plus the full (BL-nested) :class:`MeshConfig` — and
    nothing that does not (backend and rank count are transport knobs;
    backend parity guarantees they cannot change the result).  Its
    :func:`repro.runtime.serde.canonical_hash` is therefore a sound
    content address for the service's mesh cache.
    """
    payload = serde.nest("pslg.", serde.pack_pslg(pslg))
    payload.update(serde.nest("config.",
                              serde.pack_mesh_config(config or MeshConfig())))
    return payload


def unpack_mesh_request(payload: serde.Buffers):
    """Inverse of :func:`pack_mesh_request` -> ``(pslg, config)``."""
    pslg = serde.unpack_pslg(serde.unnest("pslg.", payload))
    config = serde.unpack_mesh_config(serde.unnest("config.", payload))
    return pslg, config


#: The keys :func:`pack_mesh_request` writes, read off an empty request.
_REQUEST_KEYS = frozenset(pack_mesh_request(PSLG(np.empty((0, 2)), [])))


def request_cost(payload: serde.Buffers) -> float:
    """Largest-first scheduling weight for one packed mesh request.

    Surface point count times subdomain count tracks total refinement
    work well enough to keep a batch's big request off the critical
    path; exactness does not matter, monotonicity does.

    A payload whose keys are not exactly the ones
    :func:`pack_mesh_request` writes raises
    :class:`~repro.runtime.serde.SerdeError` naming the missing and the
    unexpected ones: the service asks for the cost before a request
    joins a batch, so a malformed one fails alone.
    """
    keys = set(payload)
    if keys != _REQUEST_KEYS:
        raise serde.SerdeError(
            "not a packed mesh request: missing "
            f"{sorted(_REQUEST_KEYS - keys)}, unexpected "
            f"{sorted(keys - _REQUEST_KEYS)}")
    n_points = float(len(payload["pslg.points"]))
    params = payload["config.params"]
    target = float(params[list(serde._MESH_FIELDS).index(
        "target_subdomains")])
    return max(n_points * max(target, 1.0), 1.0)


def mesh_workitem(payload: serde.Buffers) -> serde.Buffers:
    """Executor work function: run one *whole* mesh request.

    The meshing service batches concurrent client requests through a
    single ``map_workitems`` dispatch with this function, so each pool
    worker owns one request end to end.  Refinement inside the worker
    runs on the serial backend — the parallelism axis here is *across*
    requests, and a nested process pool inside a pool worker would
    oversubscribe the machine.
    """
    pslg, config = unpack_mesh_request(payload)
    result = generate_mesh(pslg, config, backend="serial")
    return serde.pack_mesh(result.mesh)


# ----------------------------------------------------------------------
# Metric adaptation work items
# ----------------------------------------------------------------------
def pack_adapt_item(mesh: TriMesh, metric_field, *,
                    holes=(), max_passes: int = 3,
                    smooth_iterations: int = 1,
                    protect_segments: bool = False) -> serde.Buffers:
    """One metric-adaptation work item as a flat buffer dict; its
    length band is :data:`~repro.delaunay.adapt.LOW_BAND` ..
    :data:`~repro.delaunay.adapt.HIGH_BAND`."""
    from ..delaunay.adapt import HIGH_BAND, LOW_BAND

    payload = serde.nest("mesh.", serde.pack_mesh(mesh))
    payload.update(serde.nest("metric.", serde.pack_metric(metric_field)))
    holes_arr = (np.asarray(holes, dtype=np.float64).reshape(-1, 2)
                 if len(holes) else np.empty((0, 2), dtype=np.float64))
    payload["holes"] = holes_arr
    payload["params"] = np.asarray(
        [LOW_BAND, HIGH_BAND, float(max_passes), float(smooth_iterations),
         1.0 if protect_segments else 0.0],
        dtype=np.float64)
    return payload


def adapt_workitem(payload: serde.Buffers) -> serde.Buffers:
    """Executor work function: adapt one packed mesh to a packed metric.

    Module-level by contract (processes backend resolves it by import
    path).  Returns the adapted mesh plus the flat operation counters
    from :class:`repro.delaunay.AdaptReport`, nested under ``report.``.
    """
    from ..delaunay.adapt import adapt_mesh

    mesh = serde.unpack_mesh(serde.unnest("mesh.", payload))
    metric_field = serde.unpack_metric(serde.unnest("metric.", payload))
    l_min, l_max, max_passes, smooth_iters, protect = (
        float(x) for x in payload["params"])
    holes = [tuple(h) for h in payload["holes"]]
    new_mesh, report = adapt_mesh(
        mesh, metric_field,
        holes=holes,
        l_min=l_min,
        l_max=l_max,
        max_passes=int(max_passes),
        smooth_iterations=int(smooth_iters),
        protect_segments=bool(protect),
    )
    out = serde.nest("mesh.", serde.pack_mesh(new_mesh))
    out["report.counters"] = np.asarray(
        [report.passes, report.splits, report.collapses, report.flips,
         report.smooth_moves, report.flip_evaluations, report.flip_sweeps],
        dtype=np.int32)
    out["report.conformity"] = np.asarray(
        [report.conformity_before, report.conformity_after],
        dtype=np.float64)
    out["report.trace"] = np.asarray(report.conformity_trace,
                                     dtype=np.float64)
    return out


def unpack_adapt_result(out: serde.Buffers):
    """Inverse of :func:`adapt_workitem`'s output -> ``(mesh, report)``."""
    from ..delaunay.adapt import AdaptReport

    mesh = serde.unpack_mesh(serde.unnest("mesh.", out))
    c = out["report.counters"]
    conf = out["report.conformity"]
    report = AdaptReport(
        passes=int(c[0]), splits=int(c[1]), collapses=int(c[2]),
        flips=int(c[3]), smooth_moves=int(c[4]),
        flip_evaluations=int(c[5]), flip_sweeps=int(c[6]),
        conformity_before=float(conf[0]), conformity_after=float(conf[1]),
        conformity_trace=[float(x) for x in out["report.trace"]],
    )
    return mesh, report
