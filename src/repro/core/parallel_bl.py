"""Distributed boundary-layer point computation (Section II.C).

"This process is done in parallel where each process has a portion of the
surface vertices (with the first and last vertex of a process' subset of
the surface duplicated) and computes the normal at the vertex to create
the corresponding ray. ... The points are then gathered at the root
process ... Since the points are locally stored contiguously and the
ordering is implicitly known by each process due to the structured
configuration, only the coordinates need to be communicated to the root."

This module runs the per-vertex stages (normals, ray refinement, growth
insertion) chunked over any executor backend:

1. the input PSLG and config are made available to every worker (by
   reference on the in-process backends, as serde buffer dicts on the
   processes backend);
2. every rank takes a contiguous chunk of each loop's vertices, extended
   by ONE overlap vertex on each side (so turn angles and the
   vertex-pair refinement of Section II.B are computable locally);
3. ranks compute rays and layer heights for their chunk;
4. the root gathers **coordinate arrays only** (float64 ``(n, 2)``), and
   because chunk order is implicit, reassembly is concatenation.

The ``threads`` backend runs the historical SPMD path (explicit
``gather`` on the communicator, byte-accounted); ``serial`` and
``processes`` dispatch one work item per chunk through
:mod:`repro.runtime.executor` — the result coordinate buffers are the
only payload that crosses worker boundaries either way.

Ray-to-ray intersection resolution needs global geometry, so — as in the
paper, where it precedes point insertion — it runs on the root on the
gathered ray set.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..geometry.pslg import PSLG
from ..runtime import executor, serde
from ..runtime.comm import ThreadComm, run_spmd
from .bl_pipeline import BoundaryLayerConfig
from .normals import loop_surface_vertices
from .rays import Ray, refine_rays

__all__ = ["parallel_bl_points", "chunk_bounds"]


def chunk_bounds(n: int, size: int, rank: int) -> Tuple[int, int]:
    """Contiguous [lo, hi) chunk of ``n`` items for ``rank`` of ``size``."""
    base = n // size
    rem = n % size
    lo = rank * base + min(rank, rem)
    hi = lo + base + (1 if rank < rem else 0)
    return lo, hi


def _local_rays(pslg: PSLG, config: BoundaryLayerConfig, rank: int,
                size: int) -> List[Tuple[int, int, Ray]]:
    """Rays owned by ``rank``: (element, owner order key, ray)."""
    out: List[Tuple[int, int, Ray]] = []
    for el, loop in enumerate(pslg.body_loops):
        sv = loop_surface_vertices(
            pslg, loop,
            large_angle=math.radians(config.large_angle_deg),
            cusp_angle=math.radians(config.cusp_angle_deg),
        )
        n = len(sv)
        lo, hi = chunk_bounds(n, size, rank)
        if hi <= lo:
            continue
        # One-vertex overlap on each side: refine_rays for the pair
        # (v_i, v_{i+1}) is owned by the rank that owns v_i, and needs
        # v_{i+1}; classification of v_i needs v_{i-1} — both supplied by
        # loop_surface_vertices above (it sees the whole loop; only the
        # RAY work is divided, mirroring the paper's duplicated endpoint
        # vertices).
        wrapped = [sv[(i) % n] for i in range(lo, hi + 1)]
        rays = refine_rays(
            wrapped, element=el,
            max_ray_angle=math.radians(config.max_ray_angle_deg),
            closed=False,
        )
        # refine_rays on the open chain emits the base ray of every input
        # vertex plus pair fills; drop the base ray of the final overlap
        # vertex (owned by the next rank).  Only the LAST such ray: with a
        # single rank the overlap vertex IS the first vertex again, whose
        # own base ray must survive.
        last_pos = wrapped[-1].position
        for k in range(len(rays) - 1, -1, -1):
            if rays[k].origin == last_pos and rays[k].origin_kind == "vertex":
                rays.pop(k)
                break
        # Pair-fill rays between the last owned vertex and the overlap
        # vertex stay with this rank (the paper's convention: the forward
        # neighbour's ray pair belongs to the current vertex).
        for k, r in enumerate(rays):
            out.append((el, lo * 10_000 + k, r))
    return out


def _chunk_coords(pslg: PSLG, config: BoundaryLayerConfig, rank: int,
                  size: int) -> np.ndarray:
    """All BL points of one chunk as a contiguous ``(n, 2)`` array."""
    from .insertion import insert_points

    owned = _local_rays(pslg, config, rank, size)
    rays = [r for _, _, r in owned]
    insert_points(
        rays, config.growth_function(),
        isotropy_factor=config.isotropy_factor,
        max_layers=config.max_layers,
        max_height=config.max_height,
    )
    # Coordinates-only payload: one contiguous float64 array.
    coords: List[Tuple[float, float]] = []
    for r in rays:
        coords.append(r.origin)
        coords.extend(r.point_at(h) for h in r.heights)
    return np.asarray(coords, dtype=np.float64).reshape(-1, 2)


def _bl_chunk_workitem(payload: serde.Buffers) -> serde.Buffers:
    """Executor work function: BL points for one vertex chunk.

    Module-level by contract (the processes backend imports it by path);
    the result is the coordinates-only buffer the paper's gather ships.
    """
    pslg = serde.unpack_pslg(serde.unnest("pslg.", payload))
    config = serde.unpack_bl_config(serde.unnest("blcfg.", payload))
    rank, size = (int(x) for x in payload["chunk"])
    return {"coords": _chunk_coords(pslg, config, rank, size)}


def parallel_bl_points(
    pslg: PSLG,
    config: Optional[BoundaryLayerConfig] = None,
    *,
    n_ranks: int = 4,
    backend: Optional[str] = None,
) -> Tuple[np.ndarray, Dict[str, float]]:
    """Compute all BL layer points in parallel; returns (coords, stats).

    The returned array contains every ray origin and layer point in rank/
    chunk order — identical for every backend and rank count.  ``stats``
    reports the gathered byte volume — the quantity the paper's
    coordinates-only optimisation minimises.  ``backend`` accepts any
    executor backend name; ``None`` falls back to ``REPRO_BACKEND``,
    then ``serial``.  ``threads`` is the SPMD path with explicit
    communicator gather.
    """
    config = config or BoundaryLayerConfig()
    backend_impl = executor.get_backend(backend)
    if backend_impl.name == "threads":
        return _parallel_bl_points_spmd(pslg, config, n_ranks)

    payload_base = serde.nest("pslg.", serde.pack_pslg(pslg))
    payload_base.update(serde.nest("blcfg.", serde.pack_bl_config(config)))
    payloads = [
        {**payload_base,
         "chunk": np.asarray([rank, n_ranks], dtype=np.int32)}
        for rank in range(n_ranks)
    ]
    results = backend_impl.map_workitems(
        _bl_chunk_workitem, payloads, n_ranks=n_ranks)
    chunks = [r["coords"] for r in results]
    coords = np.vstack([c for c in chunks if len(c)])
    # The wire payload is the same coordinates-only volume the SPMD
    # gather accounts: one (n, 2) float64 buffer per non-root chunk
    # (the root's own chunk never crosses a boundary in a gather).
    total_bytes = sum(int(c.nbytes) for c in chunks[1:])
    stats = {
        "n_points": float(len(coords)),
        "gather_bytes": float(total_bytes),
        "bytes_per_point": float(total_bytes) / max(len(coords), 1),
    }
    return coords, stats


def _parallel_bl_points_spmd(
    pslg: PSLG,
    config: BoundaryLayerConfig,
    n_ranks: int,
) -> Tuple[np.ndarray, Dict[str, float]]:
    """The SPMD threads path: explicit communicator gather on the root."""

    def fn(comm: ThreadComm):
        payload = _chunk_coords(pslg, config, comm.rank, comm.size)
        gathered = comm.gather(payload, root=0)
        comm.barrier()
        if comm.rank == 0:
            total_bytes = comm.total_bytes_sent()
            return np.vstack([g for g in gathered if len(g)]), total_bytes
        return None

    results = run_spmd(n_ranks, fn)
    coords, total_bytes = results[0]
    stats = {
        "n_points": float(len(coords)),
        "gather_bytes": float(total_bytes),
        "bytes_per_point": float(total_bytes) / max(len(coords), 1),
    }
    return coords, stats
