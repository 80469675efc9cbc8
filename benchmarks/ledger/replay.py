"""Traced replays: one op re-run as spans around public layer calls.

The end-to-end ops (``generate_mesh``, ``adapt_loop``) are opaque when
timed, so a traced run replays them here from the same public functions
the program composes them from, with one span per call.  Each replay
returns what the op would have returned; the caller checks that its
canonical hash equals the timed op's, so a replay that drifts from the
program fails the run instead of reporting a decomposition of something
else.

Span names (first component = layer = module under ``src/repro``):

mesh op      ``core.bl``  ``sizing.build``  ``core.nearbody``
             ``core.decouple``  ``runtime.serde.item_pack``
             ``runtime.serde.item_unpack``  ``delaunay.refine``
             ``runtime.serde.mesh_pack``  ``core.merge``
BL stages    ``core.bl.rays``  ``core.bl.intersections``
             ``core.bl.insert``  ``core.bl.triangulate``
adapt op     ``solver.solve``  ``solver.l2_error``  ``metric.hessian``
             ``metric.limit``  ``delaunay.adapt``
"""

from __future__ import annotations

import math
from typing import Dict, List, Tuple

import numpy as np

from repro.core.bl_pipeline import generate_boundary_layer, interior_seed
from repro.core.decouple import (
    DecoupledSubdomain,
    decouple_stream,
    estimate_triangles,
    initial_quadrants,
    march_path,
    refine_subdomain,
    ring_from_parts,
)
from repro.core.insertion import insert_points
from repro.core.intersections import (
    resolve_multi_element_intersections,
    resolve_self_intersections,
)
from repro.core.normals import loop_surface_vertices
from repro.core.rays import refine_rays
from repro.delaunay import adapt_mesh, carve, merge_meshes, triangulate_pslg
from repro.geometry.aabb import AABB
from repro.metric import MetricField
from repro.runtime import serde
from repro.sizing.functions import GradedDistanceSizing
from repro.solver.adapt import l2_error, solve_on_mesh

from spans import Tracer

__all__ = ["MESH_SPANS", "BL_STAGE_SPANS", "ADAPT_SPANS", "replay_mesh",
           "replay_bl_stages", "replay_adapt"]

MESH_SPANS = ["core.bl", "sizing.build", "core.nearbody", "core.decouple",
              "runtime.serde.item_pack", "runtime.serde.item_unpack",
              "delaunay.refine", "runtime.serde.mesh_pack", "core.merge"]
BL_STAGE_SPANS = ["core.bl.rays", "core.bl.intersections", "core.bl.insert",
                  "core.bl.triangulate"]
ADAPT_SPANS = ["solver.solve", "solver.l2_error", "metric.hessian",
               "metric.limit", "delaunay.adapt"]


def _median_spacing(border: np.ndarray) -> float:
    d = np.linalg.norm(np.diff(np.vstack([border, border[:1]]), axis=0),
                       axis=1)
    return float(np.median(d))


def replay_mesh(tr: Tracer, pslg, config) -> Dict[str, object]:
    """``generate_mesh(pslg, config, backend="serial")`` as spans.

    Follows ``repro.core.pipeline`` stage for stage, including the serde
    round trip every refinement work item makes on every backend.
    """
    chord = pslg.chord_length()
    with tr.span("core.bl"):
        bl = generate_boundary_layer(pslg, config.bl)

    with tr.span("sizing.build"):
        borders = np.vstack(bl.outer_borders)
        h0 = config.h0 or max(
            float(np.median([_median_spacing(ob)
                             for ob in bl.outer_borders])), 1e-6)
        h_max = (config.h_max_chords * chord
                 if config.h_max_chords is not None else math.inf)
        sizing = GradedDistanceSizing(borders, h0=h0, grading=config.grading,
                                      h_max=h_max)

    with tr.span("core.nearbody"):
        nb_box = AABB.of_points(borders).expanded(
            config.nearbody_margin_chords * chord)
        corners = [(nb_box.xmin, nb_box.ymin), (nb_box.xmax, nb_box.ymin),
                   (nb_box.xmax, nb_box.ymax), (nb_box.xmin, nb_box.ymax)]
        nb_ring = ring_from_parts([
            march_path(corners[i], corners[(i + 1) % 4], sizing)
            for i in range(4)])
        nearbody = DecoupledSubdomain(
            ring=nb_ring,
            hole_rings=[np.asarray(ob) for ob in bl.outer_borders],
            holes=[interior_seed(np.asarray(ob))
                   for ob in bl.outer_borders])

    with tr.span("core.decouple"):
        cx, cy = nb_box.center
        half = config.farfield_chords * chord
        ff_box = AABB(cx - half, cy - half, cx + half, cy + half)
        quads = initial_quadrants(nb_box, ff_box, sizing)
        target = max(config.target_subdomains - 1, 4)
        subdomains = list(decouple_stream(quads, sizing,
                                          target_count=target))
        nearbody_cost = estimate_triangles(nearbody, sizing)

    work = [nearbody] + subdomains
    meshes = []
    item_bytes = []
    for sub in work:
        with tr.span("runtime.serde.item_pack"):
            payload = serde.nest("sub.", serde.pack_subdomain(sub))
            payload.update(serde.nest("sizing.", serde.pack_sizing(sizing)))
            payload["params"] = np.asarray(
                [config.quality_bound, float(config.max_steiner)],
                dtype=np.float64)
        item_bytes.append(serde.buffers_nbytes(payload))
        with tr.span("runtime.serde.item_unpack"):
            sub_in = serde.unpack_subdomain(serde.unnest("sub.", payload))
            sizing_in = serde.unpack_sizing(serde.unnest("sizing.", payload))
            quality_bound, max_steiner = (float(x)
                                          for x in payload["params"])
        with tr.span("delaunay.refine"):
            mesh = refine_subdomain(sub_in, sizing_in,
                                    quality_bound=quality_bound,
                                    max_steiner=int(max_steiner))
        with tr.span("runtime.serde.mesh_pack"):
            meshes.append(serde.unpack_mesh(serde.pack_mesh(mesh)))

    with tr.span("core.merge"):
        merged = merge_meshes([bl.mesh] + meshes)

    costs = [nearbody_cost] + [s.est_triangles for s in subdomains]
    return {"mesh": merged, "bl": bl, "sizing": sizing, "work": work,
            "meshes": meshes, "costs": costs, "item_bytes": item_bytes}


def replay_bl_stages(tr: Tracer, pslg, bl_config, bl) -> bool:
    """The boundary-layer stage, sub-stage by sub-stage.

    Rays, intersection resolution and point insertion are re-run from
    the surface; the triangulation stage is re-run on the PSLG rebuilt
    from the finished result ``bl`` (its point cloud, surface loops and
    outer borders).  Returns whether both halves reproduce ``bl``.
    """
    growth = bl_config.growth_function()
    default_height = min(growth.height(bl_config.max_layers),
                         bl_config.max_height)
    with tr.span("core.bl.rays"):
        element_rays = []
        for el, loop in enumerate(pslg.body_loops):
            sv = loop_surface_vertices(
                pslg, loop,
                large_angle=math.radians(bl_config.large_angle_deg),
                cusp_angle=math.radians(bl_config.cusp_angle_deg))
            element_rays.append(refine_rays(
                sv, element=el,
                max_ray_angle=math.radians(bl_config.max_ray_angle_deg)))
    with tr.span("core.bl.intersections"):
        n_self = sum(
            resolve_self_intersections(
                rays, default_height,
                truncation_factor=bl_config.truncation_factor)
            for rays in element_rays)
        n_multi = 0
        if len(element_rays) > 1:
            n_multi = resolve_multi_element_intersections(
                element_rays, default_height,
                truncation_factor=bl_config.truncation_factor)
    with tr.span("core.bl.insert"):
        for rays in element_rays:
            insert_points(rays, growth, sizing=None,
                          isotropy_factor=bl_config.isotropy_factor,
                          max_layers=bl_config.max_layers,
                          max_height=bl_config.max_height)

    index = {(float(x), float(y)): i for i, (x, y) in enumerate(bl.points)}
    segments: List[Tuple[int, int]] = []
    for rings in (bl.surface_loops, bl.outer_borders):
        for ring in rings:
            ids = [index[(float(x), float(y))] for x, y in ring]
            segments.extend((u, v) for u, v in zip(ids, ids[1:] + ids[:1])
                            if u != v)
    # The program emits each element's surface ring then its outer ring;
    # constraint insertion order does not change a CDT of distinct
    # non-crossing segments, and the triangle count check below would
    # catch it if it did.
    holes = [interior_seed(np.asarray(loop)) for loop in bl.surface_loops]
    with tr.span("core.bl.triangulate"):
        tri = triangulate_pslg(bl.points,
                               np.asarray(segments, dtype=np.int64))
        mesh = tri.to_mesh(keep_mask=carve(tri, holes))
    return (mesh.n_triangles == bl.mesh.n_triangles
            and float(n_self) == bl.stats["n_self_truncations"]
            and float(n_multi) == bl.stats["n_multi_truncations"])


def _mesh_edges(mesh) -> np.ndarray:
    t = mesh.triangles
    e = np.concatenate([t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]]])
    return np.unique(np.sort(e, axis=1), axis=0)


def replay_adapt(tr: Tracer, mesh, problem, *, cycles: int, eps: float,
                 h_min: float, h_max: float, grading: float = 0.5,
                 max_passes: int = 3, smooth_iterations: int = 1,
                 flatten_rtol: float = 0.02) -> Dict[str, object]:
    """``adapt_loop(mesh, problem=..., ...)`` as spans, in-process adapt."""
    with tr.span("solver.solve"):
        u = solve_on_mesh(mesh, problem)
    with tr.span("solver.l2_error"):
        err = l2_error(mesh, u, problem)
    errors = [err]
    reports = []
    for _ in range(cycles):
        with tr.span("metric.hessian"):
            metric = MetricField.from_hessian(mesh, u, eps=eps, h_min=h_min,
                                              h_max=h_max)
        with tr.span("metric.limit"):
            metric = metric.limit_gradation(_mesh_edges(mesh),
                                            grading=grading)
        with tr.span("delaunay.adapt"):
            mesh, report = adapt_mesh(
                mesh, metric, holes=(), max_passes=max_passes,
                smooth_iterations=smooth_iterations, protect_segments=False)
        reports.append(report)
        with tr.span("solver.solve"):
            u = solve_on_mesh(mesh, problem)
        prev = err
        with tr.span("solver.l2_error"):
            err = l2_error(mesh, u, problem)
        errors.append(err)
        if prev > 0 and (prev - err) < flatten_rtol * prev:
            break
    return {"mesh": mesh, "errors": errors, "reports": reports}
