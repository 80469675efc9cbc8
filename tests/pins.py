"""Every pinned output of the mesher, and the script that re-pins them.

``pins.json`` beside this file is the one place the answer to "what does
the mesher output?" is written down: canonical mesh hashes, the fuzz
digests, the kernel counters and refiner events, and the quality of
each ``generate_mesh`` case.  This module builds every pinned case once
(the tests import the builders) and reads the file (:func:`pin`).

``python tests/pins.py`` takes no options.  It rebuilds every case,
rewrites ``pins.json`` (sorted keys, ``json`` float repr: byte-stable)
and prints one markdown table of old → new values, so a change that
moves a hash shows whether quality moved with it.  The golden anchor is
copied through, never recomputed: it is the seed-era mesh the drift
tests measure against, and rewriting it would compare a mesh with
itself.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
if __name__ == "__main__":
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from repro import (  # noqa: E402
    BoundaryLayerConfig, MeshConfig, PSLG, generate_mesh, naca0012)
from repro.delaunay import adapt_mesh, refine_pslg  # noqa: E402
from repro.geometry.airfoils import three_element_airfoil  # noqa: E402
from repro.metric import MetricField  # noqa: E402
from repro.runtime import serde  # noqa: E402
from repro.runtime.counters import KERNEL_FIELDS, use_counters  # noqa: E402
from repro.solver.adapt import ShearLayerProblem, adapt_loop  # noqa: E402

PINS_JSON = Path(__file__).resolve().with_name("pins.json")

#: ``(start, cases)`` of the pinned ``fuzz_refine_digest.py`` slices.
FUZZ_SLICES = ((0, 1500), (1558, 6000))

#: ``fuzz_refine_digest.star_case`` seeds whose refinement re-queues a
#: surviving bad triangle (``tests/delaunay/test_refine.py``).
SURVIVOR_SEEDS = (532, 1774)

#: The refiner's events pinned per ``generate_mesh`` case.
REFINER_EVENTS = (
    "steiner_points", "triangle_tests", "sizing_evals",
    "size_verdicts_clear", "size_verdicts_band", "locked_segment_skips",
    "straight_walk_fallbacks", "blocked_circumcenters")


def pin(*keys: str):
    """The pinned value under ``keys``, read afresh from ``pins.json``.
    Every key is a string literal, so ``tests/test_pins.py`` can tell
    statically that each leaf is read; a call that stops above the
    leaves compares the whole subtree."""
    node = json.loads(PINS_JSON.read_text(encoding="utf-8"))
    for key in keys:
        node = node[key]
    return node


def fuzz_slice_key(start: int, cases: int) -> str:
    return f"start={start} cases={cases}"


def mesh_hash(mesh) -> str:
    """Canonical hash of a mesh's exact bytes."""
    return serde.canonical_hash(serde.pack_mesh(mesh))


# ----------------------------------------------------------------------
# generate_mesh cases: (pslg, config), meshed serially
# ----------------------------------------------------------------------
def quickstart():
    """examples/quickstart.py."""
    return (PSLG.from_loops([naca0012(n_points=101)], names=["naca0012"]),
            MeshConfig(bl=BoundaryLayerConfig(first_spacing=1e-3,
                                              growth_ratio=1.3,
                                              max_layers=40),
                       farfield_chords=40.0, target_subdomains=16))


def naca_farfield():
    """The perf ledger's seed-0 ``naca_farfield`` op."""
    return (PSLG.from_loops([naca0012(81)]),
            MeshConfig(bl=BoundaryLayerConfig(first_spacing=1e-3,
                                              growth_ratio=1.3,
                                              max_layers=25),
                       farfield_chords=30.0, grading=0.15,
                       h_max_chords=1.2, nearbody_margin_chords=0.25,
                       target_subdomains=32))


def highlift_bl():
    """The perf ledger's seed-0 ``highlift_bl`` op."""
    return (three_element_airfoil(n_points=71, flap_deflection=-30.0),
            MeshConfig(bl=BoundaryLayerConfig(first_spacing=1e-3,
                                              max_layers=60),
                       grading=0.35))


GENERATE_MESH = {f.__name__: f for f in (quickstart, naca_farfield,
                                         highlift_bl)}


def generate_mesh_pins(result, sink) -> dict:
    """What is pinned of one serial ``generate_mesh`` run.  ``mesh``:
    the hash, the size, the quality of the inviscid region (near-body
    plus decoupled subdomains: triangles over Ruppert's sqrt(2)
    radius-edge bound, smallest angle) and the BL statistics; ``kernel``:
    every kernel counter but the wall-clock ``finalize_ns``; ``events``:
    the refiner's."""
    inviscid = [result.nearbody_mesh, *result.inviscid_meshes]
    stats = result.bl.stats
    return {
        "mesh": {
            "hash": mesh_hash(result.mesh),
            "points": result.mesh.n_points,
            "triangles": result.mesh.n_triangles,
            "inviscid_triangles": sum(m.n_triangles for m in inviscid),
            "inviscid_over_sqrt2": sum(
                int((m.radius_edge_ratios() > math.sqrt(2.0)).sum())
                for m in inviscid),
            "min_inviscid_angle_deg": min(
                math.degrees(m.min_angle()) for m in inviscid),
            "bl": {name: stats[name] for name in (
                "n_points", "n_self_truncations", "n_multi_truncations")},
        },
        "kernel": {name: getattr(sink.kernel, name) for name in KERNEL_FIELDS
                   if name != "finalize_ns"},
        "events": {name: sink.events.get(name, 0)
                   for name in REFINER_EVENTS},
    }


# ----------------------------------------------------------------------
# refine_pslg cases: the area path of the size criterion, byte for byte
# ----------------------------------------------------------------------
UNIT_SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
SQUARE_SEGS = np.array([[0, 1], [1, 2], [2, 3], [3, 0]])
HOLE = [(0.5, 0.5)]


def square_max_area():
    return refine_pslg(UNIT_SQUARE.copy(), SQUARE_SEGS.copy(), max_area=0.01)


def lshape_area_fn():
    pts = np.array([[0.0, 0.0], [2.0, 0.0], [2.0, 1.0],
                    [1.0, 1.0], [1.0, 2.0], [0.0, 2.0]])
    segs = np.array([[0, 1], [1, 2], [2, 3], [3, 4], [4, 5], [5, 0]])
    return refine_pslg(
        pts, segs, area_fn=lambda x, y: 0.002 + 0.05 * (x * x + y * y))


def thin_rect_quality():
    pts = np.array([[0.0, 0.0], [10.0, 0.0], [10.0, 1.0], [0.0, 1.0]])
    return refine_pslg(pts, SQUARE_SEGS.copy())


def holed_square():
    """The unit square around a square hole of side 0.2."""
    pts = np.vstack([UNIT_SQUARE,
                     [[0.4, 0.4], [0.6, 0.4], [0.6, 0.6], [0.4, 0.6]]])
    segs = np.vstack([SQUARE_SEGS, [[4, 5], [5, 6], [6, 7], [7, 4]]])
    return refine_pslg(pts, segs, max_area=0.02, holes=HOLE)


REFINE_PSLG = {f.__name__: f for f in (square_max_area, lshape_area_fn,
                                       thin_rect_quality, holed_square)}


# ----------------------------------------------------------------------
# Adaptation: the ledger's seed-0 adapt_shear loop, the holed square
# ----------------------------------------------------------------------
def adapt_shear():
    """The perf ledger's seed-0 ``adapt_shear`` op, in-process."""
    mesh = refine_pslg(UNIT_SQUARE.copy(), SQUARE_SEGS.copy(),
                       max_area=0.02)
    return adapt_loop(mesh, problem=ShearLayerProblem(0.05, 0.1), cycles=2,
                      eps=4e-2, h_min=1e-3, h_max=0.3)


def adapt_shear_pins(result) -> dict:
    reports = [c.report for c in result.history[1:]]
    return {
        "hash": mesh_hash(result.mesh),
        "size": [result.mesh.n_points, result.mesh.n_triangles],
        "dof": [c.dof for c in result.history],
        "error": result.error,
        "ops": [[r.splits, r.collapses, r.flips, r.smooth_moves]
                for r in reports],
        "conformity_traces": [r.conformity_trace for r in reports],
    }


def rotated_metric(points, theta, h_across, h_along):
    """Constant analytic metric: spacing ``h_across`` along the
    direction at angle ``theta``, ``h_along`` normal to it."""
    c, s = np.cos(theta), np.sin(theta)
    l1, l2 = 1.0 / (h_across * h_across), 1.0 / (h_along * h_along)
    tensors = np.empty((len(points), 3))
    tensors[:, 0] = l1 * c * c + l2 * s * s
    tensors[:, 1] = (l1 - l2) * c * s
    tensors[:, 2] = l1 * s * s + l2 * c * c
    return MetricField(points, tensors)


def holed_square_adapt(protect: bool) -> dict:
    """:func:`holed_square` adapted to a rotated constant metric."""
    mesh = holed_square()
    adapted, report = adapt_mesh(
        mesh, rotated_metric(mesh.points, 0.6, 0.03, 0.25),
        max_passes=3, protect_segments=protect)
    return {
        "hash": mesh_hash(adapted),
        "size": [adapted.n_points, adapted.n_triangles],
        "ops": [report.splits, report.collapses, report.flips,
                report.smooth_moves],
        "conformity_after": report.conformity_after,
    }


# ----------------------------------------------------------------------
# The re-pin script
# ----------------------------------------------------------------------
def measure() -> dict:
    """Every pin but the golden anchor, recomputed from this tree."""
    from repro.delaunay.refine import Refiner
    from tests.delaunay import fuzz_refine_digest as fuzz

    out = {"generate_mesh": {}}
    for name, build in GENERATE_MESH.items():
        with use_counters() as sink:
            result = generate_mesh(*build(), backend="serial")
        out["generate_mesh"][name] = generate_mesh_pins(result, sink)
    out["adapt_shear"] = adapt_shear_pins(adapt_shear())
    out["holed_square_adapt"] = {
        name: holed_square_adapt(protect)
        for name, protect in (("free", False), ("protected", True))}
    out["refine_pslg"] = {name: mesh_hash(build())
                          for name, build in REFINE_PSLG.items()}
    out["survivors"] = {str(seed): fuzz.case_outcome(Refiner, seed)[0]
                        for seed in SURVIVOR_SEEDS}
    out["fuzz_refine_digest"] = {
        fuzz_slice_key(start, cases): fuzz.slice_digest(Refiner, start,
                                                        cases)
        for start, cases in FUZZ_SLICES}
    return out


COLUMNS = ("hash", "triangles", "Steiner points", "inviscid over √2",
           "min inviscid angle", "locked skips")


def rows(pins: dict) -> dict:
    """``{case: its generate_mesh pins, or its hash}``."""
    out = {f"generate_mesh {name}": row
           for name, row in pins.get("generate_mesh", {}).items()}
    if "adapt_shear" in pins:
        out["adapt_shear"] = pins["adapt_shear"]["hash"]
    for group in ("holed_square_adapt", "refine_pslg", "survivors",
                  "fuzz_refine_digest"):
        for name, value in pins.get(group, {}).items():
            out[f"{group} {name}"] = (value["hash"] if isinstance(value, dict)
                                      else value)
    return out


def cells(row) -> tuple:
    if isinstance(row, str):
        return (row[:12],) + ("",) * (len(COLUMNS) - 1)
    mesh, events = row["mesh"], row["events"]
    return (mesh["hash"][:12], str(mesh["triangles"]),
            str(events["steiner_points"]),
            f"{mesh['inviscid_over_sqrt2']} of {mesh['inviscid_triangles']}",
            f"{mesh['min_inviscid_angle_deg']:.3g}°",
            str(events["locked_segment_skips"]))


def leaves(node, path=()) -> dict:
    """``{key path: value}`` of every leaf (a list is one leaf)."""
    if not isinstance(node, dict):
        return {path: node}
    return {leaf: value for key, child in node.items()
            for leaf, value in leaves(child, path + (key,)).items()}


def table(old: dict, new: dict) -> str:
    """One markdown row per pinned case, each cell ``old → new``, then
    the count and the paths of the leaves that moved."""
    before = rows(old)
    lines = ["| case | " + " | ".join(COLUMNS) + " |",
             "|---" * (len(COLUMNS) + 1) + "|"]
    for case, after in rows(new).items():
        now_cells = cells(after)
        was_cells = (cells(before[case]) if case in before
                     else tuple(cell and "—" for cell in now_cells))
        line = [was and f"{was} → {now}"
                for was, now in zip(was_cells, now_cells)]
        lines.append(f"| {case} | " + " | ".join(line) + " |")
    old_leaves, new_leaves = leaves(old), leaves(new)
    moved = sorted(".".join(path)
                   for path in old_leaves.keys() | new_leaves.keys()
                   if old_leaves.get(path) != new_leaves.get(path))
    lines += ["", f"leaves moved: {len(moved)}"] + moved
    return "\n".join(lines)


def main() -> int:
    old = json.loads(PINS_JSON.read_text(encoding="utf-8"))
    new = measure()
    new["golden_anchor"] = old["golden_anchor"]
    PINS_JSON.write_text(json.dumps(new, indent=2, sort_keys=True) + "\n",
                         encoding="utf-8")
    print(table(old, new))
    return 0


if __name__ == "__main__":
    sys.exit(main())
