"""Golden regression: the NACA 0012 quickstart mesh vs the stored output.

``golden_naca0012.npz`` (beside this file) is the quickstart mesh
checked in as a golden artefact.  Re-meshing the same configuration
must stay within a few percent of it on the macro statistics — a drift
gate for kernel, refinement, or decoupling changes that accidentally
alter the mesh (the kernel itself is allowed to change insertion
internals, so counts are compared within tolerance, not bit-for-bit).

``TestPinnedHashes`` is the strict half: the canonical hashes of the
quickstart mesh and of the two seed-0 perf-ledger meshes
(``benchmarks/ledger/workloads.py``: ``naca_farfield``, ``highlift_bl``).
A change that means to keep the bytes must keep these; a change that
means to move them updates the pin and says why in CHANGES.md.
"""

from pathlib import Path

import numpy as np
import pytest

from repro import BoundaryLayerConfig, MeshConfig, PSLG, generate_mesh, naca0012
from repro.core import decouple, pipeline
from repro.geometry.airfoils import three_element_airfoil
from repro.io.meshio import read_mesh_npz
from repro.runtime import serde
from repro.runtime.counters import KERNEL_FIELDS, use_counters

from . import oracle_estimate

GOLDEN = Path(__file__).resolve().parent / "golden_naca0012.npz"


@pytest.fixture(scope="module")
def golden_mesh():
    return read_mesh_npz(GOLDEN)


def run_with_checked_estimates(pslg, config, **kwargs):
    """``(result, counters sink, estimates)`` of a ``generate_mesh``.  The sink only listens, and so does the third:
    every ``estimate_triangles`` call made on the way (they order the
    decoupling heap and the dispatch) as ``(value, the scalar oracle's
    value)``."""
    estimates = []

    def listening(sub, sizing, real=decouple.estimate_triangles):
        value = real(sub, sizing)
        estimates.append(
            (value, oracle_estimate.estimate_triangles(sub, sizing)))
        return value

    with pytest.MonkeyPatch.context() as patch, use_counters() as sink:
        patch.setattr(decouple, "estimate_triangles", listening)
        patch.setattr(pipeline, "estimate_triangles", listening)
        result = generate_mesh(pslg, config, **kwargs)
    return result, sink, estimates


@pytest.fixture(scope="module")
def quickstart_run():
    """``(mesh, counters sink, estimates)`` of examples/quickstart.py,
    mirrored exactly."""
    pslg = PSLG.from_loops([naca0012(n_points=101)], names=["naca0012"])
    config = MeshConfig(
        bl=BoundaryLayerConfig(first_spacing=1e-3, growth_ratio=1.3,
                               max_layers=40),
        farfield_chords=40.0,
        target_subdomains=16,
    )
    result, sink, estimates = run_with_checked_estimates(pslg, config)
    return result.mesh, sink, estimates


@pytest.fixture(scope="module")
def naca_farfield_run():
    """The perf ledger's seed-0 ``naca_farfield`` op."""
    pslg = PSLG.from_loops([naca0012(81)])
    config = MeshConfig(
        bl=BoundaryLayerConfig(first_spacing=1e-3, growth_ratio=1.3,
                               max_layers=25),
        farfield_chords=30.0, grading=0.15, h_max_chords=1.2,
        nearbody_margin_chords=0.25, target_subdomains=32)
    return run_with_checked_estimates(pslg, config, backend="serial")


@pytest.fixture(scope="module")
def highlift_bl_run():
    """The perf ledger's seed-0 ``highlift_bl`` op."""
    pslg = three_element_airfoil(n_points=71, flap_deflection=-30.0)
    config = MeshConfig(
        bl=BoundaryLayerConfig(first_spacing=1e-3, max_layers=60),
        grading=0.35)
    return run_with_checked_estimates(pslg, config, backend="serial")


@pytest.fixture(scope="module")
def quickstart_mesh(quickstart_run):
    return quickstart_run[0]


class TestGoldenNaca0012:
    def test_counts_within_tolerance(self, golden_mesh, quickstart_mesh):
        assert quickstart_mesh.n_points == pytest.approx(
            golden_mesh.n_points, rel=0.05)
        assert quickstart_mesh.n_triangles == pytest.approx(
            golden_mesh.n_triangles, rel=0.05)

    def test_min_angle_within_tolerance(self, golden_mesh, quickstart_mesh):
        got = float(np.degrees(quickstart_mesh.min_angle()))
        want = float(np.degrees(golden_mesh.min_angle()))
        # The minimum angle is set by the BL slivers at the trailing-edge
        # cusp, which the BL generator controls deterministically.
        assert got == pytest.approx(want, rel=0.02)

    def test_structure_matches_golden(self, golden_mesh, quickstart_mesh):
        assert quickstart_mesh.is_conforming()
        # Total mesh area (the farfield box minus the airfoil) must agree
        # tightly — it is fixed by the geometry, not the triangulation.
        got = float(np.abs(quickstart_mesh.areas()).sum())
        want = float(np.abs(golden_mesh.areas()).sum())
        assert got == pytest.approx(want, rel=1e-6)


class TestKernelTraffic:
    def test_one_locate_and_one_conflict_region_per_insert(self,
                                                           quickstart_run):
        """Duplicated kernel work is a failure, not a profile reading:
        a Steiner point is located once and its conflict region carved
        once.  The slack is attempts that end without an insertion,
        circumcenters that land on an edge, segment recovery's own
        locates, and the candidates a carve must reject (the parent of
        this test walked 1.7x and tested 3.2-3.4x)."""
        kernel = quickstart_run[1].kernel
        assert kernel.inserts > 1000
        assert kernel.locates <= 1.2 * kernel.inserts
        assert kernel.incircle_tests <= 2.2 * kernel.cavity_triangles

    def test_triangles_are_tested_when_queued_not_per_scan(self,
                                                           quickstart_run):
        """The refiner's worklist is one scan plus what insertions
        create, and a popped slot whose occupant was already tested
        reuses the verdict (5.41 quality/size tests per Steiner point
        here; without the verdict memo every stale queue position tests
        again, 8.54; ending every subdomain with one more scan of its
        mesh read 11.90)."""
        events = quickstart_run[1].events
        assert events["steiner_points"] > 1000
        assert events["triangle_tests"] <= 5.95 * events["steiner_points"]

    def test_size_verdicts_come_from_a_bound(self, quickstart_run):
        """The sizing function is evaluated once per vertex and once per
        verdict its Lipschitz bound leaves open (0.54 evaluations per
        size test here), not once per test."""
        events = quickstart_run[1].events
        size_tests = (events["size_verdicts_clear"]
                      + events["size_verdicts_band"])
        assert events["size_verdicts_clear"] > 3 * events["size_verdicts_band"]
        assert events["sizing_evals"] <= 0.6 * size_tests

    def test_every_counter_is_pinned(self, quickstart_run):
        """A change that means to keep every decision keeps every count:
        each kernel counter (the wall-clock ``finalize_ns`` aside) and
        the refiner's events, exactly.  A change that means to move them
        updates the pins and says why in CHANGES.md."""
        sink = quickstart_run[1]
        assert {name: getattr(sink.kernel, name) for name in KERNEL_FIELDS
                if name != "finalize_ns"} == {
            "inserts": 2887, "locates": 2941, "walk_steps": 8702,
            "brute_locates": 0, "grid_seeds": 0, "visibility_prunes": 0,
            "cavity_triangles": 12105, "flips": 0,
            "orient_fast": 9163, "orient_exact": 2178,
            "incircle_fast": 20981, "incircle_exact": 990,
            "orient_zero": 995, "incircle_zero": 95,
            "batch_calls": 0, "batch_entries": 0, "batch_points": 0,
            "conflict_retries": 0}
        events = sink.events
        assert {name: events.get(name, 0) for name in (
            "steiner_points", "triangle_tests", "sizing_evals",
            "size_verdicts_clear", "size_verdicts_band",
            "locked_segment_skips", "straight_walk_fallbacks",
            "blocked_circumcenters")} == {
            "steiner_points": 1699, "triangle_tests": 9185,
            "sizing_evals": 4311, "size_verdicts_clear": 6415,
            "size_verdicts_band": 1584, "locked_segment_skips": 103,
            "straight_walk_fallbacks": 1, "blocked_circumcenters": 8}


class TestEstimatesMatchScalarOracle:
    """``estimate_triangles`` is one array pass; the scalar loop it
    replaced (``oracle_estimate.py``) must give the same float for every
    work item, or the heap order, the dispatch order and the meshes
    move."""

    @pytest.mark.parametrize("run, calls", [
        ("quickstart_run", 20), ("naca_farfield_run", 40),
        ("highlift_bl_run", 20)])
    def test_every_work_item(self, run, calls, request):
        estimates = request.getfixturevalue(run)[2]
        assert len(estimates) >= calls
        assert all(got == want for got, want in estimates)


def mesh_hash(mesh) -> str:
    return serde.canonical_hash(serde.pack_mesh(mesh))


class TestPinnedHashes:
    def test_quickstart(self, quickstart_mesh):
        assert mesh_hash(quickstart_mesh) == (
            "748ad3f7136abbe8235f6ed58ac2951cdb039647993988afe88f21118b37cb38")

    def test_ledger_naca_farfield_seed0(self, naca_farfield_run):
        result = naca_farfield_run[0]
        assert result.bl.stats["n_points"] == 1706
        assert mesh_hash(result.mesh) == (
            "e7ccbc253dc732f3ee61394e6d35e50a0bf979e5132907655664a251195b1b2f")

    def test_ledger_highlift_bl_seed0(self, highlift_bl_run):
        result = highlift_bl_run[0]
        stats = result.bl.stats
        assert stats["n_points"] == 2726
        # (ray, pass) pairs whose height decreased / rays cut by a
        # neighbouring element.
        assert stats["n_self_truncations"] == 125
        assert stats["n_multi_truncations"] == 377
        assert mesh_hash(result.mesh) == (
            "01c1a8f80297cfb943bc33f94c8198c9f5ad32794f287aef20c6539790c89120")
