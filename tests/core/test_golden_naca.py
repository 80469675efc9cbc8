"""Golden regression: the NACA 0012 quickstart mesh and the ledger's
seed-0 meshes against ``tests/pins.json``.

``TestGoldenNaca0012`` is the drift gate.  Its anchor is four numbers of
the quickstart mesh as the seed commit built it (``golden_anchor``:
points, triangles, minimum angle, total area); re-meshing the same
configuration must stay within a few percent of them, because the
kernel may change insertion internals without being wrong.  The re-pin
script (``tests/pins.py``) never rewrites the anchor.

``TestPinnedHashes`` is the strict half: per case (the quickstart and
the two seed-0 perf-ledger meshes of ``benchmarks/ledger/workloads.py``,
``naca_farfield`` and ``highlift_bl``) the canonical hash, the size, the
inviscid quality and the BL statistics, exactly;
``test_every_counter_is_pinned`` does the same for every kernel counter
and the refiner's events.  A change that means to keep the bytes keeps
these; a change that means to move them runs ``python tests/pins.py``
and pastes its table into CHANGES.md with the reason.
"""

import numpy as np
import pytest

from repro import generate_mesh
from repro.core import decouple, pipeline
from repro.delaunay import cavity as cavity_module
from repro.delaunay import refine as refine_module
from repro.delaunay import validate_mesh
from repro.delaunay.refine import Refiner
from repro.runtime.counters import use_counters

from .. import pins
from ..delaunay.oracle_refine import assert_refinement_complete
from ..pins import pin
from . import oracle_estimate


#: The refiner's steps for one bad triangle, counted by
#: :func:`run_with_checked_estimates`: the straight walk, the conflict
#: region, its commit, and any other pass over a cavity (the split-order
#: search, a visibility prune).
STEPS = ("walks", "carves", "commits", "cavity_passes")


def run_with_checked_estimates(pslg, config, **kwargs):
    """``(result, counters sink, estimates, refiners, steps)`` of a
    ``generate_mesh``.  The sink only listens, and so do the others:
    every ``estimate_triangles`` call made on the way (they order the
    decoupling heap and the dispatch) as ``(value, the scalar oracle's
    value)``, the ``Refiner`` of every subdomain once it is done, and
    per bad triangle the refiner worked on, how often it called each of
    :data:`STEPS` (a dict)."""
    estimates = []
    refiners = []
    steps = []

    def listening(sub, sizing, real=decouple.estimate_triangles):
        value = real(sub, sizing)
        estimates.append(
            (value, oracle_estimate.estimate_triangles(sub, sizing)))
        return value

    def refining(refiner, real=Refiner.refine):
        real(refiner)
        refiners.append(refiner)

    def processing(refiner, t, work, real=Refiner._process_bad_triangle):
        steps.append(dict.fromkeys(STEPS, 0))
        real(refiner, t, work)

    def counted(step, real):
        def call(*args):
            steps[-1][step] += 1
            return real(*args)
        return call

    with pytest.MonkeyPatch.context() as patch, use_counters() as sink:
        patch.setattr(decouple, "estimate_triangles", listening)
        patch.setattr(pipeline, "estimate_triangles", listening)
        patch.setattr(Refiner, "refine", refining)
        patch.setattr(Refiner, "_process_bad_triangle", processing)
        for owner, name, step in (
                (Refiner, "_locate_visible", "walks"),
                (refine_module, "carve", "carves"),
                (refine_module, "retriangulate", "commits"),
                (refine_module, "_depth_first", "cavity_passes"),
                (cavity_module, "prune_cavity_visibility", "cavity_passes")):
            patch.setattr(owner, name, counted(step, getattr(owner, name)))
        result = generate_mesh(pslg, config, **kwargs)
    return result, sink, estimates, refiners, steps


def pinned_run(name):
    return run_with_checked_estimates(*pins.GENERATE_MESH[name](),
                                      backend="serial")


@pytest.fixture(scope="module")
def quickstart_run():
    """``(result, counters sink, estimates)`` of examples/quickstart.py."""
    return pinned_run("quickstart")


@pytest.fixture(scope="module")
def naca_farfield_run():
    """The perf ledger's seed-0 ``naca_farfield`` op."""
    return pinned_run("naca_farfield")


@pytest.fixture(scope="module")
def highlift_bl_run():
    """The perf ledger's seed-0 ``highlift_bl`` op."""
    return pinned_run("highlift_bl")


@pytest.fixture(scope="module")
def quickstart_mesh(quickstart_run):
    return quickstart_run[0].mesh


class TestGoldenNaca0012:
    def test_counts_within_tolerance(self, quickstart_mesh):
        assert quickstart_mesh.n_points == pytest.approx(
            pin("golden_anchor", "n_points"), rel=0.05)
        assert quickstart_mesh.n_triangles == pytest.approx(
            pin("golden_anchor", "n_triangles"), rel=0.05)

    def test_min_angle_within_tolerance(self, quickstart_mesh):
        got = float(np.degrees(quickstart_mesh.min_angle()))
        # The minimum angle is set by the BL slivers at the trailing-edge
        # cusp, which the BL generator controls deterministically.
        assert got == pytest.approx(pin("golden_anchor", "min_angle_deg"),
                                    rel=0.02)

    def test_structure_matches_golden(self, quickstart_mesh):
        assert quickstart_mesh.is_conforming()
        # Total mesh area (the farfield box minus the airfoil) must agree
        # tightly — it is fixed by the geometry, not the triangulation.
        got = float(np.abs(quickstart_mesh.areas()).sum())
        assert got == pytest.approx(pin("golden_anchor", "area"), rel=1e-6)


class TestKernelTraffic:
    def test_one_locate_and_one_conflict_region_per_insert(self,
                                                           quickstart_run):
        """Duplicated kernel work is a failure, not a profile reading:
        a Steiner point is located once and its conflict region carved
        once.  The slack is attempts that end without an insertion,
        circumcenters that land on an edge, segment recovery's own
        locates, and the candidates a carve must reject (the parent of
        this test walked 1.7x and tested 3.2-3.4x).  The subdomain
        triangulations carve nothing: their incircle tests, one per
        ring point glued back plus two per flip at most, come on top."""
        kernel = quickstart_run[1].kernel
        events = quickstart_run[1].events
        assert kernel.inserts > 1000
        assert kernel.locates <= 1.2 * kernel.inserts
        assert kernel.incircle_tests <= (2.2 * kernel.cavity_triangles
                                         + events["ring_points"]
                                         + 2 * kernel.flips)

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

    def test_each_question_once_per_circumcenter(self, quickstart_run):
        """The refiner's call profile, in structure: per bad triangle
        whose circumcenter it located, one straight walk, at most one
        carve, at most one commit, and no other pass over the cavity —
        ``carve`` reports the segments the point could encroach and
        whether the region wrapped one, so neither question walks the
        cavity again.  A change that brings a second pass back names
        itself here."""
        steps = quickstart_run[4]
        located = [s for s in steps if s["walks"]]
        assert len(located) > 1000
        profiles = {tuple(s.values()) for s in located}
        assert profiles <= {(1, 0, 0, 0), (1, 1, 0, 0), (1, 1, 1, 0)}
        n_commits = sum(s["commits"] for s in located)
        assert n_commits == quickstart_run[1].events["steiner_points"]

    def test_size_verdicts_come_from_a_bound(self, quickstart_run):
        """The sizing function is evaluated once per vertex and once per
        verdict its Lipschitz bound leaves open (0.54 evaluations per
        size test here), not once per test."""
        events = quickstart_run[1].events
        size_tests = (events["size_verdicts_clear"]
                      + events["size_verdicts_band"])
        assert events["size_verdicts_clear"] > 3 * events["size_verdicts_band"]
        assert events["sizing_evals"] <= 0.6 * size_tests

    def test_every_counter_is_pinned(self, quickstart_run, naca_farfield_run,
                                     highlift_bl_run):
        """A change that means to keep every decision keeps every count:
        each kernel counter (the wall-clock ``finalize_ns`` aside) and
        the refiner's events, exactly, on each pinned case."""
        for run, kernel, events in (
                (quickstart_run, pin("generate_mesh", "quickstart", "kernel"),
                 pin("generate_mesh", "quickstart", "events")),
                (naca_farfield_run,
                 pin("generate_mesh", "naca_farfield", "kernel"),
                 pin("generate_mesh", "naca_farfield", "events")),
                (highlift_bl_run,
                 pin("generate_mesh", "highlift_bl", "kernel"),
                 pin("generate_mesh", "highlift_bl", "events"))):
            got = pins.generate_mesh_pins(*run[:2])
            assert (got["kernel"], got["events"]) == (kernel, events)


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


class TestPinnedHashes:
    """Each case's ``mesh`` pins: hash, size, inviscid quality and BL
    statistics (its counters are ``test_every_counter_is_pinned``)."""

    def test_quickstart(self, quickstart_run):
        assert pins.generate_mesh_pins(*quickstart_run[:2])["mesh"] == pin(
            "generate_mesh", "quickstart", "mesh")

    def test_ledger_naca_farfield_seed0(self, naca_farfield_run):
        assert pins.generate_mesh_pins(*naca_farfield_run[:2])["mesh"] == pin(
            "generate_mesh", "naca_farfield", "mesh")

    def test_ledger_highlift_bl_seed0(self, highlift_bl_run):
        assert pins.generate_mesh_pins(*highlift_bl_run[:2])["mesh"] == pin(
            "generate_mesh", "highlift_bl", "mesh")


class TestPinnedMeshesAreCorrect:
    """Each pinned case: the merged mesh validates (conforming, no
    Delaunay violation across an unconstrained edge), and every
    subdomain's refinement is complete: each triangle left is good or
    its fix is denied."""

    @pytest.mark.parametrize("run", ["quickstart_run", "naca_farfield_run",
                                     "highlift_bl_run"])
    def test_valid_and_complete(self, run, request):
        result, _, _, refiners, _ = request.getfixturevalue(run)
        report = validate_mesh(result.mesh)
        assert report.ok and report.delaunay_violations == 0, report.summary()
        assert len(refiners) == 1 + len(result.inviscid_meshes)
        for refiner in refiners:
            assert_refinement_complete(refiner)
