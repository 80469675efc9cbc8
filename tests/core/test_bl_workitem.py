"""The boundary-layer triangulation as work item 0 of ``generate_mesh``.

Everything downstream of the boundary layer reads only its outer
borders, so the pipeline submits the Delaunay triangulation of the BL
cloud to the executor first and reads the BL mesh at the merge.  What
must hold: one mesh for every rank count and backend (CPAFT's
consistency), an exact packed item whose result is the mesh the inline
composition builds, attribution of the item to the worker that ran it,
and the pool's fault contract when that worker dies or the dispatch is
aborted with item 0 in flight.
"""

import os
import signal
import threading
import time

import numpy as np
import pytest

from repro.core import bl_pipeline, pipeline
from repro.core.bl_pipeline import (
    BoundaryLayerConfig,
    generate_boundary_layer,
    prepare_boundary_layer,
    triangulate_boundary_layer,
)
from repro.core.pipeline import MeshConfig, generate_mesh
from repro.geometry.airfoils import naca0012, three_element_airfoil
from repro.geometry.pslg import PSLG
from repro.lint.engine import LintRunner
from repro.runtime import executor, serde
from repro.runtime.counters import monotonic, use_counters
from repro.runtime.executor import ExecutorError

from ..pins import mesh_hash, pin, quickstart

BACKENDS = ["serial", "processes"]


def smoke_naca():
    """The perf ledger's ``--smoke`` ``naca_farfield`` inputs, seed 0."""
    return (PSLG.from_loops([naca0012(41)]),
            MeshConfig(bl=BoundaryLayerConfig(first_spacing=1e-3,
                                              growth_ratio=1.3,
                                              max_layers=10),
                       farfield_chords=8.0, grading=0.35, h_max_chords=1.2,
                       nearbody_margin_chords=0.25, target_subdomains=8))


def smoke_three_element():
    """The perf ledger's ``--smoke`` ``highlift_bl`` inputs, seed 0."""
    return (three_element_airfoil(n_points=25, flap_deflection=-30.0),
            MeshConfig(bl=BoundaryLayerConfig(first_spacing=1e-3,
                                              max_layers=10),
                       grading=0.35))


# ----------------------------------------------------------------------
# (a) one mesh for every rank count x backend
# ----------------------------------------------------------------------
class TestConsistency:
    @pytest.mark.parametrize("build", [quickstart, smoke_naca,
                                       smoke_three_element])
    def test_one_hash_for_every_rank_count_and_backend(self, build):
        pslg, config = build()
        hashes = {}
        for backend in BACKENDS:
            for n_ranks in (1, 2, 3):
                result = generate_mesh(pslg, config, backend=backend,
                                       n_ranks=n_ranks)
                hashes[backend, n_ranks] = mesh_hash(result.mesh)
        assert len(set(hashes.values())) == 1, hashes

    def test_quickstart_hash_is_the_pinned_one(self):
        pslg, config = quickstart()
        result = generate_mesh(pslg, config, backend="processes",
                               n_ranks=2)
        assert mesh_hash(result.mesh) == pin("generate_mesh", "quickstart",
                                             "mesh", "hash")


# ----------------------------------------------------------------------
# (b) the packed item and the composition
# ----------------------------------------------------------------------
class TestPackedItem:
    @classmethod
    def setup_class(cls):
        cls.pslg, config = smoke_three_element()
        cls.config = config.bl
        cls.prepared = prepare_boundary_layer(cls.pslg, cls.config)

    def test_prepare_leaves_the_triangulation_pending(self):
        bl = self.prepared
        assert bl.mesh is None and "n_triangles" not in bl.stats
        assert bl.segments.dtype == np.int64 and bl.segments.shape[1] == 2
        assert bl.holes.shape == (len(self.pslg.body_loops), 2)
        assert len(bl.outer_borders) == len(self.pslg.body_loops)
        assert bl.segments.max() < len(bl.points)

    def test_round_trip_is_exact(self):
        bl = self.prepared
        packed = serde.pack_bl_item(bl.points, bl.segments, bl.holes,
                                    "scalar")
        assert packed["points"].dtype == np.float64
        assert packed["segments"].dtype == np.int64
        assert packed["holes"].dtype == np.float64
        wire = serde.bytes_to_buffers(serde.buffers_to_bytes(packed))
        points, segments, holes, strategy = serde.unpack_bl_item(wire)
        assert points.tobytes() == bl.points.tobytes()
        assert segments.tobytes() == bl.segments.tobytes()
        assert holes.tobytes() == bl.holes.tobytes()
        assert strategy == "scalar"

    def test_item_result_is_the_composed_mesh(self):
        bl = self.prepared
        payload = serde.nest("bl.", serde.pack_bl_item(
            bl.points, bl.segments, bl.holes, "scalar"))
        result = pipeline._workitem(payload)
        assert result["seconds"][0] > 0.0
        mesh = serde.unpack_mesh(result)
        whole = generate_boundary_layer(self.pslg, self.config).mesh
        assert mesh.points.tobytes() == whole.points.tobytes()
        assert mesh.triangles.tobytes() == whole.triangles.tobytes()
        assert mesh.segments.tobytes() == whole.segments.tobytes()

    def test_generate_is_the_composition_of_the_two_halves(self,
                                                           monkeypatch):
        calls = []

        def prepare(*args, real=prepare_boundary_layer, **kwargs):
            calls.append("prepare")
            return real(*args, **kwargs)

        def triangulate(*args, real=triangulate_boundary_layer, **kwargs):
            calls.append("triangulate")
            return real(*args, **kwargs)

        monkeypatch.setattr(bl_pipeline, "prepare_boundary_layer", prepare)
        monkeypatch.setattr(bl_pipeline, "triangulate_boundary_layer",
                            triangulate)
        bl = generate_boundary_layer(self.pslg, self.config)
        assert calls == ["prepare", "triangulate"]
        assert bl.stats["n_triangles"] == bl.mesh.n_triangles > 0


# ----------------------------------------------------------------------
# (e) serde: item kinds and the buffer contract
# ----------------------------------------------------------------------
class TestItemKinds:
    def test_unknown_item_kind_is_a_typed_error(self):
        with pytest.raises(serde.SerdeError, match="unknown work item kind"):
            pipeline._workitem({"mesh.points": np.zeros((3, 2))})

    def test_new_keys_are_under_the_buffer_contract_lint(self):
        """R10 reads ``pack_*`` / ``unpack_*`` factories: the new pair is
        in its scope by name and its keys and dtypes pass."""
        from repro.lint.rules import SerdeContractRule

        rule = SerdeContractRule()
        assert rule._in_scope("pack_bl_item")
        assert rule._in_scope("unpack_bl_item")
        findings, n_files = LintRunner([rule]).run([serde.__file__])
        assert n_files == 1 and findings == []
        packed = serde.pack_bl_item(np.zeros((3, 2)), [(0, 1)],
                                    [(0.1, 0.1)], "scalar")
        assert sorted(packed) == ["holes", "insert_strategy", "points",
                                  "segments"]


# ----------------------------------------------------------------------
# (c) attribution
# ----------------------------------------------------------------------
class TestAttribution:
    def test_bl_item_is_placed_on_a_worker_rank(self):
        pslg, config = smoke_three_element()
        serial = generate_mesh(pslg, config, backend="serial")
        serial_bl = (serial.timings["boundary_layer"]
                     + serial.timings["bl_triangulate"])
        backend = executor.get_backend("processes")
        backend.warm_pool(2)
        with use_counters() as sink:
            result = generate_mesh(pslg, config, backend="processes",
                                   n_ranks=2)
        assert mesh_hash(result.mesh) == mesh_hash(serial.mesh)
        ranks = [name for name in sink.events
                 if name.startswith("executor.bl_item.rank")]
        assert len(ranks) == 1 and sink.events[ranks[0]] == 1
        # The phase came back with that worker's snapshot, once, and is
        # the wall the parent reports; the executor counted the item too.
        assert sink.phase_calls["bl.triangulate"] == 1
        assert sink.samples["executor.bl_item_seconds"] == [
            result.timings["bl_triangulate"]]
        assert (sink.samples["executor.bl_item_bytes"][0]
                in sink.samples["executor.item_bytes"])
        n_items = sum(n for name, n in sink.events.items()
                      if name.startswith("executor.items.rank"))
        assert n_items == 2 + len(result.inviscid_meshes)
        # What is left in the parent is the prepare half.
        assert sink.phases["boundary_layer"] < 0.25 * serial_bl
        assert result.timings["boundary_layer"] < 0.25 * serial_bl

    def test_every_backend_reports_both_timings(self):
        pslg, config = smoke_naca()
        with use_counters() as sink:
            result = generate_mesh(pslg, config, backend="serial")
        assert result.timings["bl_triangulate"] > 0.0
        assert sink.phases["bl_triangulate"] == pytest.approx(
            result.timings["bl_triangulate"])
        assert len(sink.samples["executor.bl_item_seconds"]) == 1
        # No worker process: no rank to report.
        assert not [name for name in sink.events
                    if name.startswith("executor.bl_item.rank")]


# ----------------------------------------------------------------------
# (d) faults with item 0 in flight
# ----------------------------------------------------------------------
SHM_DIR = "/dev/shm"


def _segments():
    return ({n for n in os.listdir(SHM_DIR) if n.startswith("psm_")}
            if os.path.isdir(SHM_DIR) else set())


@pytest.fixture
def fresh_pool(monkeypatch):
    """The ``processes`` backend with no workers yet and every transfer
    through shared memory: workers forked from here on inherit whatever
    the test patched into this process."""
    import multiprocessing as mp

    if "fork" not in mp.get_all_start_methods():
        pytest.skip("patches reach pool workers through fork only")
    monkeypatch.setattr(serde, "SHM_MIN_BYTES", 0)
    backend = executor.get_backend("processes")
    backend.shutdown_pool()
    yield backend
    backend.shutdown_pool()


class TestFaultsOnItemZero:
    @classmethod
    def setup_class(cls):
        cls.pslg, cls.config = smoke_naca()
        cls.reference = mesh_hash(
            generate_mesh(cls.pslg, cls.config, backend="serial").mesh)

    def test_worker_holding_the_bl_item_dies(self, fresh_pool, monkeypatch,
                                             tmp_path):
        """SIGKILL inside the BL triangulation: the item is requeued on
        a respawned worker, the mesh is the same, nothing leaks."""
        marker = str(tmp_path / "bl-killed-once")

        def kill_once(*args, real=triangulate_boundary_layer, **kwargs):
            if not os.path.exists(marker):
                with open(marker, "w"):
                    pass
                os.kill(os.getpid(), signal.SIGKILL)
            return real(*args, **kwargs)

        monkeypatch.setattr(pipeline, "triangulate_boundary_layer",
                            kill_once)
        before = _segments()
        with use_counters() as sink:
            result = generate_mesh(self.pslg, self.config,
                                   backend="processes", n_ranks=2)
        assert os.path.exists(marker)
        assert fresh_pool.stats["respawns"] == 1
        assert sink.events["executor.respawns"] == 1
        assert mesh_hash(result.mesh) == self.reference
        assert result.timings["bl_triangulate"] > 0.0
        assert _segments() <= before

    def test_abort_with_the_bl_item_in_flight(self, fresh_pool, monkeypatch,
                                              tmp_path):
        """An aborted dispatch drops item 0's late result behind the
        epoch fence; the next mesh on the same pool is the right one."""
        marker = str(tmp_path / "bl-slow-once")

        def slow_once(*args, real=triangulate_boundary_layer, **kwargs):
            if not os.path.exists(marker):
                with open(marker, "w"):
                    pass
                time.sleep(1.0)
            return real(*args, **kwargs)

        monkeypatch.setattr(pipeline, "triangulate_boundary_layer",
                            slow_once)
        before = _segments()

        def abort_when_open():
            deadline = monotonic() + 20.0
            while monotonic() < deadline:
                if os.path.exists(marker) and fresh_pool.abort("test"):
                    return
                time.sleep(0.01)

        aborter = threading.Thread(target=abort_when_open)
        aborter.start()
        try:
            with pytest.raises(ExecutorError, match="dispatch aborted"):
                generate_mesh(self.pslg, self.config, backend="processes",
                              n_ranks=2)
        finally:
            aborter.join(timeout=30.0)
        assert not aborter.is_alive()
        assert _segments() <= before
        epoch = fresh_pool._epoch
        result = generate_mesh(self.pslg, self.config, backend="processes",
                               n_ranks=2)
        assert fresh_pool._epoch == epoch + 1
        assert mesh_hash(result.mesh) == self.reference
        assert _segments() <= before
