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
import re
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
from repro.core.decouple import DecoupledSubdomain
from repro.core.pipeline import MeshConfig, generate_mesh
from repro.geometry.airfoils import naca0012, three_element_airfoil
from repro.geometry.pslg import PSLG
from repro.metric import MetricField
from repro.runtime import executor, serde
from repro.runtime.counters import monotonic, use_counters
from repro.runtime.executor import ExecutorError
from repro.sizing.functions import GradedDistanceSizing

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
        assert len(bl.outer_borders) == len(self.pslg.body_loops)
        assert bl.segments.max() < len(bl.points)
        # One chain per ray, from its origin at height 0; every point on
        # some chain.
        n_rays = sum(len(rays) for rays in bl.element_rays)
        assert bl.element_ptr.tolist() == np.cumsum(
            [0] + [len(rays) for rays in bl.element_rays]).tolist()
        assert len(bl.ray_ptr) == n_rays + 1
        assert len(bl.ray_ids) == len(bl.ray_h) == bl.ray_ptr[-1]
        assert (bl.ray_h[bl.ray_ptr[:-1]] == 0.0).all()
        assert set(bl.ray_ids.tolist()) == set(range(len(bl.points)))

    def test_round_trip_is_exact(self):
        bl = self.prepared
        packed = serde.pack_bl_item(*bl.item())
        assert packed["points"].dtype == np.float64
        assert packed["segments"].dtype == np.int64
        assert packed["ray_h"].dtype == np.float64
        for key in ("element_ptr", "ray_ptr", "ray_ids"):
            assert packed[key].dtype == np.int64
        wire = serde.bytes_to_buffers(serde.buffers_to_bytes(packed))
        back = serde.unpack_bl_item(wire)
        assert len(back) == len(bl.item())
        for got, sent in zip(back, bl.item()):
            assert got.dtype == np.asarray(sent).dtype
            assert got.tobytes() == np.asarray(sent).tobytes()

    def test_an_item_of_another_layout_is_a_typed_error(self):
        packed = serde.pack_bl_item(*self.prepared.item())
        packed["layout"] = np.asarray([1], dtype=np.int32)
        with pytest.raises(serde.SerdeError, match="layout 1"):
            serde.unpack_bl_item(packed)
        del packed["layout"]
        with pytest.raises(serde.SerdeError, match="layout 1"):
            serde.unpack_bl_item(packed)

    def test_item_result_is_the_composed_mesh(self):
        bl = self.prepared
        payload = serde.nest("bl.", serde.pack_bl_item(*bl.item()))
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

    def test_every_pack_factory_keeps_the_buffer_contract(self):
        """Every ``pack_*`` factory of ``runtime/serde.py``, and the two of
        the pipeline, on a small real input: keys are snake_case (dotted
        where nested), every dtype is one the canonical stream is pinned
        with, and the dict round-trips exactly through the byte stream
        and its ``unpack_*`` (packing the unpacked value again gives the
        same bytes)."""
        pslg, config = smoke_naca()
        result = generate_mesh(pslg, config, backend="serial")
        bl = prepare_boundary_layer(pslg, config.bl)
        borders = [np.asarray(ob) for ob in bl.outer_borders]
        box = np.asarray([(-1.0, -1.0), (2.0, -1.0), (2.0, 1.0), (-1.0, 1.0)])
        field = MetricField.uniform(result.mesh.points, 0.1)

        def unpack_adapt_item(b):
            max_passes, protect = (float(x) for x in b["params"])
            return (serde.unpack_mesh(serde.unnest("mesh.", b)),
                    serde.unpack_metric(serde.unnest("metric.", b)),
                    int(max_passes), bool(protect))

        def pack_adapt_item(mesh, metric_field, max_passes, protect):
            return pipeline.pack_adapt_item(mesh, metric_field,
                                            max_passes=max_passes,
                                            protect_segments=protect)

        factories = [
            (serde.pack_mesh, result.mesh, serde.unpack_mesh),
            (serde.pack_bl_item, bl.item(), serde.unpack_bl_item),
            (serde.pack_metric, field, serde.unpack_metric),
            (serde.pack_subdomain,
             DecoupledSubdomain(ring=box, level=2, est_triangles=12.5,
                                hole_rings=borders),
             serde.unpack_subdomain),
            (serde.pack_pslg, pslg, serde.unpack_pslg),
            (serde.pack_sizing,
             GradedDistanceSizing(np.vstack(borders), 0.01, grading=0.35,
                                  h_max=1.2),
             serde.unpack_sizing),
            (serde.pack_bl_config, config.bl, serde.unpack_bl_config),
            (serde.pack_mesh_config, config, serde.unpack_mesh_config),
            (serde.pack_mesh_config, MeshConfig(h_max_chords=None),
             serde.unpack_mesh_config),
            (pipeline.pack_mesh_request, (pslg, config),
             pipeline.unpack_mesh_request),
            (pack_adapt_item, (result.mesh, field, 2, True),
             unpack_adapt_item),
        ]
        assert {pack for pack, _, _ in factories} >= {
            getattr(serde, name) for name in dir(serde)
            if name.startswith("pack_")}
        key = re.compile(r"[a-z][a-z0-9_]*(\.[a-z][a-z0-9_]*)*")
        for pack, value, unpack in factories:
            args = value if isinstance(value, tuple) else (value,)
            packed = pack(*args)
            name = pack.__name__
            for k, a in packed.items():
                assert key.fullmatch(k), (name, k)
                assert a.dtype.name in {"float64", "int32", "int64",
                                        "uint8", "bool"}, (name, k, a.dtype)
            stream = serde.buffers_to_bytes(packed)
            wire = serde.bytes_to_buffers(stream)
            assert sorted(wire) == sorted(packed), name
            for k, a in packed.items():
                assert wire[k].dtype == a.dtype, (name, k)
                assert wire[k].shape == a.shape, (name, k)
                assert wire[k].tobytes() == a.tobytes(), (name, k)
            back = unpack(wire)
            again = pack(*back) if isinstance(back, tuple) else pack(back)
            assert serde.buffers_to_bytes(again) == stream, name


# ----------------------------------------------------------------------
# (c) attribution
# ----------------------------------------------------------------------
class TestAttribution:
    def test_bl_item_is_placed_on_a_worker_rank(self):
        pslg, config = smoke_three_element()
        serial = generate_mesh(pslg, config, backend="serial")
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
        # What is left in the parent is the prepare half: one
        # boundary_layer phase and its three stages, once each; the
        # triangulation is the one worker phase counted above.
        for name in ("boundary_layer", "bl.rays", "bl.intersections",
                     "bl.insert_points"):
            assert sink.phase_calls[name] == 1, name

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

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_every_timing_is_a_profile_phase(self, backend):
        """A stage ``generate_mesh`` times is a phase of the profile
        (``--profile``): timed through ``counters.timed``, not by a
        clock read of its own, which would leave the stage out of the
        report."""
        pslg, config = smoke_naca()
        with use_counters() as sink:
            result = generate_mesh(pslg, config, backend=backend,
                                   n_ranks=2)
        assert sorted(result.timings) == [
            "bl_triangulate", "boundary_layer", "decoupling", "merge",
            "nearbody_setup", "refinement"]
        assert set(result.timings) <= set(sink.phases)


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
