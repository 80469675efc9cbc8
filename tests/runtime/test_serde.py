"""Buffer serde round trips must be exact — the backend-parity contract
(`serial` == `processes`) rests on bit-identical transport."""

import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bl_pipeline import BoundaryLayerConfig
from repro.core.decouple import DecoupledSubdomain
from repro.core.pipeline import MeshConfig, pack_mesh_request, request_cost
from repro.delaunay.mesh import TriMesh
from repro.geometry.airfoils import naca0012, three_element_airfoil
from repro.geometry.pslg import PSLG
from repro.runtime import serde
from repro.sizing.functions import (
    GradedDistanceSizing,
    RadialSizing,
    UniformSizing,
)

from tests.domains import CallableSizing


def random_ring(rng, n):
    """A random star-shaped simple polygon (CCW)."""
    angles = np.sort(rng.uniform(0.0, 2.0 * math.pi, size=n))
    radii = rng.uniform(0.5, 2.0, size=n)
    return np.column_stack([radii * np.cos(angles), radii * np.sin(angles)])


class TestSubdomainRoundTrip:
    def test_simple_exact(self):
        rng = np.random.default_rng(3)
        sub = DecoupledSubdomain(ring=random_ring(rng, 17), level=2,
                                 est_triangles=123.5)
        back = serde.unpack_subdomain(serde.pack_subdomain(sub))
        assert np.array_equal(back.ring, sub.ring)
        assert back.level == 2
        assert back.est_triangles == pytest.approx(123.5, abs=0.0)
        assert back.hole_rings == []
        assert back.holes == []

    def test_holes_exact(self):
        rng = np.random.default_rng(4)
        sub = DecoupledSubdomain(
            ring=random_ring(rng, 23) * 10.0,
            hole_rings=[random_ring(rng, 9), random_ring(rng, 12)],
            holes=[(0.25, -0.5), (1.0 / 3.0, 2.0 / 7.0)],
        )
        back = serde.unpack_subdomain(serde.pack_subdomain(sub))
        assert len(back.hole_rings) == 2
        for a, b in zip(back.hole_rings, sub.hole_rings):
            assert np.array_equal(a, b)
        assert back.holes == sub.holes  # tuples of exact floats

    def test_property_many_random(self):
        """Property-style sweep: random ring/hole/hole-count combinations
        survive the round trip bit-exactly."""
        rng = np.random.default_rng(5)
        for trial in range(25):
            n_holes = int(rng.integers(0, 4))
            sub = DecoupledSubdomain(
                ring=random_ring(rng, int(rng.integers(4, 40))) * 100.0,
                level=int(rng.integers(0, 7)),
                est_triangles=float(rng.uniform(0, 1e6)),
                hole_rings=[random_ring(rng, int(rng.integers(3, 12)))
                            for _ in range(n_holes)],
                holes=[tuple(rng.uniform(-1, 1, size=2))
                       for _ in range(n_holes)],
            )
            back = serde.unpack_subdomain(serde.pack_subdomain(sub))
            assert np.array_equal(back.ring, sub.ring)
            assert back.level == sub.level
            assert back.est_triangles == pytest.approx(sub.est_triangles,
                                                       abs=0.0)
            assert len(back.hole_rings) == n_holes
            for a, b in zip(back.hole_rings, sub.hole_rings):
                assert np.array_equal(a, b)
            assert all(
                ha == hb for ha, hb in zip(back.holes, sub.holes)
            )


class TestMeshRoundTrip:
    def test_exact(self):
        pts = np.asarray([[0.0, 0.0], [1.0, 0.0], [0.5, 1.0],
                          [1.5, 1.0]])
        tris = np.asarray([[0, 1, 2], [1, 3, 2]], dtype=np.int32)
        segs = np.asarray([[0, 1]], dtype=np.int32)
        mesh = TriMesh(pts, tris, segs)
        back = serde.unpack_mesh(serde.pack_mesh(mesh))
        assert np.array_equal(back.points, mesh.points)
        assert np.array_equal(back.triangles, mesh.triangles)
        assert np.array_equal(back.segments, mesh.segments)

    def test_empty_segments(self):
        mesh = TriMesh(np.asarray([[0.0, 0.0], [1.0, 0.0], [0.5, 1.0]]),
                       np.asarray([[0, 1, 2]], dtype=np.int32))
        back = serde.unpack_mesh(serde.pack_mesh(mesh))
        assert back.segments.shape == (0, 2)

    def test_pack_is_zero_copy(self):
        """pack/unpack must not copy the mesh arrays (buffer identity)."""
        mesh = TriMesh(np.asarray([[0.0, 0.0], [1.0, 0.0], [0.5, 1.0]]),
                       np.asarray([[0, 1, 2]], dtype=np.int32))
        buffers = serde.pack_mesh(mesh)
        assert buffers["points"] is mesh.points
        tr = buffers["triangles"]
        assert tr is mesh.triangles or tr.base is mesh.triangles
        back = serde.unpack_mesh(buffers)
        assert back.points is buffers["points"]


class TestSharedMemoryTransport:
    def test_round_trip_exact_and_zero_copy(self):
        rng = np.random.default_rng(7)
        buffers = {
            "points": rng.random((5000, 2)),
            "triangles": rng.integers(0, 5000, (9000, 3)).astype(np.int32),
            "segments": np.empty((0, 2), dtype=np.int32),
        }
        name, meta = serde.buffers_to_shm(buffers)
        out = serde.buffers_from_shm(name, meta)
        assert set(out) == set(buffers)
        for k in buffers:
            assert np.array_equal(out[k], buffers[k])
            assert out[k].dtype == buffers[k].dtype
            assert not out[k].flags.writeable
        # All views share one mapping: zero-copy attach.
        assert out["points"].base is not None

    def test_segment_freed_after_views_die(self):
        import gc
        import os

        if not os.path.isdir("/dev/shm"):
            pytest.skip("no /dev/shm on this platform")
        name, meta = serde.buffers_to_shm(
            {"x": np.zeros((4096, 2), dtype=np.float64)})
        out = serde.buffers_from_shm(name, meta)
        # Attach unlinks the name immediately; the data stays readable
        # through the existing mapping.
        assert not os.path.exists(os.path.join("/dev/shm", name.lstrip("/")))
        assert float(out["x"].sum()) == 0.0
        del out
        gc.collect()

    def test_bytes_shm_counter(self):
        from repro.runtime.counters import use_counters

        with use_counters() as sink:
            name, meta = serde.buffers_to_shm(
                {"x": np.zeros(1024, dtype=np.float64)})
        serde.buffers_from_shm(name, meta)
        assert sink.events.get("serde.bytes_shm", 0) >= 8192

    def test_shm_timing_samples_recorded(self):
        """Each publish records a paired (nbytes, seconds) observation —
        the simulator's network-model fit data."""
        from repro.runtime.counters import use_counters

        with use_counters() as sink:
            name, meta = serde.buffers_to_shm(
                {"x": np.zeros(2048, dtype=np.float64)})
        serde.buffers_from_shm(name, meta)
        nbytes = sink.samples["serde.shm_nbytes"]
        seconds = sink.samples["serde.shm_seconds"]
        assert len(nbytes) == len(seconds) == 1
        assert nbytes[0] >= 2048 * 8
        assert seconds[0] >= 0.0


class TestWireEnvelope:
    """``buffers_to_wire``: inline below the threshold, shm above, and
    the consuming/discarding sides leave no segment behind."""

    def _buffers(self, n):
        return {"x": np.arange(n, dtype=np.float64)}

    def test_small_payload_inline(self):
        wire = serde.buffers_to_wire(self._buffers(8))
        assert wire[0] == "inline"
        out = serde.wire_to_buffers(wire)
        assert np.array_equal(out["x"], np.arange(8, dtype=np.float64))

    def test_large_payload_rides_shm(self):
        buffers = self._buffers(50_000)
        wire = serde.buffers_to_wire(buffers)
        assert wire[0] == "shm"
        out = serde.wire_to_buffers(wire)
        assert np.array_equal(out["x"], buffers["x"])

    def test_threshold_override(self, monkeypatch):
        monkeypatch.setattr(serde, "SHM_MIN_BYTES", 1)
        wire = serde.buffers_to_wire(self._buffers(8))
        assert wire[0] == "shm"
        serde.discard_wire(wire)
        monkeypatch.setattr(serde, "SHM_MIN_BYTES", 1 << 30)
        wire = serde.buffers_to_wire(self._buffers(50_000))
        assert wire[0] == "inline"

    def test_discard_frees_segment_and_is_idempotent(self):
        import os

        if not os.path.isdir("/dev/shm"):
            pytest.skip("no /dev/shm on this platform")
        wire = serde.buffers_to_wire(self._buffers(50_000))
        name = wire[1].lstrip("/")
        assert os.path.exists(os.path.join("/dev/shm", name))
        serde.discard_wire(wire)
        assert not os.path.exists(os.path.join("/dev/shm", name))
        serde.discard_wire(wire)  # second discard: tolerated no-op
        serde.discard_wire(("inline", self._buffers(4)))  # no-op too

    def test_unknown_kind_rejected(self):
        with pytest.raises(serde.SerdeError, match="wire"):
            serde.wire_to_buffers(("carrier-pigeon", "x", {}))


class TestPSLGRoundTrip:
    @pytest.mark.parametrize("pslg", [
        PSLG.from_loops([naca0012(41)], names=["naca0012"]),
        three_element_airfoil(n_points=21),
    ])
    def test_exact(self, pslg):
        back = serde.unpack_pslg(serde.pack_pslg(pslg))
        assert np.array_equal(back.points, pslg.points)
        assert len(back.loops) == len(pslg.loops)
        for a, b in zip(back.loops, pslg.loops):
            assert np.array_equal(a.indices, b.indices)
            assert a.name == b.name
            assert a.is_body == b.is_body


class TestSizingRoundTrip:
    def test_uniform(self):
        s = serde.unpack_sizing(serde.pack_sizing(UniformSizing(0.125)))
        assert isinstance(s, UniformSizing)
        assert s.area_at(3.0, -4.0) == pytest.approx(0.125, abs=0.0)

    def test_radial_with_inf_cap(self):
        src = RadialSizing((0.5, -0.25), h0=1e-3, grading=0.3,
                           h_max=math.inf)
        s = serde.unpack_sizing(serde.pack_sizing(src))
        assert isinstance(s, RadialSizing)
        for x, y in [(0.0, 0.0), (10.0, 5.0), (-3.0, 7.0)]:
            assert s.area_at(x, y) == pytest.approx(src.area_at(x, y),
                                                    abs=0.0)

    def test_graded_distance_identical_everywhere(self):
        rng = np.random.default_rng(6)
        src = GradedDistanceSizing(rng.uniform(size=(300, 2)), h0=2e-3,
                                   grading=0.35, h_max=1.5)
        s = serde.unpack_sizing(serde.pack_sizing(src))
        assert isinstance(s, GradedDistanceSizing)
        for x, y in rng.uniform(-20, 20, size=(50, 2)):
            assert s.area_at(x, y) == pytest.approx(src.area_at(x, y),
                                                    abs=0.0)

    def test_callable_rejected(self):
        with pytest.raises(serde.SerdeError, match="not serializable"):
            serde.pack_sizing(CallableSizing(lambda x, y: 1.0))


class TestBLConfigRoundTrip:
    def test_exact(self):
        cfg = BoundaryLayerConfig(first_spacing=3e-4, growth_ratio=1.17,
                                  max_layers=23, isotropy_factor=0.8)
        back = serde.unpack_bl_config(serde.pack_bl_config(cfg))
        assert back == cfg


#: A value strategy per dataclass field annotation.  A config field of a
#: type not listed here fails the tests below until serde carries it.
_FIELD_VALUES = {
    "float": st.floats(1e-3, 1e3),
    "int": st.integers(1, 10_000),
    "Optional[float]": st.none() | st.floats(1e-3, 1e3),
}


def _configs(cls, **nested):
    return st.builds(cls, **nested, **{
        f.name: _FIELD_VALUES[f.type] for f in fields(cls)
        if f.name not in nested})


MESH_CONFIGS = st.deferred(
    lambda: _configs(MeshConfig, bl=_configs(BoundaryLayerConfig)))


def _bumped(value):
    return 1.0 if value is None else value + 1


class TestConfigIsTheRequest:
    """Every config field travels in the packed request, so the
    service's content address sees it: a field serde forgot would let
    two different requests share one cached mesh."""

    def test_fields_are_the_packed_fields(self):
        assert ({f.name for f in fields(BoundaryLayerConfig)}
                == set(serde._BL_FIELDS))
        assert ({f.name for f in fields(MeshConfig)} - {"bl"}
                == set(serde._MESH_FIELDS))

    @given(MESH_CONFIGS)
    @settings(max_examples=60, deadline=None)
    def test_round_trip_exact(self, cfg):
        assert serde.unpack_mesh_config(serde.pack_mesh_config(cfg)) == cfg

    @given(MESH_CONFIGS)
    @settings(max_examples=30, deadline=None)
    def test_every_field_moves_the_hash(self, cfg):
        def digest(c):
            return serde.canonical_hash(serde.pack_mesh_config(c))

        base = digest(cfg)
        for f in fields(BoundaryLayerConfig):
            bl = replace(cfg.bl, **{f.name: _bumped(getattr(cfg.bl, f.name))})
            assert digest(replace(cfg, bl=bl)) != base, f.name
        for f in fields(MeshConfig):
            if f.name != "bl":
                other = replace(cfg, **{
                    f.name: _bumped(getattr(cfg, f.name))})
                assert digest(other) != base, f.name

    def test_request_cost_takes_exactly_the_packed_layout(self):
        payload = pack_mesh_request(PSLG.from_loops([naca0012(21)]))
        assert request_cost(payload) > 0.0
        del payload["config.bl.params"]
        payload["config.bl.triangulation"] = serde._text("delaunay")
        with pytest.raises(serde.SerdeError) as err:
            request_cost(payload)
        assert ("missing ['config.bl.params'], unexpected "
                "['config.bl.triangulation']") in str(err.value)


class TestHelpers:
    def test_nest_unnest(self):
        a = {"x": np.zeros(3), "y": np.ones(2)}
        b = {"z": np.arange(4)}
        payload = {**serde.nest("a.", a), **serde.nest("b.", b)}
        back = serde.unnest("a.", payload)
        assert sorted(back) == ["x", "y"]
        assert np.array_equal(back["y"], a["y"])
        with pytest.raises(serde.SerdeError):
            serde.unnest("missing.", payload)

    def test_is_buffers(self):
        assert serde.is_buffers({"a": np.zeros(1)})
        assert serde.is_buffers({})
        assert not serde.is_buffers({"a": [1, 2]})
        assert not serde.is_buffers([np.zeros(1)])
        assert not serde.is_buffers({1: np.zeros(1)})

    def test_buffers_nbytes(self):
        buffers = {"a": np.zeros(4, dtype=np.float64),
                   "b": np.zeros(4, dtype=np.int32)}
        assert serde.buffers_nbytes(buffers) == 4 * 8 + 4 * 4
