"""Integration tests for the push-button meshing pipeline."""

import re

import numpy as np
import pytest

from repro.core.bl_pipeline import BoundaryLayerConfig
from repro.core.pipeline import MeshConfig, generate_mesh
from repro.geometry.airfoils import naca0012, three_element_airfoil
from repro.geometry.pslg import PSLG
from repro.runtime.counters import use_counters
from repro.sizing.functions import decoupling_edge_length


def small_config(**kw):
    defaults = dict(
        bl=BoundaryLayerConfig(first_spacing=2e-3, growth_ratio=1.4,
                               max_layers=12),
        farfield_chords=15.0,
        target_subdomains=10,
    )
    defaults.update(kw)
    return MeshConfig(**defaults)


class TestNaca0012Pipeline:
    @classmethod
    def setup_class(cls):
        cls.pslg = PSLG.from_loops([naca0012(61)])
        cls.result = generate_mesh(cls.pslg, small_config())

    def test_mesh_conforming(self):
        assert self.result.mesh.is_conforming()

    def test_area_accounting_exact(self):
        """Far-field square minus the airfoil area, to rounding."""
        from repro.geometry.primitives import polygon_area

        mesh_area = np.abs(self.result.mesh.areas()).sum()
        chord = self.pslg.chord_length()
        ff = (2 * 15.0 * chord) ** 2
        body = polygon_area(self.pslg.loop_points(self.pslg.loops[0]))
        assert mesh_area == pytest.approx(ff - body, rel=1e-9)

    def test_positively_oriented(self):
        assert np.all(self.result.mesh.areas() > 0)

    def test_anisotropic_and_isotropic_regions(self):
        ar = self.result.mesh.aspect_ratios()
        assert ar.max() > 10.0          # BL slivers
        assert np.median(ar) < 6.0      # bulk is isotropic

    def test_stage_timings_recorded(self):
        for key in ("boundary_layer", "decoupling", "refinement", "merge"):
            assert key in self.result.timings

    def test_inviscid_quality(self):
        """Quality bound holds in the decoupled subdomains (a few locked
        border-corner triangles are exempt — the cost of never splitting
        shared borders)."""
        from repro.delaunay.refine import RUPPERT_BOUND

        all_ratios = np.concatenate([
            m.radius_edge_ratios() for m in self.result.inviscid_meshes
        ])
        assert (all_ratios <= RUPPERT_BOUND + 1e-9).mean() > 0.9
        for m in self.result.inviscid_meshes:
            ratios = m.radius_edge_ratios()
            assert (ratios <= RUPPERT_BOUND + 1e-9).mean() > 0.7

    def test_gradation_outward(self):
        """Element area grows with distance from the body (Fig. 10)."""
        mesh = self.result.mesh
        cents = mesh.centroids()
        areas = np.abs(mesh.areas())
        r = np.hypot(cents[:, 0] - 0.5, cents[:, 1])
        near = areas[(r > 1.0) & (r < 2.0)]
        far = areas[r > 10.0]
        assert far.mean() > 10 * near.mean()


class TestBackendArgument:
    def test_matches_local(self):
        pslg = PSLG.from_loops([naca0012(41)])
        cfg = small_config(farfield_chords=10.0, target_subdomains=8)
        local = generate_mesh(pslg, cfg, backend="serial")
        pooled = generate_mesh(pslg, cfg, backend="processes", n_ranks=3)
        # Same subdomain set refined independently: identical meshes.
        assert pooled.mesh.n_triangles == local.mesh.n_triangles
        assert pooled.mesh.is_conforming()
        a = np.sort(np.abs(local.mesh.areas()))
        b = np.sort(np.abs(pooled.mesh.areas()))
        np.testing.assert_allclose(a, b, rtol=1e-12)

    def test_unknown_backend(self):
        pslg = PSLG.from_loops([naca0012(41)])
        with pytest.raises(ValueError):
            generate_mesh(pslg, small_config(), backend="mpi")


class TestConfigValidation:
    """Every float setting is finite and in the range the mesher relies
    on.  A NaN grading, spacing or ratio, or an infinite far field, used
    to hang the decoupling march; a negative grading or a zero spacing
    failed after the boundary layer was built; a subdomain count below 1
    quietly meant 4."""

    @pytest.mark.parametrize("field, value", [
        ("first_spacing", float("nan")), ("first_spacing", 0.0),
        ("first_spacing", float("inf")),
        ("growth_ratio", float("nan")), ("growth_ratio", float("inf")),
        ("growth_ratio", 0.9),
        ("max_layers", 0),
        ("max_ray_angle_deg", float("nan")),
        ("truncation_factor", float("inf")),
    ])
    def test_boundary_layer_config(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be a finite"):
            BoundaryLayerConfig(**{field: value})

    @pytest.mark.parametrize("field, value", [
        ("farfield_chords", float("inf")), ("farfield_chords", 0.0),
        ("grading", float("nan")), ("grading", float("inf")),
        ("grading", -1.0),
        ("h_max_chords", float("nan")), ("h_max_chords", 0.0),
        ("nearbody_margin_chords", float("nan")),
        ("nearbody_margin_chords", 0.0), ("nearbody_margin_chords", -0.1),
        ("target_subdomains", 0), ("target_subdomains", -3),
    ])
    def test_mesh_config(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be a finite"):
            MeshConfig(**{field: value})

    def test_far_field_must_contain_the_near_body_box(self):
        """A far field inside the near-body box used to fail in
        ``initial_quadrants`` with a bare "outer box must contain inner
        box"; it is a ``ValueError`` naming ``farfield_chords`` and the
        bound it must exceed, before any work item runs, and a value
        just past that bound meshes."""
        pslg = PSLG.from_loops([naca0012(41)])
        bl = BoundaryLayerConfig(max_layers=5)
        with use_counters() as sink:
            with pytest.raises(ValueError) as exc:
                generate_mesh(pslg, MeshConfig(bl=bl, farfield_chords=0.6))
        bound = re.match(r"farfield_chords must be > ([0-9.]+) .*got 0\.6$",
                         str(exc.value))
        assert bound, str(exc.value)
        assert "bl.triangulate" not in sink.phase_calls
        result = generate_mesh(pslg, MeshConfig(
            bl=bl, farfield_chords=1.001 * float(bound.group(1))))
        assert result.mesh.n_triangles > 0

    def test_edge_values_are_accepted(self):
        MeshConfig(bl=BoundaryLayerConfig(growth_ratio=1.0, max_layers=1),
                   grading=0.0, h_max_chords=None, target_subdomains=1)

    @pytest.mark.parametrize("area", [float("nan"), float("inf"), 0.0])
    def test_decoupling_edge_length_needs_a_finite_area(self, area):
        with pytest.raises(ValueError, match="positive and finite"):
            decoupling_edge_length(area)


class TestThreeElementPipeline:
    def test_full_highlift_mesh(self):
        pslg = three_element_airfoil(n_points=41)
        cfg = small_config(farfield_chords=10.0, target_subdomains=8)
        res = generate_mesh(pslg, cfg)
        assert res.mesh.is_conforming()
        assert res.mesh.n_triangles > 2000
        assert len(res.bl.element_rays) == 3
        # All three BL regions meshed.
        assert res.stats["n_bl_triangles"] > 500
