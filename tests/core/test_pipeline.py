"""Integration tests for the push-button meshing pipeline."""

import numpy as np
import pytest

from repro.core.bl_pipeline import BoundaryLayerConfig
from repro.core.pipeline import MeshConfig, generate_mesh
from repro.geometry.airfoils import naca0012, three_element_airfoil
from repro.geometry.pslg import PSLG


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
