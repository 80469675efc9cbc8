"""Tests for the distributed boundary-layer point computation (II.C)."""

import numpy as np
import pytest

from repro.core.bl_pipeline import BoundaryLayerConfig, generate_boundary_layer
from repro.core.parallel_bl import chunk_bounds, parallel_bl_points
from repro.geometry.airfoils import naca0012
from repro.geometry.pslg import PSLG


CFG = BoundaryLayerConfig(first_spacing=2e-3, growth_ratio=1.4,
                          max_layers=10)


class TestChunkBounds:
    def test_partition_covers_exactly(self):
        for n in (1, 7, 16, 100):
            for size in (1, 3, 8):
                spans = [chunk_bounds(n, size, r) for r in range(size)]
                assert spans[0][0] == 0
                assert spans[-1][1] == n
                for (a0, a1), (b0, b1) in zip(spans, spans[1:]):
                    assert a1 == b0

    def test_balanced(self):
        spans = [chunk_bounds(100, 7, r) for r in range(7)]
        sizes = [hi - lo for lo, hi in spans]
        assert max(sizes) - min(sizes) <= 1


class TestParallelBLPoints:
    def test_matches_sequential_point_set(self):
        """The SPMD chunked computation produces exactly the same point
        cloud as the sequential pipeline (the paper's implicit-ordering
        gather is lossless)."""
        pslg = PSLG.from_loops([naca0012(61)])
        seq = generate_boundary_layer(pslg, CFG)
        par_coords, stats = parallel_bl_points(pslg, CFG, n_ranks=4,
                                               backend="threads")

        seq_set = {tuple(np.round(p, 12)) for p in seq.points}
        par_set = {tuple(np.round(p, 12)) for p in par_coords}
        assert par_set == seq_set

    def test_rank_count_invariance(self):
        pslg = PSLG.from_loops([naca0012(41)])
        sets = []
        for n_ranks in (1, 2, 5):
            coords, _ = parallel_bl_points(pslg, CFG, n_ranks=n_ranks)
            sets.append({tuple(np.round(p, 12)) for p in coords})
        assert sets[0] == sets[1] == sets[2]

    def test_gather_is_coordinates_only(self):
        """Section II.C's communication claim: the gathered volume is
        16 bytes per point (two float64 coordinates), not a serialised
        object graph."""
        pslg = PSLG.from_loops([naca0012(61)])
        coords, stats = parallel_bl_points(pslg, CFG, n_ranks=4,
                                           backend="threads")
        assert stats["n_points"] > 200
        # Coordinates-only: 16 B/point plus tiny pickle overheads.
        assert stats["bytes_per_point"] < 24.0

    def test_coordinates_beat_object_payloads(self):
        """Quantify the optimisation: sending full per-point records
        would cost a large multiple of the coordinates-only payload."""
        from repro.runtime.comm import payload_nbytes

        coords = np.random.default_rng(0).uniform(size=(1000, 2))
        as_array = payload_nbytes(coords)
        as_records = payload_nbytes([
            {"x": float(x), "y": float(y), "proj": (float(x), float(y)),
             "id": i}
            for i, (x, y) in enumerate(coords)
        ])
        assert as_records > 3 * as_array


class TestMultiElementParallelBL:
    def test_three_element_matches_sequential(self):
        from repro.geometry.airfoils import three_element_airfoil

        pslg = three_element_airfoil(n_points=31)
        cfg = BoundaryLayerConfig(first_spacing=3e-3, growth_ratio=1.5,
                                  max_layers=6)
        # Sequential reference WITHOUT intersection resolution effects:
        # compare the parallel per-chunk ray/insertion stage against a
        # 1-rank run of the same SPMD code (resolution runs on the root
        # afterwards in both settings).
        solo, _ = parallel_bl_points(pslg, cfg, n_ranks=1, backend="threads")
        multi, stats = parallel_bl_points(pslg, cfg, n_ranks=5,
                                          backend="threads")
        a = {tuple(np.round(p, 12)) for p in solo}
        b = {tuple(np.round(p, 12)) for p in multi}
        assert a == b
        assert stats["bytes_per_point"] < 24.0
