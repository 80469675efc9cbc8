"""Ablation benchmarks for the design choices DESIGN.md calls out.

* cut-axis policy: shortest-bbox-edge (paper) vs always-vertical cuts;
* partition rule: exact path-side vs the paper's branch-free coordinate
  split (Section III);
* work stealing on/off (Section II.F);
* largest-first vs FIFO queue ordering (Section IV);
* insertion order reuse: pre-sorted insertion vs shuffled (Section III,
  "we removed the sorting step from Triangle").
"""

import time

import numpy as np
import pytest

from repro.core.decompose import decompose, triangulate_leaves
from repro.delaunay.mesh import merge_meshes
from repro.runtime.simulator import NetworkModel, SimConfig, SimTask, simulate

from conftest import print_table


def lognormal_tasks(n=3000, seed=0):
    rng = np.random.default_rng(seed)
    return [SimTask(float(c), 4e4) for c in rng.lognormal(-2, 1.0, n)]


class TestCutAxisAblation:
    def test_shortest_edge_cut_balances_skinny_domains(self, benchmark):
        """On a strongly elongated cloud, always-vertical cuts produce
        long skinny leaves; the paper's shortest-edge rule does not."""
        rng = np.random.default_rng(3)
        pts = rng.uniform(0, 1, size=(4000, 2)) * np.array([100.0, 1.0])

        res_paper = benchmark.pedantic(
            lambda: decompose(pts, leaf_size=250), rounds=1, iterations=1)

        # Force horizontal cuts (the wrong axis for this cloud) by
        # monkey-patching the policy.
        from repro.core import subdomain as sd

        orig = sd.Subdomain.cut_axis
        sd.Subdomain.cut_axis = lambda self: "x"
        try:
            res_bad = decompose(pts, leaf_size=250)
        finally:
            sd.Subdomain.cut_axis = orig

        def skinniness(res):
            vals = []
            for leaf in res.leaves:
                box = leaf.bbox()
                vals.append(max(box.width, box.height)
                            / max(min(box.width, box.height), 1e-12))
            return float(np.median(vals))

        s_paper, s_bad = skinniness(res_paper), skinniness(res_bad)
        print_table(
            "Ablation — cut axis (paper: cut parallel to shortest bbox edge)",
            ["policy", "leaves", "median elongation"],
            [["shortest-edge (paper)", len(res_paper.leaves),
              f"{s_paper:.1f}"],
             ["always-horizontal", len(res_bad.leaves), f"{s_bad:.1f}"]],
        )
        assert s_paper < s_bad


class TestPartitionModeAblation:
    def test_path_mode_exact_coordinate_mode_fast(self, benchmark):
        from repro.delaunay.kernel import delaunay_mesh

        rng = np.random.default_rng(4)
        pts = rng.uniform(0, 1, size=(1500, 2))
        glob = delaunay_mesh(pts)
        keyify = lambda mesh: {
            tuple(sorted(np.round(mesh.points[list(t)], 12).ravel()))
            for t in mesh.triangles.tolist()
        }
        gset = keyify(glob)

        rows = []
        results = {}
        for mode in ("path", "coordinate"):
            t0 = time.perf_counter()
            res = decompose(pts, leaf_size=150, partition_mode=mode)
            t_dec = time.perf_counter() - t0
            merged = merge_meshes(triangulate_leaves(res))
            mset = keyify(merged)
            results[mode] = (res, merged, mset, t_dec)
            rows.append([mode, f"{t_dec * 1e3:.0f}ms",
                         len(gset - mset), len(mset - gset),
                         merged.is_conforming()])
        benchmark.pedantic(
            lambda: decompose(pts, leaf_size=150, partition_mode="path"),
            rounds=1, iterations=1)
        print_table(
            "Ablation — partition rule (Section III)",
            ["mode", "decompose", "missing", "extra", "conforming"], rows)
        # Exact mode: perfect Delaunay reassembly.
        assert results["path"][2] == gset
        # Paper's coordinate mode: still a valid conforming triangulation.
        assert results["coordinate"][1].is_conforming()


class TestLoadBalancingAblation:
    def test_stealing_beats_static(self, benchmark):
        tasks = lognormal_tasks()
        cfg_steal = SimConfig(network=NetworkModel(2e-6, 7e9))
        cfg_static = SimConfig(network=NetworkModel(2e-6, 7e9),
                               stealing=False)

        res_steal = benchmark.pedantic(
            lambda: simulate(tasks, 64, cfg_steal), rounds=1, iterations=1)
        res_static = simulate(tasks, 64, cfg_static)
        print_table(
            "Ablation — work stealing (Section II.F)",
            ["variant", "makespan", "steals"],
            [["stealing", f"{res_steal.makespan:.3f}s",
              res_steal.n_steal_successes],
             ["static", f"{res_static.makespan:.3f}s",
              res_static.n_steal_successes]],
        )
        assert res_steal.makespan <= res_static.makespan
        assert res_steal.n_steal_successes > 0

    def test_largest_first_helps_tail(self, benchmark):
        """Largest-first leaves small items for end-game balancing.

        FIFO order is emulated by shuffling costs so the largest tasks can
        land late; the end-of-run imbalance grows."""
        rng = np.random.default_rng(5)
        tasks = lognormal_tasks(seed=5)
        cfg = SimConfig(network=NetworkModel(2e-6, 7e9))
        res_lf = benchmark.pedantic(lambda: simulate(tasks, 64, cfg),
                                    rounds=1, iterations=1)
        # Emulate FIFO by hiding cost information from the scheduler:
        # uniform declared sizes, same true work.
        total = sum(t.cost for t in tasks)
        fifo_like = [SimTask(total / len(tasks), t.size_bytes)
                     for t in tasks]
        res_fifo = simulate(fifo_like, 64, cfg)
        print_table(
            "Ablation — queue ordering (largest-first vs size-blind)",
            ["variant", "makespan"],
            [["largest-first (paper)", f"{res_lf.makespan:.3f}s"],
             ["size-blind", f"{res_fifo.makespan:.3f}s"]],
        )
        # Largest-first with true costs is never worse than size-blind
        # scheduling of the same total work (modulo simulator noise).
        assert res_lf.makespan <= 1.2 * res_fifo.makespan


class TestInsertionOrderAblation:
    def test_sorted_insertion_walk_locality(self, benchmark):
        """Section III: reusing maintained sorted input keeps point-
        location walks short."""
        from repro.delaunay.dnc import triangulate_ordered

        rng = np.random.default_rng(6)
        pts = rng.uniform(0, 1, size=(6000, 2))

        t0 = time.perf_counter()
        triangulate_ordered(pts, "random")
        t_random = time.perf_counter() - t0

        t0 = time.perf_counter()
        triangulate_ordered(pts, "sorted")
        t_sorted = time.perf_counter() - t0

        benchmark.pedantic(lambda: triangulate_ordered(pts, "brio"),
                           rounds=1, iterations=1)
        t0 = time.perf_counter()
        triangulate_ordered(pts, "brio")
        t_brio = time.perf_counter() - t0
        print_table(
            "Ablation — insertion order (Section III sorted-input reuse)",
            ["order", "time"],
            [["random", f"{t_random:.2f}s"],
             ["sorted (paper)", f"{t_sorted:.2f}s"],
             ["brio", f"{t_brio:.2f}s"]],
        )
        # Locality-aware orders beat random shuffling.
        assert min(t_sorted, t_brio) < t_random


class TestDividingPathAblation:
    def test_delaunay_paths_preserve_alignment(self, benchmark):
        """Section II.D's justification: 'user-defined dividing paths may
        not have been present in the final triangulation and will disturb
        the alignment and orthogonality of the anisotropic elements.'

        We triangulate the same anisotropic BL point cloud (a) through the
        projection-based decomposition (paths are true Delaunay edges) and
        (b) as a CDT with arbitrary straight vertical cuts forced through
        the layers, then compare the surface-alignment of the stretched
        elements near the cuts.
        """
        import numpy as np

        from repro.analysis.metrics import alignment_to_surface
        from repro.core.decompose import decompose, triangulate_leaves
        from repro.delaunay.constrained import carve, triangulate_pslg
        from repro.delaunay.kernel import delaunay_mesh
        from repro.delaunay.mesh import merge_meshes

        # A flat-plate boundary layer: strongly stretched layers.
        nx, heights = 80, [0.0, 2e-3, 5e-3, 1e-2, 2e-2, 4e-2]
        xs = np.linspace(0.0, 1.0, nx)
        cloud = np.array([(x, h) for x in xs for h in heights])
        surface = np.column_stack([xs, np.zeros(nx)])

        def ours():
            res = decompose(cloud, leaf_size=60)
            return merge_meshes(triangulate_leaves(res))

        mesh_ours = benchmark.pedantic(ours, rounds=1, iterations=1)

        # Arbitrary partitioner: straight vertical constrained cuts.
        cut_xs = [0.25, 0.5, 0.75]
        extra = np.array([(cx, h) for cx in cut_xs
                          for h in np.linspace(0, 0.04, 4)])
        pts = np.vstack([cloud, extra])
        # Index helper for the cut segments.
        def idx(p):
            return int(np.argmin(((pts - p) ** 2).sum(axis=1)))
        segs = []
        for cx in cut_xs:
            col = [idx((cx, h)) for h in np.linspace(0, 0.04, 4)]
            segs.extend((a, b) for a, b in zip(col, col[1:]))
        tri = triangulate_pslg(pts, np.asarray(segs))
        mesh_cut = tri.to_mesh(keep_mask=carve(tri))

        def near_cut_scores(mesh):
            sc_all = alignment_to_surface(mesh, surface, min_ratio=3.0)
            cents = mesh.centroids()
            _, ratio = __import__(
                "repro.analysis.metrics", fromlist=["element_directions"]
            ).element_directions(mesh)
            sel = np.isfinite(ratio) & (ratio >= 3.0)
            near = np.zeros(sel.sum(), dtype=bool)
            csel = cents[sel]
            for cx in cut_xs:
                near |= np.abs(csel[:, 0] - cx) < 0.02
            return sc_all[near]

        s_ours = near_cut_scores(mesh_ours)
        s_cut = near_cut_scores(mesh_cut)
        from conftest import print_table

        print_table(
            "Ablation — dividing paths (Section II.D): alignment of "
            "stretched elements near the cuts",
            ["partitioner", "elements scored", "median |cos| alignment"],
            [["projection paths (paper)", len(s_ours),
              f"{np.median(s_ours):.3f}" if len(s_ours) else "n/a"],
             ["arbitrary vertical cuts", len(s_cut),
              f"{np.median(s_cut):.3f}" if len(s_cut) else "n/a"]],
        )
        # Ours is A global Delaunay triangulation (the grid cloud is
        # massively cocircular, so the DT is not unique; set equality with
        # another valid DT would be too strict): verify the Delaunay
        # property and exact coverage instead.
        glob = delaunay_mesh(cloud)
        assert mesh_ours.is_conforming()
        assert mesh_ours.delaunay_violations(respect_segments=True) == 0
        assert np.abs(mesh_ours.areas()).sum() == pytest.approx(
            np.abs(glob.areas()).sum(), rel=1e-12)
        assert len(s_ours) > 0
        assert np.median(s_ours) > 0.98
        # The forced cuts insert Steiner columns that break the layer
        # alignment locally.
        if len(s_cut):
            assert np.median(s_cut) <= np.median(s_ours)
