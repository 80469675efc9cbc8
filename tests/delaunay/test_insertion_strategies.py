"""Cavity-engine insertion strategies: registry, independence, parity.

The batch strategy's entire correctness argument rests on one planning
invariant: within a sub-batch, every accepted candidate's cavity
*closed edge-neighbourhood* (cavity plus every triangle sharing an
edge with it) is disjoint from every other accepted cavity.  By the
Clarkson–Shor history lemma a new fan triangle's circumdisk lies
inside disk(destroyed triangle) ∪ disk(surviving edge-neighbour), so
neighbourhood separation guarantees no accepted point's conflict set
changes while the batch replays — the property test here asserts it
on the cavities each sub-batch commits, and the differential tests pin
the *result* to the scalar path (exact Delaunay, canonical-hash
parity).
"""

import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.delaunay import available_strategies, cavity, get_strategy
from repro.delaunay.cavity import BatchInsertion, ScalarInsertion, brio_order
from repro.delaunay.kernel import Triangulation, delaunay_mesh, triangulate
from repro.geometry.airfoils import naca4
from repro.geometry.predicates import incircle
from repro.runtime import serde
from repro.runtime.counters import use_counters

from . import oracle
from .oracle import check_integrity


# ----------------------------------------------------------------------
# Lookup by name
# ----------------------------------------------------------------------
class TestRegistry:
    def test_builtin_strategies_registered(self):
        names = available_strategies()
        assert "scalar" in names and "batch" in names
        assert isinstance(get_strategy("scalar"), ScalarInsertion)
        assert isinstance(get_strategy("batch"), BatchInsertion)

    def test_unknown_name_lists_available(self):
        for name in ("bogus", "vectorized", "serial", "default"):
            with pytest.raises(ValueError, match="batch, scalar"):
                get_strategy(name)


# ----------------------------------------------------------------------
# Independence property on the committed sub-batches
# ----------------------------------------------------------------------
def _batch_triangulate(pts):
    """Batch-insert ``pts``; returns the kernel and, per committed
    sub-batch, ``[(cavity, closed edge-neighbourhood), ...]`` read off
    the kernel as the replay commits each cavity.  (Reading a later
    cavity's neighbourhood after the earlier commits of its sub-batch
    loses nothing: a commit rewrites only its own cavity and that
    cavity's neighbours' back-pointers, i.e. its closed neighbourhood,
    and the pairwise check below is symmetric.)"""
    trace = []
    plan = BatchInsertion._insert_batch
    commit = cavity.retriangulate

    def planning(self, *args):
        trace.append([])
        return plan(self, *args)

    def replaying(tri, vid, cav, t0):
        # The replay of _insert_batch only: its scalar fallbacks commit
        # through insert_point.
        if sys._getframe(1).f_code.co_name == "_insert_batch":
            tn = tri._arr.tn
            trace[-1].append((set(cav), set(cav) | {
                tn[3 * t + k] for t in cav for k in range(3)}))
        return commit(tri, vid, cav, t0)

    tri = Triangulation()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(BatchInsertion, "_insert_batch", planning)
        mp.setattr(cavity, "retriangulate", replaying)
        BatchInsertion().insert_points(tri, pts,
                                       brio_order(pts, seed=0xC0FFEE))
    return tri, [sub for sub in trace if sub]


class TestIndependenceProperty:
    @given(st.integers(min_value=0, max_value=10_000),
           st.integers(min_value=150, max_value=400))
    @settings(max_examples=15, deadline=None)
    def test_accepted_sets_are_neighbourhood_separated(self, seed, n):
        rng = np.random.default_rng(seed)
        pts = rng.uniform(-3.0, 3.0, size=(n, 2))
        _, trace = _batch_triangulate(pts)
        committed = sum(len(sub) for sub in trace)
        assert committed > 0, "batch path never engaged"
        for sub in trace:
            for i, (cav_i, nbhd_i) in enumerate(sub):
                assert cav_i <= nbhd_i
                for j, (cav_j, _) in enumerate(sub):
                    if i == j:
                        continue
                    # Cavities pairwise disjoint AND no other accepted
                    # cavity intrudes into this candidate's closed
                    # edge-neighbourhood (both directions hold because
                    # edge adjacency is symmetric).
                    assert nbhd_i.isdisjoint(cav_j), (
                        f"sub-batch places two conflicting points: "
                        f"{sorted(cav_i)} ~ {sorted(cav_j)}")

    def test_clustered_points_still_separate(self):
        # Tight clusters force bucket collisions and retries; whatever
        # is accepted must still be neighbourhood-separated.
        rng = np.random.default_rng(7)
        centers = rng.uniform(0, 1, size=(12, 2))
        pts = np.vstack([
            c + rng.normal(scale=1e-3, size=(30, 2)) for c in centers
        ])
        tri, trace = _batch_triangulate(pts)
        check_integrity(tri)
        for sub in trace:
            claimed = set()
            for cav, nbhd in sub:
                assert claimed.isdisjoint(nbhd)
                claimed |= cav


# ----------------------------------------------------------------------
# Differential: batch vs scalar must both be exactly Delaunay
# ----------------------------------------------------------------------
def _assert_exactly_delaunay(mesh):
    assert mesh.is_conforming()
    p = mesh.points
    t = mesh.triangles
    nbr = mesh.neighbors()
    for ti in range(len(t)):
        for k in range(3):
            tj = nbr[ti, k]
            if tj < 0 or tj < ti:
                continue
            u, v = int(t[ti, (k + 1) % 3]), int(t[ti, (k + 2) % 3])
            opp = [int(w) for w in t[tj] if w != u and w != v]
            assert len(opp) == 1
            a, b, c = p[t[ti, 0]], p[t[ti, 1]], p[t[ti, 2]]
            assert incircle(a, b, c, p[opp[0]]) <= 0, (
                f"edge ({u},{v}) not locally Delaunay")


CLOUDS = {
    "uniform": lambda rng: rng.uniform(0, 1, size=(500, 2)),
    "gaussian": lambda rng: rng.normal(size=(500, 2)),
    "anisotropic": lambda rng: rng.uniform(0, 1, (500, 2)) * [100.0, 1.0],
    "grid-jitter": lambda rng: (
        np.stack(np.meshgrid(np.arange(20.0), np.arange(20.0)),
                 axis=-1).reshape(-1, 2)
        + rng.normal(scale=1e-6, size=(400, 2))),
}


class TestDifferential:
    @pytest.mark.parametrize("cloud", sorted(CLOUDS))
    def test_batch_mesh_exactly_delaunay(self, cloud):
        rng = np.random.default_rng(hash(cloud) % (2**32))
        pts = CLOUDS[cloud](rng)
        mesh_b = triangulate(pts, strategy="batch").to_mesh()
        mesh_s = triangulate(pts, strategy="scalar").to_mesh()
        _assert_exactly_delaunay(mesh_b)
        assert mesh_b.n_triangles == mesh_s.n_triangles
        assert mesh_b.n_points == mesh_s.n_points

    @pytest.mark.parametrize("cloud", sorted(CLOUDS))
    def test_canonical_hash_parity(self, cloud):
        rng = np.random.default_rng(hash(cloud) % (2**32))
        pts = CLOUDS[cloud](rng)
        h = [serde.canonical_hash(serde.pack_mesh(
                oracle.canonical(triangulate(pts, strategy=s).to_mesh())))
             for s in ("scalar", "batch")]
        assert h[0] == h[1]

    def test_batch_kernel_passes_integrity_audit(self):
        rng = np.random.default_rng(99)
        pts = rng.uniform(0, 10, size=(800, 2))
        tri = triangulate(pts, strategy="batch")
        check_integrity(tri)
        assert tri.stat_batch_points > 0

    def test_duplicate_points_map_to_first_occurrence(self):
        rng = np.random.default_rng(3)
        base = rng.uniform(0, 1, size=(300, 2))
        pts = np.vstack([base, base[:50]])
        for strategy in ("scalar", "batch"):
            tri = triangulate(pts, strategy=strategy)
            # The kernel dedups: one vertex per distinct coordinate.
            assert tri._arr.n_pts == 300, strategy
        # delaunay_mesh keeps the caller's indexing but triangles only
        # ever reference the first occurrence of a duplicate.
        mesh = delaunay_mesh(pts)
        assert mesh.n_points == 350
        assert int(mesh.triangles.max()) < 300


class TestNacaGoldenParity:
    def test_naca0012_canonical_hash_parity(self):
        # The golden-case geometry: NACA 0012 surface stations plus a
        # graded cloud around them (the bulk-insert workload the
        # pipeline's CDT stage sees).
        surface = naca4("0012", 101)
        rng = np.random.default_rng(0xC0FFEE)
        cloud = rng.uniform([-0.5, -0.6], [1.5, 0.6], size=(1500, 2))
        pts = np.vstack([surface, cloud])
        meshes = {s: triangulate(pts, strategy=s).to_mesh()
                  for s in ("scalar", "batch")}
        _assert_exactly_delaunay(meshes["batch"])
        hashes = {s: serde.canonical_hash(
                      serde.pack_mesh(oracle.canonical(m)))
                  for s, m in meshes.items()}
        assert hashes["scalar"] == hashes["batch"]


# ----------------------------------------------------------------------
# Counters / env plumbing
# ----------------------------------------------------------------------
class TestCountersAndEnv:
    def test_batch_counter_samples_flow(self):
        rng = np.random.default_rng(11)
        pts = rng.uniform(0, 1, size=(600, 2))
        with use_counters() as sink:
            tri = triangulate(pts, strategy="batch")
            sink.absorb_kernel(tri)
        assert sink.samples.get("kernel.batch_size"), (
            "no kernel.batch_size samples recorded")
        assert "kernel.conflict_retries" in sink.samples
        assert sink.kernel.batch_points == tri.stat_batch_points > 0
        assert sink.kernel.conflict_retries == tri.stat_conflict_retries
        plain = sink.kernel.to_plain()
        assert plain["batch_points"] == tri.stat_batch_points
        assert "conflict_retries" in plain

    def test_scalar_records_no_batch_points(self):
        rng = np.random.default_rng(12)
        pts = rng.uniform(0, 1, size=(300, 2))
        tri = triangulate(pts, strategy="scalar")
        assert tri.stat_batch_points == 0
