"""Tests for ray intersection resolution (self and multi-element)."""

import dataclasses
import math

import numpy as np
import pytest

import repro.core.intersections as bulk
from repro.core.bl_pipeline import BoundaryLayerConfig
from repro.core.intersections import (
    crossing_pairs,
    ray_segment,
    resolve_multi_element_intersections,
    resolve_self_intersections,
)
from repro.core.normals import loop_surface_vertices
from repro.core.rays import Ray, refine_rays
from repro.geometry.airfoils import (
    blunt_trailing_edge,
    naca0012,
    naca4,
    three_element_airfoil,
    transform_coords,
)
from repro.geometry.predicates import batch_exact_counts
from repro.geometry.primitives import segments_intersect
from repro.geometry.pslg import PSLG
from repro.runtime.counters import use_counters
from tests.core import oracle_intersections as oracle


def make_ray(ox, oy, dx, dy, **kw):
    n = math.hypot(dx, dy)
    return Ray(origin=(ox, oy), direction=(dx / n, dy / n), **kw)


def vee_cove():
    """A concave vee: rays on both walls point inward and cross."""
    rays = [make_ray(-1 + t, 1 - t, 1, 1) for t in np.linspace(0, 1, 12)]
    rays += [make_ray(t, t, -1, 1) for t in np.linspace(0, 1, 12)]
    return rays


def surface_rays(pslg, config=BoundaryLayerConfig()):
    """The refined ray sets ``generate_boundary_layer`` starts from."""
    return [
        refine_rays(
            loop_surface_vertices(
                pslg, loop,
                large_angle=math.radians(config.large_angle_deg),
                cusp_angle=math.radians(config.cusp_angle_deg)),
            element=el,
            max_ray_angle=math.radians(config.max_ray_angle_deg))
        for el, loop in enumerate(pslg.body_loops)
    ]


def blunt_te_pair():
    """A blunt-TE main element (two corner fans) with a flap in its wake."""
    main = blunt_trailing_edge(naca4("0012", 41, closed_te=False))
    flap = transform_coords(naca4("0012", 31), scale=0.3, rotate_deg=-12.0,
                            translate=(1.03, -0.03))
    return PSLG.from_loops([main, flap], names=["main", "flap"])


def copy_rays(element_rays):
    return [[dataclasses.replace(r) for r in rays] for rays in element_rays]


def resolve(module, element_rays, default_height):
    """Self stage per element, then the multi stage, as the pipeline runs."""
    for rays in element_rays:
        module.resolve_self_intersections(rays, default_height)
    if len(element_rays) > 1:
        module.resolve_multi_element_intersections(element_rays,
                                                   default_height)


ORACLE_CASES = {
    # name: (element ray sets, default height)
    "naca0012": lambda: (surface_rays(PSLG.from_loops([naca0012(81)])), 2.3),
    "three-element": lambda: (
        surface_rays(three_element_airfoil(n_points=41)), 40.0),
    "vee-cove": lambda: ([vee_cove()], 1.5),
    "blunt-te-fan": lambda: (surface_rays(blunt_te_pair()), 0.5),
}


class TestAgainstScalarOracle:
    """The bulk stage leaves exactly the heights the scalar stage left."""

    @pytest.mark.parametrize("case", sorted(ORACLE_CASES))
    def test_heights_bit_identical_and_untangled(self, case):
        element_rays, default_height = ORACLE_CASES[case]()
        want = copy_rays(element_rays)
        resolve(bulk, element_rays, default_height)
        resolve(oracle, want, default_height)
        got_h = [r.max_height for rays in element_rays for r in rays]
        want_h = [r.max_height for rays in want for r in rays]
        assert got_h == want_h  # float ==: bit-identical, inf included
        assert any(h < default_height for h in got_h) or case == "naca0012"
        # No two truncated rays of one element properly cross (checked
        # all-pairs with the scalar predicate, independent of both stages).
        for rays in element_rays:
            segs = [ray_segment(r, default_height) for r in rays]
            for i in range(len(segs)):
                for j in range(i + 1, len(segs)):
                    assert not segments_intersect(
                        *segs[i], *segs[j], proper_only=True), (case, i, j)

    def test_crossing_pairs_match_all_pairs_scalar(self):
        rng = np.random.default_rng(3)
        # Integer endpoints: touches, overlaps and shared endpoints occur.
        segs = rng.integers(0, 6, size=(60, 2, 2)).astype(float)
        others = rng.integers(0, 6, size=(40, 2, 2)).astype(float)
        for proper_only in (True, False):
            i, j = crossing_pairs(segs, proper_only=proper_only)
            assert set(zip(i.tolist(), j.tolist())) == {
                (a, b) for a in range(60) for b in range(a + 1, 60)
                if segments_intersect(*segs[a], *segs[b],
                                      proper_only=proper_only)}
            i, j = crossing_pairs(segs, others, proper_only=proper_only)
            assert set(zip(i.tolist(), j.tolist())) == {
                (a, b) for a in range(60) for b in range(40)
                if segments_intersect(*segs[a], *others[b],
                                      proper_only=proper_only)}


class TestSelfIntersections:
    def test_parallel_rays_untouched(self):
        rays = [make_ray(x, 0, 0, 1) for x in np.linspace(0, 1, 5)]
        n = resolve_self_intersections(rays, default_height=1.0)
        assert n == 0
        assert all(math.isinf(r.max_height) for r in rays)

    def test_crossing_pair_truncated(self):
        # Two rays leaning into each other: cross at x=0.5.
        r1 = make_ray(0, 0, 1, 1)
        r2 = make_ray(1, 0, -1, 1)
        n = resolve_self_intersections([r1, r2], default_height=2.0)
        assert n == 2
        # Crossing at (0.5, 0.5): distance sqrt(0.5); factor 0.5.
        assert r1.max_height == pytest.approx(0.5 * math.sqrt(0.5))
        assert r2.max_height == pytest.approx(0.5 * math.sqrt(0.5))

    def test_truncated_segments_no_longer_cross(self):
        rays = vee_cove()
        resolve_self_intersections(rays, default_height=1.5)
        segs = [ray_segment(r, 1.5) for r in rays]
        for i in range(len(segs)):
            for j in range(i + 1, len(segs)):
                if rays[i].origin == rays[j].origin:
                    continue
                assert not segments_intersect(
                    *segs[i], *segs[j], proper_only=True
                ), (i, j)

    def test_fan_rays_shared_origin_ignored(self):
        fan = [make_ray(0, 0, math.cos(a), math.sin(a))
               for a in np.linspace(0.2, math.pi - 0.2, 7)]
        n = resolve_self_intersections(fan, default_height=1.0)
        assert n == 0

    def test_count_is_ray_pass_pairs_whatever_the_order(self, monkeypatch):
        # One truncation = one (ray, pass) whose height decreased: the
        # count of a full run is the sum over its passes (the heights
        # each pass starts from are the ones it builds segments of), and
        # listing the rays backwards changes neither it nor (beyond the
        # rounding of which ray of a pair parametrises the crossing) any
        # height.
        starts = []
        segments = bulk._segments

        def spy(origins, directions, heights, default_height):
            starts.append(heights.copy())
            return segments(origins, directions, heights, default_height)

        monkeypatch.setattr(bulk, "_segments", spy)
        rays = vee_cove()
        n = resolve_self_intersections(rays, default_height=1.5)
        monkeypatch.undo()
        starts.append(np.array([r.max_height for r in rays]))
        per_pass = sum(int((after < before).sum())
                       for before, after in zip(starts, starts[1:]))
        assert len(starts) > 2  # more than one pass truncated
        assert n == per_pass > 0
        backwards = vee_cove()[::-1]
        assert resolve_self_intersections(backwards, 1.5) == n
        assert ([r.max_height for r in backwards[::-1]]
                == pytest.approx([r.max_height for r in rays], rel=1e-12))

    def test_invalid_factor(self):
        with pytest.raises(ValueError):
            resolve_self_intersections([make_ray(0, 0, 0, 1)], 1.0,
                                       truncation_factor=0.0)

    def test_empty(self):
        assert resolve_self_intersections([], 1.0) == 0


class TestOuterBorder:
    def test_square_ring(self):
        rays = [
            make_ray(0, 0, -1, -1),
            make_ray(1, 0, 1, -1),
            make_ray(1, 1, 1, 1),
            make_ray(0, 1, -1, 1),
        ]
        for r in rays:
            r.heights = [math.sqrt(2) * 0.5]
        segs = oracle.outer_border_segments(rays, default_height=10.0)
        assert len(segs) == 4


class TestMultiElement:
    def _two_columns(self, gap):
        """Two vertical 'surfaces' facing each other across a gap."""
        left = [make_ray(0, y, 1, 0, element=0) for y in np.linspace(0, 1, 6)]
        right = [make_ray(gap, y, -1, 0, element=1)
                 for y in np.linspace(0, 1, 6)]
        return left, right

    def test_far_apart_untouched(self):
        left, right = self._two_columns(gap=10.0)
        n = resolve_multi_element_intersections([left, right],
                                                default_height=1.0)
        assert n == 0

    def test_close_elements_truncate(self):
        left, right = self._two_columns(gap=1.0)
        n = resolve_multi_element_intersections([left, right],
                                                default_height=2.0)
        assert n > 0
        # Rays from the left column must stop before the right surface.
        for r in left:
            assert r.max_height <= 1.0

    def test_truncation_respects_other_border_not_just_surface(self):
        left, right = self._two_columns(gap=1.0)
        # Give the right column pre-existing heights: its border sits at
        # x = 1 - 0.3 = 0.7.
        for r in right:
            r.heights = [0.3]
        resolve_multi_element_intersections([left, right], default_height=2.0)
        for r in left[1:-1]:  # interior rays squarely face the border
            assert r.max_height <= 0.7 + 1e-9

    def test_fan_origins_add_no_degenerate_obstacles(self):
        # A square body whose corner (1, 1) carries a five-ray fan: the
        # surface ring repeats that origin, and a zero-length obstacle
        # segment makes every orientation test against it an exact-zero
        # that only rational arithmetic can certify.
        corners = [(0, 0, -1, -1), (1, 0, 1, -1), (0, 1, -1, 1)]
        body = [make_ray(*c, element=0) for c in corners[:2]]
        body += [make_ray(1, 1, math.cos(a), math.sin(a), element=0)
                 for a in np.linspace(0.1, math.pi / 2 - 0.1, 5)]
        body.append(make_ray(*corners[2], element=0))
        probes = [make_ray(2.0, y, -1, 0.07, element=1)
                  for y in np.linspace(-0.2, 1.3, 9)]
        want = copy_rays([body, probes])
        oracle.resolve_multi_element_intersections(want, default_height=1.2)
        with use_counters() as sink:
            before = batch_exact_counts()["orient2d"]
            n = resolve_multi_element_intersections([body, probes],
                                                    default_height=1.2)
            escalated = batch_exact_counts()["orient2d"] - before
        assert escalated == 0
        assert n > 0
        assert ([r.max_height for r in body + probes]
                == [r.max_height for rays in want for r in rays])
        # The prune ratio is visible: candidates >= exact tests >= hits.
        ev = sink.events
        assert (ev["bl.candidate_pairs"] >= ev["bl.exact_tests"]
                >= ev["bl.crossings"] > 0)

    def test_single_element_noop(self):
        left, _ = self._two_columns(gap=1.0)
        n = resolve_multi_element_intersections([left], default_height=2.0)
        assert n == 0

    def test_invalid_factor(self):
        left, right = self._two_columns(gap=1.0)
        with pytest.raises(ValueError):
            resolve_multi_element_intersections(
                [left, right], 1.0, truncation_factor=2.0
            )
