"""Tests for the profiling/observability layer (repro.runtime.counters)."""

import threading

import numpy as np

from repro.delaunay.kernel import triangulate
from repro.runtime.counters import (
    Counters,
    Histogram,
    KernelCounters,
    current,
    phase,
    use_counters,
)


class TestHistogram:
    def test_add_and_stats(self):
        h = Histogram(8)
        for v in (0, 1, 1, 3, 100):
            h.add(v)
        assert h.count == 5
        assert h.total == 105
        assert h.buckets[1] == 2
        assert h.buckets[7] == 1  # overflow bucket
        assert h.mean() == 21.0
        assert h.percentile(50.0) == 1

    def test_merge_counts_overflow_folding(self):
        h = Histogram(4)
        h.merge_counts([1, 2, 3, 4, 5, 6], count=21, total=100)
        assert h.buckets == [1, 2, 3, 15]
        assert h.count == 21 and h.total == 100


class TestKernelCounters:
    def test_absorb_from_triangulation(self):
        tri = triangulate(np.random.default_rng(0).random((150, 2)))
        kc = KernelCounters()
        kc.absorb(tri)
        assert kc.inserts == 150
        assert kc.incircle_tests > 0
        assert kc.orient_tests > 0
        assert kc.cavity_hist.count == kc.inserts
        assert 0.0 <= kc.exact_escalation_rate < 1.0
        d = kc.as_dict()
        assert d["inserts"] == 150
        assert "exact_escalation_rate" in d

    def test_merge_accumulates(self):
        tri = triangulate(np.random.default_rng(1).random((80, 2)))
        a, b = KernelCounters(), KernelCounters()
        a.absorb(tri)
        b.absorb(tri)
        b.merge_plain(a.to_plain())
        assert b.inserts == 2 * a.inserts
        assert b.walk_hist.count == 2 * a.walk_hist.count

    def test_visibility_prunes_travel_every_route(self):
        """``stat_visibility_prunes`` (how often an insert left the fast path for
        the wrapped-cavity branch) reaches the profile as
        ``kernel.visibility_prunes``: absorbed, shipped across a process
        boundary as plain data, merged, listed and rendered."""
        tri = triangulate(np.random.default_rng(4).random((20, 2)))
        assert tri.stat_visibility_prunes == 0
        tri.stat_visibility_prunes = 3
        worker, parent = KernelCounters(), KernelCounters()
        worker.absorb(tri)
        parent.merge_plain(worker.to_plain())
        parent.absorb(tri)
        assert parent.visibility_prunes == 6
        assert parent.as_dict()["visibility_prunes"] == 6
        assert "visibility prunes  6" in parent.report()

    def test_true_zeros_are_counted_apart_from_filter_misses(self):
        """A lattice is all collinear and cocircular configurations: the
        exact stage answers 0 for most escalations (no filter can
        certify a zero); random points escalate rarely and to a sign.
        ``exact_escalation_rate`` keeps its definition, and a snapshot
        from before the split (no ``*_zero`` keys) still merges."""
        gx, gy = np.meshgrid(np.arange(8.0), np.arange(8.0))
        lattice = triangulate(np.column_stack([gx.ravel(), gy.ravel()]))
        kc = KernelCounters()
        kc.absorb(lattice)
        zeros = kc.orient_zero + kc.incircle_zero
        assert kc.incircle_zero > 0
        assert 0 < zeros <= kc.orient_exact + kc.incircle_exact
        assert kc.orient_zero <= kc.orient_exact
        assert kc.incircle_zero <= kc.incircle_exact
        assert kc.exact_escalation_rate == (
            (kc.orient_exact + kc.incircle_exact)
            / (kc.orient_tests + kc.incircle_tests))
        assert kc.as_dict()["incircle_zero"] == kc.incircle_zero
        assert f"(true zeros {zeros} of " in kc.report()

        cloud = KernelCounters()
        cloud.absorb(triangulate(np.random.default_rng(2).random((300, 2))))
        assert cloud.orient_zero == cloud.incircle_zero == 0

        old = kc.to_plain()
        del old["orient_zero"], old["incircle_zero"]
        merged = KernelCounters()
        merged.merge_plain(old)
        merged.merge_plain(kc.to_plain())
        assert merged.incircle_exact == 2 * kc.incircle_exact
        assert merged.incircle_zero == kc.incircle_zero


class TestAmbientSink:
    def test_off_by_default(self):
        assert current() is None
        with phase("noop"):
            pass  # must not raise with no sink installed

    def test_use_counters_installs_and_restores(self):
        with use_counters() as sink:
            assert current() is sink
            with phase("stage"):
                pass
            sink.incr("things", 3)
        assert current() is None
        assert "stage" in sink.phases
        assert sink.events["things"] == 3

    def test_nesting_restores_outer(self):
        with use_counters() as outer:
            with use_counters() as inner:
                assert current() is inner
            assert current() is outer

    def test_report_renders(self):
        with use_counters() as sink:
            with phase("mesh"):
                sink.kernel.absorb(
                    triangulate(np.random.default_rng(2).random((60, 2))))
            sink.incr("steiner_points")
        text = sink.report()
        assert "mesh" in text and "inserts" in text and "steiner_points" in text

    def test_thread_safe_absorption(self):
        tri = triangulate(np.random.default_rng(3).random((50, 2)))
        sink = Counters()

        def work():
            for _ in range(50):
                sink.absorb_kernel(tri)
                sink.incr("n")

        threads = [threading.Thread(target=work) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert sink.kernel.inserts == 200 * tri.stat_inserts
        assert sink.events["n"] == 200


class TestSampleStreams:
    """``observe`` keeps raw per-observation values — the measurement
    source the simulator calibrates its cost/network models from."""

    def test_observe_appends_raw_values(self):
        sink = Counters()
        sink.observe("executor.item_seconds", 0.25)
        sink.observe("executor.item_seconds", 0.5)
        sink.observe("executor.item_bytes", 1024)
        assert sink.samples["executor.item_seconds"] == [0.25, 0.5]
        assert sink.samples["executor.item_bytes"] == [1024.0]

    def test_snapshot_merge_concatenates_streams(self):
        worker_a, worker_b, parent = Counters(), Counters(), Counters()
        for v in (0.1, 0.2):
            worker_a.observe("s", v)
        worker_b.observe("s", 0.3)
        worker_b.observe("other", 7.0)
        parent.observe("s", 0.05)
        parent.merge_snapshot(worker_a.snapshot())
        parent.merge_snapshot(worker_b.snapshot())
        assert parent.samples["s"] == [0.05, 0.1, 0.2, 0.3]
        assert parent.samples["other"] == [7.0]

    def test_snapshot_is_plain_data_copy(self):
        sink = Counters()
        sink.observe("s", 1.0)
        snap = sink.snapshot()
        sink.observe("s", 2.0)
        assert snap["samples"]["s"] == [1.0]  # detached from the sink

    def test_as_dict_summarises_samples(self):
        sink = Counters()
        for v in (1.0, 2.0, 3.0):
            sink.observe("s", v)
        summary = sink.as_dict()["samples"]["s"]
        assert summary == {"n": 3, "total": 6.0, "mean": 2.0}

    def test_observe_thread_safe(self):
        sink = Counters()

        def work():
            for i in range(200):
                sink.observe("s", float(i))

        threads = [threading.Thread(target=work) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(sink.samples["s"]) == 800
