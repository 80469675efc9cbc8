"""Tests for the discrete-event cluster simulator."""

import numpy as np
import pytest

from repro.runtime.simulator import (
    SETUP_PHASES,
    NetworkModel,
    SimConfig,
    SimTask,
    calibrate_from_counters,
    fit_network_model,
    simulate,
    strong_scaling,
)


def uniform_tasks(n, cost=1.0, size=4096.0):
    return [SimTask(cost, size) for _ in range(n)]


class TestNetworkModel:
    def test_xfer(self):
        net = NetworkModel(latency=1e-6, bandwidth=1e9)
        assert net.xfer(0) == pytest.approx(1e-6)
        assert net.xfer(1e9) == pytest.approx(1.0 + 1e-6)

    def test_invalid(self):
        with pytest.raises(ValueError):
            NetworkModel(bandwidth=0)


class TestSimulate:
    def test_single_rank_is_total_work(self):
        tasks = uniform_tasks(20, cost=0.5)
        res = simulate(tasks, 1)
        assert res.makespan == pytest.approx(10.0, rel=1e-6)
        assert res.n_steal_attempts == 0

    def test_perfect_split_two_ranks(self):
        tasks = uniform_tasks(16, cost=1.0)
        res = simulate(tasks, 2)
        # Nearly 2x: only distribution latency overhead.
        assert res.makespan == pytest.approx(8.0, rel=0.01)

    def test_speedup_monotone(self):
        tasks = uniform_tasks(512, cost=0.1)
        t_prev = None
        for p in (1, 2, 4, 8, 16):
            res = simulate(tasks, p)
            if t_prev is not None:
                assert res.makespan < t_prev
            t_prev = res.makespan

    def test_more_ranks_than_tasks(self):
        tasks = uniform_tasks(4, cost=1.0)
        res = simulate(tasks, 16)
        # Makespan is one task (plus comms): surplus ranks idle.
        assert res.makespan < 1.5

    def test_heterogeneous_tasks_balanced_by_stealing(self):
        rng = np.random.default_rng(0)
        tasks = [SimTask(float(c)) for c in rng.lognormal(0, 1, size=400)]
        total = sum(t.cost for t in tasks)
        res = simulate(tasks, 8)
        # Within 25% of the ideal split thanks to stealing.
        assert res.makespan < 1.25 * total / 8 + max(t.cost for t in tasks)

    def test_slow_network_hurts(self):
        tasks = uniform_tasks(256, cost=0.01, size=1e6)
        fast = simulate(tasks, 16, SimConfig(network=NetworkModel(2e-6, 7e9)))
        slow = simulate(tasks, 16, SimConfig(network=NetworkModel(1e-3, 1e7)))
        assert slow.makespan > fast.makespan

    def test_serial_setup_adds(self):
        tasks = uniform_tasks(16, cost=1.0)
        base = simulate(tasks, 4)
        withsetup = simulate(tasks, 4, SimConfig(serial_setup=5.0))
        assert withsetup.makespan == pytest.approx(base.makespan + 5.0,
                                                   rel=0.01)

    def test_no_tasks_raises(self):
        with pytest.raises(ValueError):
            simulate([], 4)

    def test_busy_conserves_work(self):
        tasks = uniform_tasks(100, cost=0.3)
        res = simulate(tasks, 8)
        assert res.busy.sum() == pytest.approx(30.0, rel=1e-9)

    def test_internal_efficiency_bounds(self):
        tasks = uniform_tasks(200, cost=0.2)
        res = simulate(tasks, 8)
        assert 0.5 < res.efficiency_internal <= 1.0


class TestStrongScaling:
    def test_table_shape(self):
        tasks = uniform_tasks(256, cost=0.5)
        table = strong_scaling(tasks, [1, 2, 4, 8])
        assert set(table) == {1, 2, 4, 8}
        assert table[1]["speedup"] == pytest.approx(1.0, rel=0.01)
        assert table[8]["speedup"] > 4.0
        for p in table:
            assert table[p]["efficiency"] <= 1.01

    def test_external_sequential_baseline(self):
        tasks = uniform_tasks(64, cost=1.0)
        # The parallel mesher does 2% more work than the best sequential
        # tool (decoupling overhead): sequential efficiency < 1 at P=1.
        table = strong_scaling(tasks, [1], t_sequential=64.0 / 1.02)
        assert table[1]["efficiency"] == pytest.approx(1 / 1.02, rel=1e-3)

    def test_efficiency_decays_with_scale(self):
        rng = np.random.default_rng(1)
        tasks = [SimTask(float(c), 2e5) for c in rng.lognormal(-1, 0.8, 2000)]
        table = strong_scaling(tasks, [4, 64])
        assert table[64]["efficiency"] < table[4]["efficiency"]


class TestDistributionAndFlags:
    def test_tree_distribute_conserves_tasks(self):
        from repro.runtime.simulator import _tree_distribute

        tasks = uniform_tasks(100, cost=1.0)
        net = NetworkModel(1e-6, 1e9)
        queues, ready = _tree_distribute(
            [SimTask(t.cost, t.size_bytes, i) for i, t in enumerate(tasks)],
            8, net)
        ids = sorted(t.task_id for q in queues for t in q)
        assert ids == list(range(100))
        assert ready[0] <= ready.max()
        assert np.all(ready >= 0)

    def test_tree_distribute_balances_cost(self):
        from repro.runtime.simulator import _tree_distribute

        rng = np.random.default_rng(0)
        tasks = [SimTask(float(c), 1e3, i)
                 for i, c in enumerate(rng.lognormal(0, 1, 256))]
        net = NetworkModel(1e-6, 1e9)
        queues, _ = _tree_distribute(tasks, 16, net)
        costs = np.array([sum(t.cost for t in q) for q in queues])
        assert costs.max() < 3.0 * costs.mean()

    def test_stealing_flag_off(self):
        rng = np.random.default_rng(1)
        tasks = [SimTask(float(c)) for c in rng.lognormal(0, 1.0, 200)]
        res_on = simulate(tasks, 16, SimConfig())
        res_off = simulate(tasks, 16, SimConfig(stealing=False))
        assert res_off.n_steal_attempts == 0
        assert res_on.makespan <= res_off.makespan + 1e-12
        # Work is conserved either way.
        assert res_on.busy.sum() == pytest.approx(res_off.busy.sum())

    def test_single_task_many_ranks(self):
        res = simulate([SimTask(5.0)], 32)
        assert res.makespan == pytest.approx(5.0, rel=0.01)


class TestFitNetworkModel:
    def test_recovers_synthetic_alpha_beta(self):
        lat, bw = 1e-5, 1e9
        x = np.array([1e4, 5e4, 1e5, 5e5, 1e6])
        y = lat + x / bw
        net = fit_network_model(x, y)
        assert net.latency == pytest.approx(lat, rel=1e-6, abs=1e-9)
        assert net.bandwidth == pytest.approx(bw, rel=1e-6)

    def test_too_few_samples_returns_default(self):
        default = NetworkModel()
        assert fit_network_model([], []) == default
        assert fit_network_model([100.0], [1e-4]) == default
        # Two samples of the same size: the line is unconstrained.
        assert fit_network_model([100.0, 100.0], [1e-4, 2e-4]) == default

    def test_narrow_size_range_returns_default(self):
        """The mesh ops publish a 67 kB BL payload and a 73 kB mesh: a
        slope through two such points is their timing noise (it read
        50 MB/s in one run and negative in the next)."""
        default = NetworkModel()
        assert fit_network_model([66936.0, 72560.0],
                                 [4.4e-4, 5.6e-4]) == default
        assert fit_network_model([66936.0, 72560.0],
                                 [5.0e-4, 4.3e-4]) == default

    def test_negative_slope_keeps_default_bandwidth(self):
        """Noise-dominated data (bigger transfer measured faster) must
        not produce a negative bandwidth."""
        net = fit_network_model([1e3, 1e6], [1e-2, 1e-4])
        assert net.bandwidth == NetworkModel().bandwidth
        assert net.latency > 0.0

    def test_outlier_does_not_flip_the_fit(self):
        """The first shm create pays a warm-up penalty; one gross
        outlier must not corrupt the slope."""
        lat, bw = 1e-5, 1e9
        x = np.array([1e4, 2e4, 5e4, 1e5, 2e5, 5e5])
        y = lat + x / bw
        y[0] += 5e-2  # 50 ms warm-up spike on the smallest transfer
        net = fit_network_model(x, y)
        assert net.bandwidth == pytest.approx(bw, rel=0.05)

    def test_clamps(self):
        # Absurd slope -> bandwidth clamped to the floor, never below.
        net = fit_network_model([1.0, 2.0], [0.0, 1e3])
        assert net.bandwidth >= 1e6 - 1
        assert net.latency >= 0.0

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError, match="differ in length"):
            fit_network_model([1.0, 2.0], [1e-4])


class _FakeSink:
    """Duck-typed Counters: just the fields calibration reads."""

    def __init__(self, samples, phases):
        self.samples = samples
        self.phases = phases


def _measured_sink(n_items=12):
    rng = np.random.default_rng(3)
    return _FakeSink(
        samples={
            "executor.item_seconds": list(rng.uniform(0.05, 0.4, n_items)),
            "executor.item_bytes": list(rng.uniform(2e4, 4e5, n_items)),
            "serde.shm_nbytes": [1e4, 1e5, 1e6],
            "serde.shm_seconds": [2e-5 + s / 2e9 for s in
                                  (1e4, 1e5, 1e6)],
        },
        phases={"boundary_layer": 0.8, "nearbody_setup": 0.1,
                "decoupling": 0.3, "refinement": 2.0, "merge": 0.2},
    )


class TestCalibrateFromCounters:
    def test_builds_tasks_and_config(self):
        tasks, config = calibrate_from_counters(_measured_sink())
        assert len(tasks) >= 12288 - 12
        assert all(t.cost > 0 for t in tasks)
        # Setup = the pre-refinement phases only.
        assert config.serial_setup == pytest.approx(0.8 + 0.1 + 0.3)
        assert set(SETUP_PHASES) == {"boundary_layer", "nearbody_setup",
                                     "decoupling"}
        # Network fitted from the shm samples, not the default.
        assert config.network.bandwidth == pytest.approx(2e9, rel=0.05)
        assert config.per_task_overhead == pytest.approx(1e-4)

    def test_jitter_is_bounded_and_deterministic(self):
        sink = _measured_sink()
        tasks_a, _ = calibrate_from_counters(sink)
        tasks_b, _ = calibrate_from_counters(sink)
        assert [t.cost for t in tasks_a] == [t.cost for t in tasks_b]
        base = sink.samples["executor.item_seconds"]
        n = len(base)
        for i, t in enumerate(tasks_a):
            ratio = t.cost / base[i % n]
            assert 0.8 <= ratio <= 1.25

    def test_bl_item_is_one_unreplicated_task(self):
        """One BL sample + n refine samples -> 1 + factor * n tasks: the
        executor's own sample of the BL item (same bytes) leaves the
        replicated base, the BL item joins the task list once."""
        n = 12
        sink = _measured_sink(n)
        plain, _ = calibrate_from_counters(sink, replicate_to=1200)
        sink.samples["executor.item_seconds"].insert(3, 0.95)
        sink.samples["executor.item_bytes"].insert(3, 777_216.0)
        sink.samples["executor.bl_item_seconds"] = [0.9]
        sink.samples["executor.bl_item_bytes"] = [777_216.0]
        tasks, _ = calibrate_from_counters(sink, replicate_to=1200)
        assert len(tasks) == 1 + (1200 // n) * n
        assert (tasks[0].cost, tasks[0].size_bytes) == (0.9, 777_216.0)
        # The replicated part is what a run without a BL item gives.
        assert [t.cost for t in tasks[1:]] == [t.cost for t in plain]
        assert sum(t.size_bytes == 777_216.0 for t in tasks) == 1

    def test_no_executor_samples_raises(self):
        sink = _FakeSink(samples={}, phases={"boundary_layer": 1.0})
        with pytest.raises(ValueError, match="executor.item_seconds"):
            calibrate_from_counters(sink)

    def test_calibrated_run_scales_like_the_paper(self):
        """End-to-end: calibrated tasks + config through the simulator
        keep the Figs. 11-12 shape (monotone, high efficiency at low
        rank counts)."""
        tasks, config = calibrate_from_counters(_measured_sink(),
                                                replicate_to=2048)
        table = strong_scaling(tasks, [1, 4, 16, 64], config)
        s = {p: table[p]["speedup"] for p in (1, 4, 16, 64)}
        assert s[1] <= s[4] <= s[16] <= s[64]
        assert table[16]["efficiency"] > 0.8
