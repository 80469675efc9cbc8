"""Tests for the work queue and distributed work stealing."""

import numpy as np
import pytest

from repro.runtime.comm import run_spmd
from repro.runtime.loadbalance import DistributedWorker, WorkItem, WorkQueue
from repro.runtime.rma import Window


class TestWorkQueue:
    def test_largest_first(self):
        q = WorkQueue([WorkItem(1.0, "a"), WorkItem(5.0, "b"), WorkItem(3.0, "c")])
        assert q.pop_largest().payload == "b"
        assert q.pop_largest().payload == "c"
        assert q.pop_largest().payload == "a"

    def test_total_cost_tracked(self):
        q = WorkQueue()
        q.push(WorkItem(2.0, None))
        q.push(WorkItem(3.0, None))
        assert q.total_cost == pytest.approx(5.0)
        q.pop_largest()
        assert q.total_cost == pytest.approx(2.0)

    def test_pop_smallest_half(self):
        q = WorkQueue([WorkItem(c, c) for c in (8.0, 4.0, 2.0, 1.0, 1.0)])
        donated = q.pop_smallest_half()
        donated_cost = sum(w.cost for w in donated)
        assert donated_cost <= 8.0  # half of 16
        # Donated items are the small ones.
        assert all(w.cost <= 4.0 for w in donated)
        # Largest item stays home.
        assert q.pop_largest().cost == 8.0

    def test_pop_smallest_half_single_item(self):
        q = WorkQueue([WorkItem(5.0, None)])
        assert q.pop_smallest_half() == []

    def test_pop_smallest_half_empty(self):
        assert WorkQueue().pop_smallest_half() == []


def run_workers(n_ranks, all_items, process, steal_threshold=0.5):
    load_w = Window(n_ranks)
    counter_w = Window(1)
    counter_w.put(float(len(all_items)), 0)

    def fn(comm):
        worker = DistributedWorker(
            comm, load_w, counter_w, process,
            steal_threshold=steal_threshold,
        )
        if comm.rank == 0:
            worker.seed(all_items)
        comm.barrier()
        out = worker.run()
        return out, worker

    return run_spmd(n_ranks, fn)


class TestDistributedWorker:
    def test_all_items_processed_once(self):
        items = [WorkItem(float(i % 5 + 1), i) for i in range(40)]

        def process(item):
            return item.payload, []

        results = run_workers(4, items, process)
        done = sorted(x for out, _ in results for x in out)
        assert done == list(range(40))

    def test_stealing_spreads_work(self):
        import time

        items = [WorkItem(1.0, i) for i in range(64)]

        def process(item):
            time.sleep(0.002)  # give thieves time to ask
            return item.payload, []

        results = run_workers(4, items, process)
        counts = [w.n_items_processed for _, w in results]
        assert sum(counts) == 64
        # Everyone got something: the seed was all on rank 0.
        assert min(counts) > 0
        total_steals = sum(w.n_steals_successful for _, w in results)
        assert total_steals > 0

    def test_work_spawning_work(self):
        """Recursive decomposition pattern: items spawn children."""

        def process(item):
            depth, label = item.payload
            if depth > 0:
                kids = [
                    WorkItem(1.0, (depth - 1, label + (i,)))
                    for i in range(2)
                ]
                return None, kids
            return label, []

        root = [WorkItem(1.0, (3, ()))]
        results = run_workers(3, root, process)
        leaves = [x for out, _ in results for x in out if x is not None]
        assert len(leaves) == 8  # 2^3
        assert len(set(leaves)) == 8

    def test_single_rank(self):
        items = [WorkItem(1.0, i) for i in range(10)]

        def process(item):
            return item.payload, []

        results = run_workers(1, items, process)
        assert sorted(results[0][0]) == list(range(10))

    def test_largest_processed_first_locally(self):
        order = []
        items = [WorkItem(float(c), c) for c in (1, 9, 5, 7, 3)]

        def process(item):
            order.append(item.payload)
            return None, []

        run_workers(1, items, process)
        assert order == [9, 7, 5, 3, 1]
