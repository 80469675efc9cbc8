"""Self-tests of the perf ledger.  Run explicitly (not part of tier-1)::

    python -m pytest benchmarks/ledger/tests/test_ledger.py -q

The smoke runs start real worker pools and a real daemon; the whole file
takes about a minute.
"""

from __future__ import annotations

import json
import math
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

LEDGER_DIR = Path(__file__).resolve().parents[1]
REPO_ROOT = LEDGER_DIR.parents[1]
sys.path.insert(0, str(LEDGER_DIR))

import run as ledger_run  # noqa: E402
import stats  # noqa: E402
from metrics import END_TO_END, PER_LAYER  # noqa: E402
from spans import Tracer  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


# ----------------------------------------------------------------------
# stats
# ----------------------------------------------------------------------
def test_median_and_quartiles_hand_values():
    assert stats.median([3.0, 1.0, 2.0]) == 2.0
    assert stats.median([4.0, 1.0, 2.0, 3.0]) == 2.5
    # statistics.quantiles(n=4), exclusive method: positions (n+1)*k/4.
    assert stats.quartiles([1, 2, 3, 4, 5, 6, 7]) == (2.0, 4.0, 6.0)
    assert stats.quartiles([1, 2, 3, 4]) == (1.25, 2.5, 3.75)
    assert stats.quartiles([5.0]) == (5.0, 5.0, 5.0)
    assert stats.spread([1, 2, 3, 4, 5, 6, 7]) == pytest.approx(1.0)


def test_percentile_nearest_rank():
    values = [15, 20, 35, 40, 50]
    assert stats.percentile(values, 5) == 15
    assert stats.percentile(values, 30) == 20
    assert stats.percentile(values, 40) == 20
    assert stats.percentile(values, 50) == 35
    assert stats.percentile(values, 100) == 50
    assert stats.percentile(list(range(1, 101)), 99) == 99


def test_worse_by_respects_direction():
    assert stats.worse_by(10.0, 11.0, "lower") == pytest.approx(0.1)
    assert stats.worse_by(10.0, 11.0, "higher") == pytest.approx(-0.1)


def test_verdicts_on_synthetic_runs():
    base = [10.0, 10.1, 9.9, 10.05, 9.95, 10.0, 10.1, 9.9, 10.0, 10.0]
    kw = dict(better="lower", bound=0.10)
    assert stats.verdict(base, [v * 1.02 for v in base], **kw) == "same"
    assert stats.verdict(base, [v * 1.20 for v in base], **kw) == "worse"
    assert stats.verdict(base, [v * 0.80 for v in base], **kw) == "better"
    # Spread wider than the bound and overlapping runs: cannot tell.
    noisy = [8.0, 9.0, 10.0, 11.0, 12.0, 13.0, 9.5, 10.5, 11.5, 12.5]
    assert stats.verdict(noisy, [v * 1.05 for v in noisy],
                         **kw) == "unresolved"
    # Same spread, but every new run beats every base run.
    assert stats.verdict(noisy, [v * 0.5 for v in noisy], **kw) == "better"
    assert stats.verdict(noisy, [v * 2.0 for v in noisy], **kw) == "worse"
    # A higher-is-better metric flips the direction.
    assert stats.verdict(base, [v * 1.20 for v in base], better="higher",
                         bound=0.10) == "better"


# ----------------------------------------------------------------------
# registry and BENCHMARK.json
# ----------------------------------------------------------------------
def test_names_and_units_are_well_formed():
    names = [m.name for m in END_TO_END] + [m.name for m in PER_LAYER]
    assert len(names) == len(set(names))
    for m in END_TO_END + PER_LAYER:
        assert NAME.match(m.name), m.name
        assert UNIT.match(m.unit), (m.name, m.unit)
        assert m.better in ("lower", "higher")
    for name in ledger_run.WORKLOAD_NAMES:
        assert NAME.match(name)
    assert len(PER_LAYER) <= 128
    assert all(0 < m.bound <= 0.25 for m in END_TO_END)
    assert any(m.name == "setup_s" and m.unit == "s" and m.better == "lower"
               for m in END_TO_END)


def test_benchmark_json_matches_the_registry():
    spec = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["paths"] == ["benchmarks/ledger"]
    assert [w["name"] for w in spec["workloads"]] == ledger_run.WORKLOAD_NAMES
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"}
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    assert spec["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better,
         "bound": m.bound} for m in END_TO_END]
    assert spec["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better}
        for m in PER_LAYER]
    assert 1 <= spec["run_seconds"] <= 60


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------
def test_self_time_is_span_minus_children():
    tr = Tracer("w")
    tr.calibrate(["core.unused"])
    with tr.op("op0"):
        with tr.span("bench.op"):
            with tr.span("core.a"):
                with tr.span("delaunay.b"):
                    pass
            with tr.span("core.c"):
                pass
    spans = {s["name"]: s for s in tr.spans}
    own = dict(zip((s["name"] for s in tr.spans), tr.self_times()))
    assert own["core.a"] == pytest.approx(
        tr.duration(spans["core.a"]) - tr.duration(spans["delaunay.b"]))
    assert own["bench.op"] == pytest.approx(
        tr.duration(spans["bench.op"]) - tr.duration(spans["core.a"])
        - tr.duration(spans["core.c"]))
    layers = tr.layer_self_times("op0")
    assert sum(layers.values()) == pytest.approx(
        tr.duration(spans["bench.op"]))
    # A name no real span carries reads as the recorder's resolution.
    assert 0.0 < tr.total("core.unused") < 1e-3
    assert tr.durations("core.a") == [tr.duration(spans["core.a"])]


def test_chrome_trace_has_one_pid_and_one_tid_per_layer():
    tr = Tracer("naca_farfield")
    with tr.span("core.bl"):
        with tr.span("delaunay.refine"):
            pass
    tr.record("runtime.service.hit", 1.0, 1.5)
    events = tr.chrome_trace(pid=7)["traceEvents"]
    assert {e["pid"] for e in events} == {7}
    complete = [e for e in events if e["ph"] == "X"]
    assert {e["cat"] for e in complete} == {"core", "delaunay", "runtime"}
    assert len({e["tid"] for e in complete}) == 3
    hit = next(e for e in complete if e["name"] == "runtime.service.hit")
    assert hit["dur"] == pytest.approx(0.5e6)
    assert complete[1]["args"]["parent"] == 0


# ----------------------------------------------------------------------
# smoke runs of the real thing
# ----------------------------------------------------------------------
def _run(*extra: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(LEDGER_DIR / "run.py"), *extra],
        cwd=REPO_ROOT, capture_output=True, text=True, timeout=300)


@pytest.fixture(scope="module")
def smoke_runs():
    out = {}
    for name in ledger_run.WORKLOAD_NAMES:
        for trace in (0, 1):
            done = _run("--workload", name, "--seed", "1", "--smoke",
                        "--seconds", "1", "--trace", str(trace))
            assert done.returncode == 0, done.stderr
            out[name, trace] = (json.loads(done.stdout.splitlines()[-1]),
                                done.stdout)
    return out


#: metrics whose honest value can be 0 on a workload that measures them.
ZERO_IS_FINE = {"core.bl.truncations", "runtime.executor.steals",
                "delaunay.batch_parity", "bench.trace_overhead_frac"}


@pytest.mark.parametrize("name", ledger_run.WORKLOAD_NAMES)
def test_smoke_emits_every_metric(smoke_runs, name):
    for trace, registry in ((0, END_TO_END), (1, PER_LAYER)):
        result, text = smoke_runs[name, trace]
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= 1
        assert list(result["metrics"]) == [m.name for m in registry]
        for m in registry:
            entry = result["metrics"][m.name]
            assert entry["unit"] == m.unit
            assert math.isfinite(entry["value"]), m.name
            assert re.search(rf"^{re.escape(m.name)}\s+\S+ {re.escape(m.unit)}",
                             text, re.M), m.name
            measured_here = (m.home == "all" or name in m.home.split()
                             if trace else True)
            if measured_here and m.name not in ZERO_IS_FINE:
                assert entry["value"] != 0, m.name


def test_smoke_runs_show_the_designed_shape(smoke_runs):
    service = smoke_runs["service_mix", 1][0]["metrics"]
    assert service["runtime.service.batch_size_mean"]["value"] >= 2.0
    assert service["runtime.service.hit_ratio"]["value"] > 0.9
    for name in ("naca_farfield", "highlift_bl", "adapt_shear"):
        traced = smoke_runs[name, 1][0]["metrics"]
        assert traced["bench.replay_parity"]["value"] == 1.0
    adapt = smoke_runs["adapt_shear", 1][0]["metrics"]
    assert adapt["delaunay.adapt.s"]["value"] > 10 * \
        adapt["core.bl.s"]["value"]


def test_trace_artefact_is_written(smoke_runs):
    trace = json.loads(
        (LEDGER_DIR / "out" / "trace-highlift_bl.json").read_text())
    names = {e["name"] for e in trace["traceEvents"] if e["ph"] == "X"}
    assert {"core.bl", "core.bl.intersections", "delaunay.refine",
            "core.merge"} <= names


def test_injected_failure_is_counted_not_fatal():
    done = _run("--workload", "naca_farfield", "--seed", "1", "--smoke",
                "--seconds", "1", "--trace", "0", "--inject-failure")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] == 1 and result["attempted"] == 4
    assert set(result["metrics"]) == {m.name for m in END_TO_END}
    assert "injected failure" in done.stdout


def test_ops_are_checked_against_the_first_of_their_input():
    """adapt_shear takes turns on several problems: an op must agree
    with the ops on the same problem, not with the run's first op."""
    sys.path.insert(0, str(REPO_ROOT / "src"))
    from workloads import HashedOps

    class Ops(HashedOps):
        def _problem_with(self, result):
            return None

        def _describe(self, result):
            return {}

    w = Ops(seed=1, smoke=True, ranks=2)
    w._reset()
    w.ops = [("a", 0, "h0"), ("b", 0, "h0"), ("a", 1, "h1"),
             ("b", 1, "h1"), ("a", 0, "h0"), ("b", 1, "h0")]
    w.results = {"h0": object(), "h1": object()}
    attempted, failed, notes = w.check()
    assert (attempted, failed) == (6, 1)
    assert notes == ["b op hash h0 != h1"]


def _session_members(sid: int) -> list:
    """(pid, state, command line) of everything in session ``sid``,
    zombies included."""
    out = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                fields = Path(f"/proc/{entry}/stat").read_text()
                fields = fields.rsplit(")", 1)[1].split()
                if int(fields[3]) == sid:
                    cmd = Path(f"/proc/{entry}/cmdline").read_bytes()
                    out.append((int(entry), fields[0],
                                cmd.replace(b"\0", b" ").decode()[:80]))
            except OSError:  # ended while we were looking
                pass
    return out


def _start_in_own_session(name: str) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, str(LEDGER_DIR / "run.py"), "--workload", name,
         "--seed", "1", "--smoke", "--seconds", "1", "--trace", "0"],
        cwd=REPO_ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, start_new_session=True)


@pytest.mark.parametrize("name", ["naca_farfield", "service_mix"])
def test_a_run_leaves_no_process_behind(name):
    """Pool workers, the daemon and every multiprocessing resource
    tracker (which ends only after its owner) are gone, and waited for,
    the moment the run exits."""
    run = _start_in_own_session(name)
    stdout, _ = run.communicate(timeout=300)
    assert _session_members(run.pid) == []
    assert run.returncode == 0
    assert json.loads(stdout.splitlines()[-1])["correct"] is True


def test_a_terminated_run_leaves_no_process_behind():
    run = _start_in_own_session("service_mix")
    deadline = time.monotonic() + 60
    while not any("repro serve" in cmd for _, _, cmd
                  in _session_members(run.pid)):
        assert time.monotonic() < deadline, "the daemon never started"
        time.sleep(0.05)
    run.send_signal(signal.SIGTERM)
    run.communicate(timeout=60)
    assert _session_members(run.pid) == []
    assert run.returncode != 0


def test_run_refuses_a_tree_without_the_program(tmp_path):
    import shutil

    shutil.copytree(LEDGER_DIR, tmp_path / "benchmarks" / "ledger",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "benchmarks/ledger/run.py", "--workload",
         "naca_farfield", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert done.stdout.strip() == ""


# ----------------------------------------------------------------------
# --compare
# ----------------------------------------------------------------------
def test_compare_prints_one_row_per_workload_and_metric(tmp_path, capsys):
    def ledger(scale):
        return {"workloads": {
            name: {"end_to_end": {
                m.name: [scale * (1.0 + 0.01 * i) for i in range(10)]
                for m in END_TO_END}}
            for name in ledger_run.WORKLOAD_NAMES}}

    base, new = tmp_path / "base.json", tmp_path / "new.json"
    base.write_text(json.dumps(ledger(1.0)))
    new.write_text(json.dumps(ledger(1.5)))
    assert ledger_run.compare(base, new) == 0
    rows = capsys.readouterr().out.strip().splitlines()[1:]
    assert len(rows) == len(ledger_run.WORKLOAD_NAMES) * len(END_TO_END)
    assert all(row.endswith("worse") and "1.500x" in row for row in rows)
