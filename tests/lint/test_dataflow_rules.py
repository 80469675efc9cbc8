"""Seeded-fault tests for the dataflow rules (R8–R12).

Each bad snippet injects the exact defect class its rule guards —
an shm leak on a raise edge, a blocking recv in an async handler, a
float32 buffer literal, an un-fenced pool-result read, an unpaired
counter sample — and the test asserts the finding lands with the right
rule id, file and line.  Each good twin is the PR 6–7 production shape
and must stay finding-free.
"""

import json
import subprocess
import sys
import textwrap

from repro.lint.engine import LintRunner
from repro.lint.rules import ALL_RULES, rule_ids
from repro.lint.sarif import format_sarif


def lint_snippet(tmp_path, relpath, source):
    f = tmp_path / relpath
    f.parent.mkdir(parents=True, exist_ok=True)
    f.write_text(textwrap.dedent(source))
    findings, n_files = LintRunner(ALL_RULES).run([str(f)])
    assert n_files == 1
    return findings


def only(findings, rule):
    return [f for f in findings if f.rule == rule]


def rules_hit(findings):
    return {f.rule for f in findings}


# ----------------------------------------------------------------------
# R8 — shm/wire lifetime
# ----------------------------------------------------------------------
class TestR8Lifetime:
    LEAK_ON_RAISE = """
        from repro.runtime import serde

        def ship(result_q, result, sink):
            wire = serde.buffers_to_wire(result)
            snapshot = sink.snapshot()
            result_q.put((wire, snapshot))
    """

    def test_leak_on_raise_edge_flagged_at_acquire_line(self, tmp_path):
        findings = lint_snippet(
            tmp_path, "repro/runtime/bad_ship.py", self.LEAK_ON_RAISE)
        hits = only(findings, "R8")
        assert len(hits) == 1
        assert hits[0].line == 5  # the buffers_to_wire call
        assert "exception path" in hits[0].message

    def test_guarded_error_edge_is_clean(self, tmp_path):
        good = """
            from repro.runtime import serde

            def ship(result_q, result, sink):
                wire = serde.buffers_to_wire(result)
                try:
                    snapshot = sink.snapshot()
                    result_q.put((wire, snapshot))
                except BaseException:
                    serde.discard_wire(wire)
                    raise
        """
        findings = lint_snippet(tmp_path, "repro/runtime/good_ship.py", good)
        assert not only(findings, "R8")

    def test_leak_on_early_return_path(self, tmp_path):
        bad = """
            from repro.runtime import serde

            def maybe(buffers, flag):
                name, meta = serde.buffers_to_shm(buffers)
                if flag:
                    return None
                return serde.buffers_from_shm(name, meta)
        """
        findings = lint_snippet(tmp_path, "repro/runtime/bad_ret.py", bad)
        hits = only(findings, "R8")
        assert len(hits) == 1
        assert hits[0].line == 5
        assert "normal exit path" in hits[0].message

    def test_returning_the_value_is_clean(self, tmp_path):
        good = """
            from repro.runtime import serde

            def pack(buffers):
                wire = serde.buffers_to_wire(buffers)
                return wire
        """
        findings = lint_snippet(tmp_path, "repro/runtime/good_ret.py", good)
        assert not only(findings, "R8")

    def test_release_in_finally_covers_all_paths(self, tmp_path):
        good = """
            from repro.runtime import serde

            def robust(buffers, sink):
                wire = serde.buffers_to_wire(buffers)
                try:
                    sink.consume()
                finally:
                    serde.discard_wire(wire)
        """
        findings = lint_snippet(tmp_path, "repro/runtime/good_fin.py", good)
        assert not only(findings, "R8")

    def test_bare_expression_acquire_flagged(self, tmp_path):
        bad = """
            from repro.runtime import serde

            def drop(buffers):
                serde.buffers_to_shm(buffers)
        """
        findings = lint_snippet(tmp_path, "repro/runtime/bad_drop.py", bad)
        hits = only(findings, "R8")
        assert len(hits) == 1
        assert "dropped on the spot" in hits[0].message

    def test_shipping_via_queue_is_clean(self, tmp_path):
        good = """
            from repro.runtime import serde

            def ship(result_q, result):
                wire = serde.buffers_to_wire(result)
                result_q.put(("ok", wire))
        """
        findings = lint_snippet(tmp_path, "repro/runtime/good_q.py", good)
        assert not only(findings, "R8")

    def test_serde_module_itself_exempt(self, tmp_path):
        findings = lint_snippet(
            tmp_path, "repro/runtime/serde.py", self.LEAK_ON_RAISE)
        assert not only(findings, "R8")


# ----------------------------------------------------------------------
# R9 — blocking calls in async bodies
# ----------------------------------------------------------------------
class TestR9AsyncBlocking:
    def test_blocking_recv_in_async_handler(self, tmp_path):
        bad = """
            async def handle(conn):
                payload = conn.recv(4096)
                return payload
        """
        findings = lint_snippet(tmp_path, "repro/runtime/bad_async.py", bad)
        hits = only(findings, "R9")
        assert len(hits) == 1
        assert hits[0].line == 3
        assert "recv" in hits[0].message

    def test_time_sleep_and_open_flagged(self, tmp_path):
        bad = """
            import time

            async def handler(path):
                time.sleep(0.5)
                with open(path) as fh:
                    return fh.read()
        """
        findings = lint_snippet(tmp_path, "repro/runtime/bad_sleep.py", bad)
        assert len(only(findings, "R9")) == 2

    def test_offloaded_shape_is_clean(self, tmp_path):
        good = """
            async def handler(loop, pool, items):
                return await loop.run_in_executor(
                    None, pool.map_workitems, items)
        """
        findings = lint_snippet(tmp_path, "repro/runtime/good_async.py", good)
        assert not only(findings, "R9")

    def test_awaited_recv_is_async_library_and_clean(self, tmp_path):
        good = """
            async def handler(ws):
                return await ws.recv()
        """
        findings = lint_snippet(tmp_path, "repro/runtime/good_await.py", good)
        assert not only(findings, "R9")

    def test_sync_function_not_in_scope(self, tmp_path):
        good = """
            def pump(conn):
                return conn.recv(4096)
        """
        findings = lint_snippet(tmp_path, "repro/runtime/good_sync.py", good)
        assert not only(findings, "R9")


# ----------------------------------------------------------------------
# R10 — serde buffer contract
# ----------------------------------------------------------------------
class TestR10SerdeContract:
    def test_float32_buffer_literal_flagged(self, tmp_path):
        bad = """
            import numpy as np

            def pack_mesh(pts):
                return {"pts": np.asarray(pts, dtype=np.float32)}
        """
        findings = lint_snippet(tmp_path, "repro/runtime/bad_pack.py", bad)
        hits = only(findings, "R10")
        assert len(hits) == 1
        assert hits[0].line == 5
        assert "float32" in hits[0].message

    def test_astype_narrowing_flagged(self, tmp_path):
        bad = """
            def unpack_mesh(buffers):
                return buffers["pts"].astype("float32")
        """
        findings = lint_snippet(tmp_path, "repro/runtime/bad_astype.py", bad)
        assert len(only(findings, "R10")) == 1

    def test_contract_dtypes_clean(self, tmp_path):
        good = """
            import numpy as np

            def pack_mesh(pts, tris):
                return {
                    "pts": np.asarray(pts, dtype=np.float64),
                    "tri_v": np.asarray(tris, dtype=np.int32),
                    "flags": np.zeros(4, dtype=np.uint8),
                }
        """
        findings = lint_snippet(tmp_path, "repro/runtime/good_pack.py", good)
        assert not only(findings, "R10")

    def test_bad_key_naming_flagged(self, tmp_path):
        bad = """
            import numpy as np

            def pack_mesh(pts):
                return {"Pts-XY": np.asarray(pts, dtype=np.float64)}
        """
        findings = lint_snippet(tmp_path, "repro/runtime/bad_key.py", bad)
        hits = only(findings, "R10")
        assert len(hits) == 1
        assert "snake_case" in hits[0].message

    def test_outside_factory_functions_not_in_scope(self, tmp_path):
        good = """
            import numpy as np

            def render_preview(pts):
                return np.asarray(pts, dtype=np.float32)
        """
        findings = lint_snippet(tmp_path, "repro/runtime/good_other.py", good)
        assert not only(findings, "R10")


# ----------------------------------------------------------------------
# R11 — epoch fence + protocol orderings
# ----------------------------------------------------------------------
class TestR11EpochFence:
    UNFENCED = """
        from repro.runtime import serde

        class PoolStream:
            def __init__(self):
                self._epoch = 0
                self._out = {}

            def _handle(self, msg):
                idx, wire = msg[3], msg[4]
                self._out[idx] = serde.wire_to_buffers(wire)
    """

    def test_unfenced_pool_result_read_flagged(self, tmp_path):
        findings = lint_snippet(
            tmp_path, "repro/runtime/bad_fence.py", self.UNFENCED)
        hits = only(findings, "R11")
        assert len(hits) == 1
        assert hits[0].line == 11
        assert "epoch fence" in hits[0].message

    def test_fenced_read_is_clean(self, tmp_path):
        good = """
            from repro.runtime import serde

            class PoolStream:
                def __init__(self):
                    self._epoch = 0
                    self._out = {}

                def _handle(self, msg):
                    epoch, idx, wire = msg[2], msg[3], msg[4]
                    if epoch != self._epoch:
                        serde.discard_wire(wire)
                        return
                    self._out[idx] = serde.wire_to_buffers(wire)
        """
        findings = lint_snippet(tmp_path, "repro/runtime/good_fence.py", good)
        assert not only(findings, "R11")

    def test_classes_without_epochs_exempt(self, tmp_path):
        good = """
            from repro.runtime import serde

            class ForkPerCall:
                def collect(self, name, meta):
                    return serde.buffers_from_shm(name, meta)
        """
        findings = lint_snippet(tmp_path, "repro/runtime/good_legacy.py", good)
        assert not only(findings, "R11")

    def test_shutdown_before_abort_flagged(self, tmp_path):
        bad = """
            async def shutdown(self):
                self._backend.shutdown_pool()
                self._backend.abort("stopping")
        """
        findings = lint_snippet(tmp_path, "repro/runtime/bad_order.py", bad)
        hits = only(findings, "R11")
        assert len(hits) == 1
        assert "abort" in hits[0].message

    def test_bind_before_warm_flagged(self, tmp_path):
        bad = """
            import asyncio

            async def start(self, path):
                self._server = await asyncio.start_unix_server(
                    self._on_conn, path=path)
                self._backend.warm_pool(self.n_ranks)
        """
        findings = lint_snippet(tmp_path, "repro/runtime/bad_warm.py", bad)
        hits = only(findings, "R11")
        assert len(hits) == 1
        assert "fd" in hits[0].message

    def test_correct_orderings_clean(self, tmp_path):
        good = """
            import asyncio

            async def start(self, path):
                self._backend.warm_pool(self.n_ranks)
                self._server = await asyncio.start_unix_server(
                    self._on_conn, path=path)

            async def shutdown(self):
                self._backend.abort("stopping")
                self._backend.shutdown_pool()
        """
        findings = lint_snippet(tmp_path, "repro/runtime/good_order.py", good)
        assert not only(findings, "R11")


# ----------------------------------------------------------------------
# R12 — paired counter samples
# ----------------------------------------------------------------------
class TestR12CounterPairs:
    def test_unpaired_sample_flagged(self, tmp_path):
        bad = """
            def transport(sink, nbytes):
                sink.observe("serde.shm_nbytes", float(nbytes))
        """
        findings = lint_snippet(tmp_path, "repro/runtime/bad_pair.py", bad)
        hits = only(findings, "R12")
        assert len(hits) == 1
        assert hits[0].line == 3
        assert "serde.shm_seconds" in hits[0].message

    def test_paired_samples_clean(self, tmp_path):
        good = """
            def transport(sink, nbytes, seconds):
                sink.observe("serde.shm_nbytes", float(nbytes))
                sink.observe("serde.shm_seconds", seconds)
        """
        findings = lint_snippet(tmp_path, "repro/runtime/good_pair.py", good)
        assert not only(findings, "R12")

    def test_unrelated_streams_not_paired(self, tmp_path):
        good = """
            def record(sink, depth):
                sink.observe("kernel.cavity_depth", depth)
        """
        findings = lint_snippet(tmp_path, "repro/runtime/good_single.py", good)
        assert not only(findings, "R12")


# ----------------------------------------------------------------------
# Engine features: severity map, baseline, SARIF, exit codes, pragmas
# ----------------------------------------------------------------------
class TestSeverityMap:
    BAD_ASYNC = """
        async def handler(conn):
            return conn.recv(4096)
    """

    def test_tests_tree_exempt_from_async_rule(self, tmp_path):
        f = tmp_path / "tests" / "helper_async.py"
        f.parent.mkdir(parents=True)
        f.write_text(textwrap.dedent(self.BAD_ASYNC))
        findings, _ = LintRunner(ALL_RULES).run([str(f)])
        assert "R9" not in rules_hit(findings)

    def test_same_code_fails_outside_tests_tree(self, tmp_path):
        f = tmp_path / "repro" / "runtime" / "helper_async.py"
        f.parent.mkdir(parents=True)
        f.write_text(textwrap.dedent(self.BAD_ASYNC))
        findings, _ = LintRunner(ALL_RULES).run([str(f)])
        assert "R9" in rules_hit(findings)

    def test_warn_severity_does_not_gate(self, tmp_path):
        # examples/ demotes R5 (wall-clock reads) to a warning.
        f = tmp_path / "examples" / "repro" / "helper_clock.py"
        f.parent.mkdir(parents=True)
        f.write_text("import time\nT0 = time.perf_counter()\n")
        findings = LintRunner(ALL_RULES).run_file(f)
        assert [x.severity for x in findings if x.rule == "R5"] == ["warn"]


class TestCLI:
    def run_cli(self, *args):
        proc = subprocess.run(
            [sys.executable, "-m", "repro.lint", *args],
            capture_output=True, text=True)
        return proc

    def test_exit_zero_on_clean_file(self, tmp_path):
        f = tmp_path / "ok.py"
        f.write_text("x = 1\n")
        assert self.run_cli(str(f)).returncode == 0

    def test_exit_one_on_findings(self, tmp_path):
        f = tmp_path / "repro" / "runtime" / "bad.py"
        f.parent.mkdir(parents=True)
        f.write_text(textwrap.dedent(TestSeverityMap.BAD_ASYNC))
        assert self.run_cli(str(f)).returncode == 1

    def test_exit_two_on_unparseable(self, tmp_path):
        f = tmp_path / "broken.py"
        f.write_text("def broken(:\n")
        assert self.run_cli(str(f)).returncode == 2

    def test_exit_two_on_unknown_select(self):
        assert self.run_cli("--select", "NOPE", ".").returncode == 2

    def test_findings_sorted_for_stable_diffs(self, tmp_path):
        pkg = tmp_path / "repro" / "runtime"
        pkg.mkdir(parents=True)
        (pkg / "b_bad.py").write_text(
            textwrap.dedent(TestSeverityMap.BAD_ASYNC))
        (pkg / "a_bad.py").write_text(
            textwrap.dedent(TestSeverityMap.BAD_ASYNC))
        out = self.run_cli(str(tmp_path), "--format", "json")
        data = json.loads(out.stdout)
        locs = [(f["path"], f["line"], f["rule"])
                for f in data["findings"]]
        assert locs == sorted(locs)

    def test_baseline_roundtrip(self, tmp_path):
        f = tmp_path / "repro" / "runtime" / "bad.py"
        f.parent.mkdir(parents=True)
        f.write_text(textwrap.dedent(TestSeverityMap.BAD_ASYNC))
        base = tmp_path / "baseline.json"
        wrote = self.run_cli(str(f), "--write-baseline", str(base))
        assert wrote.returncode == 0
        data = json.loads(base.read_text())
        assert data["entries"], "baseline must record the finding"
        # With the baseline applied the same tree is green.
        again = self.run_cli(str(f), "--baseline", str(base))
        assert again.returncode == 0
        assert "baselined" in again.stdout

    def test_sarif_output_shape(self, tmp_path):
        f = tmp_path / "repro" / "runtime" / "bad.py"
        f.parent.mkdir(parents=True)
        f.write_text(textwrap.dedent(TestSeverityMap.BAD_ASYNC))
        out = self.run_cli(str(f), "--format", "sarif")
        doc = json.loads(out.stdout)
        assert doc["version"] == "2.1.0"
        run = doc["runs"][0]
        assert run["tool"]["driver"]["name"] == "repro-lint"
        rule_ids_in_doc = {r["id"] for r in run["tool"]["driver"]["rules"]}
        assert set(rule_ids()) <= rule_ids_in_doc
        res = run["results"][0]
        assert res["ruleId"] == "R9"
        assert res["level"] == "error"
        loc = res["locations"][0]["physicalLocation"]
        assert loc["region"]["startLine"] == 3


class TestPragmaCatalog:
    def test_select_does_not_misread_known_pragmas(self, tmp_path):
        # A pragma naming an unselected-but-real rule is neither
        # "unknown" (P0) nor "stale" (P1) when that rule didn't run.
        src = textwrap.dedent("""
            import numpy as np

            def f(x):
                return np.random.shuffle(x)  # lint: disable=R3 -- test shim
        """)
        f = tmp_path / "repro" / "runtime" / "shim.py"
        f.parent.mkdir(parents=True)
        f.write_text(src)
        selected = [r for r in ALL_RULES if r.id == "R4"]
        runner = LintRunner(selected, catalog=rule_ids())
        findings = runner.run_file(f)
        assert "P0" not in rules_hit(findings)
        assert "P1" not in rules_hit(findings)

    def test_internal_rule_crash_becomes_e9(self, tmp_path):
        class Kaboom:
            id = "RX"
            title = "explodes"
            invariant = "none"

            def applies(self, ctx):
                return True

            def check(self, ctx):
                raise RuntimeError("boom")

        f = tmp_path / "ok.py"
        f.write_text("x = 1\n")
        findings = LintRunner([Kaboom()]).run_file(f)
        assert [x.rule for x in findings] == ["E9"]
        assert "RX" in findings[0].message


class TestSarifFormatter:
    def test_empty_findings_still_valid(self):
        doc = json.loads(format_sarif([], ALL_RULES))
        assert doc["runs"][0]["results"] == []
