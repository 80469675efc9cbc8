"""Seeded-fault tests for the lifetime (R8) and serde-contract (R10)
rules, and the engine around every rule.

The defect each rule exists for is its recorded mutant
(``test_mutants.py``).  The bad snippets here are the other shapes the
rule flags — a leak on an early return, an acquire dropped on the spot,
an ``astype`` narrowing, a bad key — and the test asserts the finding
lands with the right rule id, file and line.  Each good twin is the
production shape and must stay finding-free.
"""

import subprocess
import sys
import textwrap

from repro.lint.engine import LintRunner
from repro.lint.rules import ALL_RULES


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
# R10 — serde buffer contract
# ----------------------------------------------------------------------
class TestR10SerdeContract:
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
# Engine features: severity map, exit codes, pragmas
# ----------------------------------------------------------------------
class TestSeverityMap:
    BAD_DROP = """
        from repro.runtime import serde

        def drop(buffers):
            serde.buffers_to_shm(buffers)
    """

    def test_tests_tree_exempt_from_lifetime_rule(self, tmp_path):
        f = tmp_path / "tests" / "helper_drop.py"
        f.parent.mkdir(parents=True)
        f.write_text(textwrap.dedent(self.BAD_DROP))
        findings, _ = LintRunner(ALL_RULES).run([str(f)])
        assert "R8" not in rules_hit(findings)

    def test_same_code_fails_outside_tests_tree(self, tmp_path):
        f = tmp_path / "repro" / "runtime" / "helper_drop.py"
        f.parent.mkdir(parents=True)
        f.write_text(textwrap.dedent(self.BAD_DROP))
        findings, _ = LintRunner(ALL_RULES).run([str(f)])
        assert "R8" in rules_hit(findings)

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
        f.write_text(textwrap.dedent(TestSeverityMap.BAD_DROP))
        assert self.run_cli(str(f)).returncode == 1

    def test_exit_two_on_unparseable(self, tmp_path):
        f = tmp_path / "broken.py"
        f.write_text("def broken(:\n")
        assert self.run_cli(str(f)).returncode == 2

    def test_exit_two_on_unknown_select(self):
        # There is no --select: every rule always runs, and the option
        # is a usage error like any unknown one.
        assert self.run_cli("--select", "R1", ".").returncode == 2

    def test_findings_sorted_for_stable_diffs(self, tmp_path):
        pkg = tmp_path / "repro" / "runtime"
        pkg.mkdir(parents=True)
        (pkg / "b_bad.py").write_text(
            textwrap.dedent(TestSeverityMap.BAD_DROP))
        (pkg / "a_bad.py").write_text(
            textwrap.dedent(TestSeverityMap.BAD_DROP))
        out = self.run_cli(str(tmp_path))
        locs = [line.split(":")[:2] for line in out.stdout.splitlines()[:-1]]
        assert len(locs) == 2
        assert locs == sorted(locs)

class TestPragmaCatalog:
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
