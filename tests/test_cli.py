"""CLI contract tests: backend flag wiring, fail-fast errors, and the
serve/submit service subcommands."""

import json
import threading
import time

import pytest

from repro.cli import build_parser, build_serve_parser, build_submit_parser, main
from repro.runtime import executor


class TestBackendFlags:
    def test_choices_derived_from_registry(self):
        parser = build_parser()
        action = next(a for a in parser._actions if a.dest == "backend")
        assert list(action.choices) == executor.available_backends()

    def test_ranks_with_serial_alias_fails_fast(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["--naca", "0012", "--backend", "serial", "--ranks", "2",
                  "-o", str(tmp_path / "m")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--ranks only applies to parallel backends" in err
        assert "pick one of: processes" in err

    def test_removed_local_alias_lists_accepted_names(self, capsys, tmp_path):
        for name in ("local", "threads"):
            with pytest.raises(SystemExit) as exc:
                main(["--naca", "0012", "--backend", name,
                      "-o", str(tmp_path / "m")])
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert f"invalid choice: '{name}'" in err
            assert all(n in err for n in executor.available_backends())

    def test_unknown_backend_rejected_by_argparse(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["--naca", "0012", "--backend", "mpi",
                  "-o", str(tmp_path / "m")])

    def test_env_backend_reported_in_summary(self, monkeypatch, capsys,
                                             tmp_path):
        """``REPRO_BACKEND``, once a process-wide default, is read by
        nothing: the run is ``serial``, the ``--backend`` default, and
        the summary reports that name and the rank count."""
        monkeypatch.setenv("REPRO_BACKEND", "processes")
        rc = main(["--naca", "0012", "--surface-points", "31",
                   "--max-layers", "6", "--farfield-chords", "5",
                   "--subdomains", "4", "--stats-json",
                   "-o", str(tmp_path / "m")])
        assert rc == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["backend"] == "serial"
        assert summary["n_ranks"] == 4
        assert summary["n_triangles"] > 0


class TestAdaptFlags:
    def test_adapt_defaults_parse(self):
        parser = build_parser()
        args = parser.parse_args(["--naca", "0012", "-o", "m"])
        assert args.adapt is False
        assert args.adapt_cycles == 2
        assert args.adapt_eps == pytest.approx(1e-2)
        assert args.adapt_hmin is None and args.adapt_hmax is None

    def test_adapt_run_reports_counters(self, capsys, tmp_path):
        """One tiny adaptation cycle end to end: --stats-json carries
        the operation counters and the conformity trace, and the
        --profile sink is still listening when the stage runs."""
        rc = main(["--naca", "0012", "--surface-points", "31",
                   "--max-layers", "6", "--farfield-chords", "5",
                   "--subdomains", "4", "--adapt", "--adapt-cycles", "1",
                   "--adapt-eps", "0.1", "--adapt-hmin", "0.01",
                   "--adapt-hmax", "2.0", "--adapt-passes", "2",
                   "--profile", "--stats-json", "-o", str(tmp_path / "m")])
        assert rc == 0
        out = capsys.readouterr().out
        summary = json.loads(out[out.index("{"):])  # after the report
        adapt = summary["adapt"]
        assert adapt["cycles"] == 1
        assert adapt["splits"] + adapt["collapses"] + adapt["flips"] > 0
        assert 0.0 <= adapt["conformity"] <= 1.0
        report = adapt["reports"][0]
        assert report["conformity_after"] >= report["conformity_before"]
        # Scoring work of the flip passes: summed like the other counts.
        assert adapt["flip_evaluations"] == report["flip_evaluations"]
        assert adapt["flip_evaluations"] >= adapt["flips"]
        assert adapt["flip_sweeps"] == report["flip_sweeps"] >= 1
        events = summary["profile"]["events"]
        assert events["adapt_flips"] == adapt["flips"]
        assert events["adapt_flip_evaluations"] == adapt["flip_evaluations"]


class TestServiceParsers:
    def test_serve_backend_choices_derived_from_registry(self):
        parser = build_serve_parser()
        action = next(a for a in parser._actions if a.dest == "backend")
        assert list(action.choices) == executor.available_backends()

    def test_serve_has_no_insert_strategy_flag(self, capsys, tmp_path):
        """A daemon's meshes depend on the request alone."""
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--socket", str(tmp_path / "s.sock"),
                  "--insert-strategy", "batch"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments: --insert-strategy batch" in err
        assert "--backend" in err

    def test_serve_requires_an_address(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--backend", "serial"])
        assert exc.value.code == 2
        assert "--socket" in capsys.readouterr().err

    def test_serve_ranks_with_serial_fails_fast(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--socket", str(tmp_path / "s.sock"),
                  "--backend", "serial", "--ranks", "4"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--ranks only applies to parallel backends" in err

    @pytest.mark.parametrize("command, spec", [
        (["serve", "--backend", "serial"], "localhost"),
        (["serve", "--backend", "serial"], "127.0.0.1:99999"),
        (["submit", "--ping"], "localhost"),
        (["submit", "--ping"], "127.0.0.1:http"),
    ])
    def test_bad_tcp_address_is_a_usage_error(self, capsys, command, spec):
        with pytest.raises(SystemExit) as exc:
            main(command + ["--tcp", spec])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"service address 'tcp:{spec}'" in err

    def test_submit_with_nothing_to_do_fails_fast(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["submit", "--socket", str(tmp_path / "s.sock")])
        assert exc.value.code == 2
        assert "nothing to do" in capsys.readouterr().err

    def test_submit_geometry_requires_output(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["submit", "--socket", str(tmp_path / "s.sock"),
                  "--naca", "0012"])
        assert exc.value.code == 2
        assert "-o/--output is required" in capsys.readouterr().err

    def test_submit_geometry_flags_match_legacy_parser(self):
        """The submit subcommand reuses the legacy geometry/mesh flags,
        so scripted invocations can switch paths without rewrites."""
        legacy = {a.dest for a in build_parser()._actions}
        submit = {a.dest for a in build_submit_parser()._actions}
        for dest in ("naca", "naca5", "joukowski", "flat_plate", "cylinder",
                     "three_element", "poly", "surface_points",
                     "first_spacing", "growth_ratio", "max_layers",
                     "farfield_chords", "grading", "subdomains"):
            assert dest in legacy and dest in submit, dest


class TestServeSubmitEndToEnd:
    @staticmethod
    def _json_tail(out):
        """Parse the JSON summary, skipping the serve thread's startup
        banner captured on the same stream."""
        return json.loads(out[out.index("{"):])

    def _serve_in_thread(self, sock_path):
        rc = {}

        def run():
            rc["value"] = main(["serve", "--socket", str(sock_path),
                                "--backend", "serial",
                                "--batch-window", "0.005"])

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        deadline = time.monotonic() + 30.0
        while not sock_path.exists():
            if time.monotonic() > deadline:
                raise TimeoutError("service socket never appeared")
            time.sleep(0.02)
        return thread, rc

    def test_serve_submit_shutdown_round_trip(self, capsys, tmp_path):
        sock = tmp_path / "svc.sock"
        thread, rc = self._serve_in_thread(sock)
        try:
            code = main(["submit", "--socket", str(sock), "--ping",
                         "--naca", "0012", "--surface-points", "31",
                         "--max-layers", "6", "--farfield-chords", "5",
                         "--subdomains", "4", "--stats-json",
                         "-o", str(tmp_path / "m")])
            assert code == 0
            first = self._json_tail(capsys.readouterr().out)
            assert first["ping_rtt_s"] >= 0.0
            assert first["cached"] is False
            assert first["n_triangles"] > 0
            assert (tmp_path / "m.node").exists() or first["outputs"]

            code = main(["submit", "--socket", str(sock),
                         "--naca", "0012", "--surface-points", "31",
                         "--max-layers", "6", "--farfield-chords", "5",
                         "--subdomains", "4", "--server-stats",
                         "--stats-json", "-o", str(tmp_path / "m2")])
            assert code == 0
            second = self._json_tail(capsys.readouterr().out)
            assert second["cached"] is True
            assert second["key"] == first["key"]
            assert second["server"]["requests"] == 2.0
            assert second["server"]["cache_hits"] == 1.0
        finally:
            assert main(["submit", "--socket", str(sock),
                         "--shutdown"]) == 0
            thread.join(timeout=60)
        assert not thread.is_alive()
        assert rc.get("value") == 0
        assert "service shut down" in capsys.readouterr().out
