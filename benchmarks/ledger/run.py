"""The perf ledger: four workloads, end-to-end and per-layer metrics.

One run of one workload (what the driver in ``BENCHMARK.json`` calls)::

    python benchmarks/ledger/run.py --workload naca_farfield --seed 3 \
        --seconds 20 --trace 0        # end-to-end metrics, tracing off
    python benchmarks/ledger/run.py --workload naca_farfield --seed 3 \
        --seconds 20 --trace 1        # per-layer metrics from a traced run

prints every metric by name with its unit and ends with one JSON line
``{"correct", "attempted", "failed", "metrics"}``.  The run itself
happens in a child interpreter; the one started here only supervises:
it returns when every process the run left behind has ended and been
waited for (see :func:`supervise`).

The whole ledger (every workload, each in a fresh interpreter, one at a
time, end-to-end then traced)::

    python benchmarks/ledger/run.py [--seed 0] [--smoke] [--runs N]
        [--workload NAME] [--out FILE]
    python benchmarks/ledger/run.py --repeat-check [--out FILE]
    python benchmarks/ledger/run.py --compare BASE.json NEW.json

See ``README.md`` beside this file for what each number means.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

LEDGER_DIR = Path(__file__).resolve().parent
REPO_ROOT = LEDGER_DIR.parents[1]
OUT_DIR = LEDGER_DIR / "out"
WORKLOAD_NAMES = ["naca_farfield", "highlift_bl", "adapt_shear",
                  "service_mix"]

#: fresh interpreters that each time one set-up.
SETUP_PROBES = 5
#: a run is marked noisy when the calibration loop drifts by more
#: between its start and its end.
NOISY_DRIFT = 0.10
#: calibration-loop repeats per sampling point, and the loop's wall on
#: this box when the host is quiet: the pace timings are scaled to.
PACE_POINT = 5
PACE_REF_S = 0.013
#: (primary op, warm op) rounds every timed run makes at least.
MIN_ROUNDS = 3
SMOKE_ROUNDS = 2
#: how long the supervisor lets a finished or interrupted run's
#: descendants end by themselves before it kills them.
REAP_GRACE_S = 20.0

sys.path.insert(0, str(LEDGER_DIR))

import stats  # noqa: E402
from metrics import END_TO_END, PER_LAYER  # noqa: E402


def _import_program() -> None:
    """Put ``src/`` on the path; fail loudly when the program is absent."""
    src = REPO_ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"ledger: no program to measure: {src}/repro is "
                         "missing (run from a full checkout)\n")
        raise SystemExit(2)
    sys.path.insert(0, str(src))


# ----------------------------------------------------------------------
# Machine pace: noise guard and the scale of every timing
# ----------------------------------------------------------------------
#: few keys, several passes: the loop must not raise the peak RSS the
#: run reports.
_PACE_KEYS = [((i * 2654435761) % 1000003) / 1000003.0 for i in range(10_000)]
_PACE_PASSES = 6


def pace_samples(count: int = PACE_POINT) -> List[float]:
    """Time a fixed dict/sort loop ``count`` times (seconds each).

    Python-object work like the mesher's own (hashing, pointer chasing,
    allocation), so it slows down when the shared host does.  A run
    samples it before every set-up probe and every op; the median over
    the run is the run's pace.  README, "Noise", has the measurements
    behind scaling the timings by it.
    """
    out = []
    for _ in range(count):
        t0 = time.perf_counter()
        for _ in range(_PACE_PASSES):
            index = {k: i for i, k in enumerate(_PACE_KEYS)}
            total = 0
            for k in _PACE_KEYS[::2]:
                total += index[k]
            sorted((k, index[k]) for k in _PACE_KEYS[::3])
        out.append(time.perf_counter() - t0)
    return out


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def default_ranks() -> int:
    """``R = max(2, min(4, nproc))``: ranks of every pool and the daemon."""
    return max(2, min(4, nproc()))


def stamp(seed: int, smoke: bool) -> Dict[str, object]:
    import numpy

    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=REPO_ROOT,
                             capture_output=True, text=True,
                             check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown"  # a driver checkout is not a git repository
    try:
        loadavg = Path("/proc/loadavg").read_text().strip()
    except OSError:
        loadavg = "unknown"
    return {"git_sha": sha, "nproc": nproc(), "ranks": default_ranks(),
            "seed": seed, "smoke": smoke,
            "python": platform.python_version(),
            "numpy": numpy.__version__, "loadavg": loadavg}


def peak_rss_mb() -> float:
    """Largest resident set of this interpreter or any waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # Linux reports KiB


# ----------------------------------------------------------------------
# One run of one workload
# ----------------------------------------------------------------------
def _child_command(workload: str, seed: int, smoke: bool,
                   *extra: str) -> List[str]:
    """This script again, on one workload, in a fresh interpreter."""
    cmd = [sys.executable, str(LEDGER_DIR / "run.py"),
           "--workload", workload, "--seed", str(seed), *extra]
    return cmd + ["--smoke"] if smoke else cmd


def measure_setup(args, pace: List[float]) -> List[float]:
    """Set the workload up in fresh interpreters; wall until each is ready.

    The clock starts before the interpreter does and stops when the
    child, having imported the program, built its inputs and warmed its
    pool or daemon, reports ready; its warm-up op and teardown are not
    counted.
    """
    samples = []
    for _ in range(1 if args.smoke else SETUP_PROBES):
        pace.extend(pace_samples())
        t0 = time.perf_counter()
        child = subprocess.Popen(
            _child_command(args.workload, args.seed, args.smoke,
                           "--setup-probe"),
            stdout=subprocess.PIPE, text=True)
        try:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - t0
            child.communicate(timeout=120)
        except BaseException:
            child.kill()
            child.wait()
            raise
        if line.strip() != "ready" or child.returncode != 0:
            raise RuntimeError(f"setup probe failed (exit {child.returncode})")
        samples.append(elapsed)
    return samples


def setup_probe(args) -> int:
    """Child side of :func:`measure_setup`."""
    _import_program()
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, args.smoke,
                                        default_ranks())
    try:
        workload.setup(warm_up=False)
        print("ready", flush=True)
    finally:
        workload.teardown()
    return 0


def run_end_to_end(args, workload, pace: List[float]) -> Dict[str, object]:
    setup_samples = measure_setup(args, pace)
    workload.setup()
    primary: List[float] = []
    warm: List[float] = []
    rounds = 0
    t_start = time.perf_counter()
    while True:
        if args.inject_failure and rounds == 0:
            workload.fail_next = True
        pace.extend(pace_samples())
        primary.extend(workload.op())
        pace.extend(pace_samples())
        warm.extend(workload.op_warm())
        rounds += 1
        elapsed = time.perf_counter() - t_start
        if args.smoke:
            if rounds >= SMOKE_ROUNDS:
                break
        # Stop at the whole number of rounds closest to --seconds.
        elif (rounds >= MIN_ROUNDS
              and elapsed + 0.5 * elapsed / rounds >= args.seconds):
            break
    measured_s = time.perf_counter() - t_start
    attempted, failed, notes = workload.check()
    workload.teardown()
    # Walls scaled from this run's pace to the reference pace.  An op
    # is reported by the first quartile of its samples: the shared host
    # only ever adds time to one, and over ten-seed sets the lower
    # quartile spread half as much as the median on service_mix and no
    # more on the other workloads (README, "Noise").
    scale = PACE_REF_S / stats.median(pace)

    def first_quartile(samples: List[float]) -> float:
        return stats.percentile(samples, 25) if samples else float("nan")

    values = {
        "setup_s": scale * stats.median(setup_samples),
        "op_s": scale * first_quartile(primary),
        "op_warm_s": scale * first_quartile(warm),
        "peak_rss_mb": peak_rss_mb(),
    }
    return {
        "values": values,
        "samples": {"setup_s": setup_samples, "op_s": primary,
                    "op_warm_s": warm},
        "attempted": attempted, "failed": failed, "notes": notes,
        "rounds": rounds, "measured_s": measured_s,
    }


def run_traced(args, workload) -> Dict[str, object]:
    from spans import Tracer
    import traced

    tracer = Tracer(workload.name)
    workload.setup()
    values, attempted, failed, notes = traced.run(workload, tracer)
    attempted_c, failed_c, notes_c = workload.check()
    workload.teardown()
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    trace_path = OUT_DIR / f"trace-{workload.name}.json"
    pid = WORKLOAD_NAMES.index(workload.name) + 1
    trace_path.write_text(json.dumps(tracer.chrome_trace(pid)))
    return {"values": values, "attempted": attempted + attempted_c,
            "failed": failed + failed_c, "notes": notes + notes_c,
            "trace_file": str(trace_path.relative_to(REPO_ROOT)),
            "n_spans": len(tracer.spans)}


def run_one(args) -> int:
    _import_program()
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, args.smoke,
                                        default_ranks())
    pace = pace_samples()
    try:
        if args.trace:
            detail = run_traced(args, workload)
            registry = PER_LAYER
        else:
            detail = run_end_to_end(args, workload, pace)
            registry = END_TO_END
    finally:
        workload.teardown()
    pace.extend(pace_samples())
    before = stats.median(pace[:PACE_POINT])
    drift = abs(stats.median(pace[-PACE_POINT:]) - before) / before
    run_pace = stats.median(pace)
    if args.trace:
        detail["values"]["bench.pace_ms"] = run_pace * 1e3
        detail["values"]["bench.pace_drift"] = drift
    workload.info.update(pace_ms=round(run_pace * 1e3, 3),
                         pace_scale=round(PACE_REF_S / run_pace, 4))
    detail.update(workload=workload.name, why=workload.why,
                  trace=bool(args.trace), info=workload.info,
                  stamp=stamp(args.seed, args.smoke), pace=pace,
                  noisy=drift > NOISY_DRIFT)

    print(f"== {workload.name} (seed {args.seed}, R={workload.ranks}"
          f"{', smoke' if args.smoke else ''}"
          f"{', NOISY' if detail['noisy'] else ''}) ==")
    for key, value in sorted(workload.info.items()):
        print(f"   {key} = {value}")
    metrics = {}
    for m in registry:
        value = float(detail["values"][m.name])
        metrics[m.name] = {"value": value, "unit": m.unit}
        line = f"{m.name:<42} {value:>14.6g} {m.unit}"
        samples = detail.get("samples", {}).get(m.name)
        if samples:
            s = stats.summary(samples)
            line += (f"   [wall: median {s['median']:.6g}, q1 {s['q1']:.6g}, "
                     f"q3 {s['q3']:.6g}, n {s['n']}]")
        print(line)
    attempted, failed = int(detail["attempted"]), int(detail["failed"])
    print(f"{'failed_frac':<42} {failed / max(attempted, 1):>14.6g} "
          f"  [{failed} of {attempted}]")
    for note in detail["notes"][:10]:
        print(f"   ! {note}")

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    kind = "traced" if args.trace else "timed"
    (OUT_DIR / f"run-{workload.name}-{kind}.json").write_text(
        json.dumps(detail, indent=1, default=str))
    print(json.dumps({"correct": failed == 0, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": metrics}))
    return 0


# ----------------------------------------------------------------------
# Supervisor: no process outlives a run
# ----------------------------------------------------------------------
def _child_pids() -> List[int]:
    """Live or unreaped processes whose parent is this one."""
    me, out = str(os.getpid()), []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                fields = Path(f"/proc/{entry}/stat").read_text()
            except OSError:  # ended while we were looking
                continue
            if fields.rsplit(")", 1)[1].split()[1] == me:
                out.append(int(entry))
    return out


def supervise(argv: List[str]) -> int:
    """Run one workload in a child interpreter and outlive every process
    it leaves behind; returns the child's exit code.

    The program's pool workers, the daemon and the measuring interpreter
    each start a ``multiprocessing`` resource tracker that ends only
    after its owner has, so nobody waits for it.  This process makes
    itself the subreaper of its descendants: whatever a run orphans is
    re-parented here, and it returns only when all of it has ended and
    been waited for -- on an interrupt or SIGTERM too, after passing
    the interrupt on so the run tears its pool or daemon down.
    """
    PR_SET_CHILD_SUBREAPER = 36
    try:
        ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1,
                                                0, 0, 0)
    except (OSError, AttributeError):  # non-Linux: direct children only
        pass

    def on_term(signum, frame):
        raise KeyboardInterrupt

    signal.signal(signal.SIGTERM, on_term)
    child = subprocess.Popen([sys.executable, str(LEDGER_DIR / "run.py"),
                              *argv, "--supervised"])
    try:
        child.wait()
    except KeyboardInterrupt:
        child.send_signal(signal.SIGINT)  # its ``finally`` tears down
    finally:
        deadline = time.monotonic() + REAP_GRACE_S
        while True:
            try:
                if time.monotonic() > deadline:
                    for pid in _child_pids():
                        os.kill(pid, signal.SIGKILL)
                if child.returncode is None:
                    child.wait(timeout=0.01)
                elif os.waitpid(-1, os.WNOHANG) == (0, 0):
                    time.sleep(0.01)
            except subprocess.TimeoutExpired:
                pass
            except ProcessLookupError:  # ended before the kill
                pass
            except ChildProcessError:  # nothing left to wait for
                break
            except KeyboardInterrupt:  # a second signal: stop being patient
                deadline = time.monotonic()
    return child.returncode if child.returncode is not None else 1


# ----------------------------------------------------------------------
# The whole ledger
# ----------------------------------------------------------------------
def _run_child(workload: str, seed: int, seconds: int, trace: int,
               smoke: bool) -> Dict[str, object]:
    cmd = _child_command(workload, seed, smoke, "--seconds", str(seconds),
                         "--trace", str(trace))
    done = subprocess.run(cmd, cwd=REPO_ROOT, capture_output=True, text=True)
    sys.stdout.write(done.stdout.rsplit("\n", 2)[0] + "\n")
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise RuntimeError(f"{workload} run failed (exit {done.returncode})")
    return json.loads(done.stdout.strip().rsplit("\n", 1)[-1])


def run_set(args, names: List[str]) -> Dict[str, object]:
    """``args.runs`` timed runs (seeds seed, seed+1, ...) and one traced
    run of every workload, one interpreter at a time."""
    out: Dict[str, object] = {}
    for name in names:
        timed = [_run_child(name, args.seed + i, args.seconds, 0, args.smoke)
                 for i in range(args.runs)]
        traced_run = _run_child(name, args.seed, args.seconds, 1, args.smoke)
        out[name] = {
            "end_to_end": {m.name: [r["metrics"][m.name]["value"]
                                    for r in timed] for m in END_TO_END},
            "attempted": sum(r["attempted"] for r in timed),
            "failed": sum(r["failed"] for r in timed),
            "per_layer": {k: v["value"]
                          for k, v in traced_run["metrics"].items()},
        }
    return out


def repeat_check(first: Dict[str, object],
                 second: Dict[str, object]) -> List[Dict[str, object]]:
    """Per workload x end-to-end metric: do two sets' medians agree?"""
    rows = []
    for name in first:
        for m in END_TO_END:
            a = stats.median(first[name]["end_to_end"][m.name])
            b = stats.median(second[name]["end_to_end"][m.name])
            shift = abs(stats.worse_by(a, b, m.better))
            rows.append({"workload": name, "metric": m.name, "first": a,
                         "second": b, "shift": shift, "bound": m.bound,
                         "ok": shift <= m.bound})
    return rows


def compare(base_path: Path, new_path: Path) -> int:
    base = json.loads(base_path.read_text())["workloads"]
    new = json.loads(new_path.read_text())["workloads"]
    print(f"{'workload':<14} {'metric':<12} {'base median [q1, q3]':<32} "
          f"{'new median [q1, q3]':<32} {'new/base':<10} verdict")
    for name in base:
        if name not in new:
            continue
        for m in END_TO_END:
            a = base[name]["end_to_end"][m.name]
            b = new[name]["end_to_end"][m.name]
            qa, qb = stats.quartiles(a), stats.quartiles(b)
            ratio = qb[1] / qa[1]
            print(f"{name:<14} {m.name:<12} "
                  f"{f'{qa[1]:.5g} [{qa[0]:.5g}, {qa[2]:.5g}] n={len(a)}':<32} "
                  f"{f'{qb[1]:.5g} [{qb[0]:.5g}, {qb[2]:.5g}] n={len(b)}':<32} "
                  f"{f'{ratio:.3f}x':<10} "
                  f"{stats.verdict(a, b, better=m.better, bound=m.bound)}")
    return 0


def run_ledger(args) -> int:
    names = [args.workload] if args.workload else WORKLOAD_NAMES
    started = stamp(args.seed, args.smoke)
    sets = [run_set(args, names)]
    result: Dict[str, object] = {
        "claim": None,
        "stamp": started,
        "seconds": args.seconds,
        "runs_per_set": args.runs,
        "workloads": sets[0],
    }
    ok = all(sets[0][n]["failed"] == 0 for n in names)
    if args.repeat_check:
        sets.append(run_set(args, names))
        rows = repeat_check(sets[0], sets[1])
        result["repeat_check"] = {"passed": all(r["ok"] for r in rows),
                                  "rows": rows, "second_set": sets[1]}
        print(f"{'workload':<14} {'metric':<12} {'first':>12} {'second':>12} "
              f"{'shift':>8} {'bound':>6}")
        for r in rows:
            print(f"{r['workload']:<14} {r['metric']:<12} {r['first']:>12.5g} "
                  f"{r['second']:>12.5g} {r['shift']:>8.3f} {r['bound']:>6.2f}"
                  f"{'' if r['ok'] else '   OUTSIDE BOUND'}")
        ok = ok and result["repeat_check"]["passed"]
        ok = ok and all(sets[1][n]["failed"] == 0 for n in names)
    out = args.out or OUT_DIR / "ledger.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(result, indent=1) + "\n")
    print(f"wrote {out}")
    return 0 if ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=20,
                    help="how long one run measures (default 20)")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=None,
                    help="run ONE workload: 0 = end-to-end metrics with "
                    "tracing off, 1 = per-layer metrics from a traced run")
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs, 2 ops each")
    ap.add_argument("--runs", type=int, default=1,
                    help="ledger mode: timed runs per workload and set")
    ap.add_argument("--repeat-check", action="store_true",
                    help="ledger mode: run two sets back to back and fail "
                    "if any end-to-end median moves by more than its bound")
    ap.add_argument("--compare", nargs=2, type=Path,
                    metavar=("BASE.json", "NEW.json"))
    ap.add_argument("--out", type=Path, default=None,
                    help="ledger mode: result file (default out/ledger.json)")
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    ap.add_argument("--inject-failure", action="store_true",
                    help=argparse.SUPPRESS)
    ap.add_argument("--supervised", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.compare:
        return compare(*args.compare)
    if args.setup_probe:
        return setup_probe(args)
    if args.trace is not None:
        if not args.workload:
            ap.error("--trace needs --workload")
        if not args.supervised:
            return supervise(sys.argv[1:] if argv is None else argv)
        return run_one(args)
    return run_ledger(args)


if __name__ == "__main__":
    sys.exit(main())
