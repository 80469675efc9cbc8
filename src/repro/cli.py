"""Command-line entry point: the push-button mesher.

Examples
--------
Generate a NACA 0012 hybrid mesh and write Triangle-format output::

    repro-mesh --naca 0012 --surface-points 101 -o out/naca0012

Three-element high-lift configuration with custom BL parameters::

    repro-mesh --three-element --first-spacing 1e-3 --growth-ratio 1.25 \\
        --farfield-chords 40 -o out/highlift --format npz

Meshing as a service — start a resident daemon once, then submit many
requests without paying startup/fork per mesh::

    repro-mesh serve --socket /tmp/mesh.sock --backend processes
    repro-mesh submit --socket /tmp/mesh.sock --naca 0012 -o out/naca0012
    repro-mesh submit --socket /tmp/mesh.sock --shutdown
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from .core.bl_pipeline import BoundaryLayerConfig
from .core.pipeline import MeshConfig, generate_mesh
from .geometry.airfoils import naca4, three_element_airfoil
from .geometry.pslg import PSLG
from .io.meshio import read_poly, write_mesh_ascii, write_mesh_npz
from .runtime import executor
from .runtime.counters import timed, use_counters

__all__ = ["main", "build_parser"]

#: argv[0] values routed to the service subcommand parsers; everything
#: else goes through the legacy one-shot parser unchanged.
SERVICE_COMMANDS = ("serve", "submit")


def _add_geometry_arguments(p: argparse.ArgumentParser, *,
                            required: bool = True) -> None:
    geo = p.add_mutually_exclusive_group(required=required)
    geo.add_argument("--naca", metavar="XXXX",
                     help="NACA 4-digit single-element airfoil")
    geo.add_argument("--naca5", metavar="XXXXX",
                     help="NACA 5-digit single-element airfoil (230xx family)")
    geo.add_argument("--joukowski", action="store_true",
                     help="Joukowski airfoil (conformal map, cusped TE)")
    geo.add_argument("--flat-plate", action="store_true",
                     help="thin flat plate (blunt ends)")
    geo.add_argument("--cylinder", action="store_true",
                     help="circular cylinder section")
    geo.add_argument("--three-element", action="store_true",
                     help="synthetic 3-element high-lift configuration")
    geo.add_argument("--poly", metavar="FILE",
                     help="read the input PSLG from a Triangle .poly file")


def _add_mesh_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--surface-points", type=int, default=101,
                   help="surface stations per element (default 101)")
    p.add_argument("--first-spacing", type=float, default=1e-3,
                   help="wall spacing of the first BL layer")
    p.add_argument("--growth-ratio", type=float, default=1.3,
                   help="geometric BL growth ratio")
    p.add_argument("--resample", type=int, metavar="N", default=0,
                   help="curvature-adaptively resample each surface loop "
                   "to N points before meshing")
    p.add_argument("--max-layers", type=int, default=60)
    p.add_argument("--farfield-chords", type=float, default=40.0)
    p.add_argument("--grading", type=float, default=0.35)
    p.add_argument("--subdomains", type=int, default=16,
                   help="decoupled inviscid subdomain count")


def _add_backend_argument(p: argparse.ArgumentParser) -> None:
    p.add_argument("--backend", choices=executor.available_backends(),
                   default="serial",
                   help="refinement executor (default: serial); 'serial' "
                   "is the in-process reference, 'processes' the warm pool "
                   "of worker processes")


def _add_address_arguments(p: argparse.ArgumentParser) -> None:
    where = p.add_mutually_exclusive_group(required=True)
    where.add_argument("--socket", metavar="PATH",
                       help="Unix domain socket path for the service")
    where.add_argument("--tcp", metavar="HOST:PORT",
                       help="localhost TCP endpoint for the service "
                       "(port 0 binds an ephemeral port)")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro-mesh",
        description="Parallel 2D anisotropic Delaunay mesh generator "
        "(ICPP 2016 reproduction)",
        epilog="Subcommands 'repro-mesh serve' and 'repro-mesh submit' run "
        "the meshing-as-a-service daemon and client; see their --help.",
    )
    _add_geometry_arguments(p, required=True)
    _add_mesh_arguments(p)
    _add_backend_argument(p)
    p.add_argument("--ranks", type=int, default=None,
                   help="worker count for the parallel backends "
                   "(default 4); rejected with --backend serial")
    adapt = p.add_argument_group(
        "metric adaptation",
        "solution-driven anisotropic adaptation of the inviscid mesh "
        "(solve potential flow, recover the streamfunction Hessian, "
        "adapt to the resulting metric, repeat)")
    adapt.add_argument("--adapt", action="store_true",
                       help="run metric-driven adaptation cycles after "
                       "meshing (the surface and BL region are protected)")
    adapt.add_argument("--adapt-cycles", type=int, metavar="N", default=2,
                       help="solve->adapt cycles (default 2)")
    adapt.add_argument("--adapt-eps", type=float, default=1e-2,
                       help="target interpolation error for the Hessian "
                       "metric (default 1e-2)")
    adapt.add_argument("--adapt-hmin", type=float, default=None,
                       help="smallest metric spacing (default: "
                       "--first-spacing)")
    adapt.add_argument("--adapt-hmax", type=float, default=None,
                       help="largest metric spacing (default: one chord)")
    adapt.add_argument("--adapt-passes", type=int, default=3,
                       help="local-operation passes per adapt step "
                       "(default 3)")
    p.add_argument("-o", "--output", required=True,
                   help="output base path (no extension)")
    p.add_argument("--format", choices=["ascii", "npz", "vtk", "both"],
                   default="ascii")
    p.add_argument("--report", action="store_true",
                   help="print the mesh analysis report (validation, "
                   "quality, anisotropy)")
    p.add_argument("--stats-json", action="store_true",
                   help="print run statistics as JSON")
    p.add_argument("--profile", action="store_true",
                   help="collect and print kernel/phase counters "
                   "(walk steps, cavity sizes, predicate escalations)")
    return p


def build_serve_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro-mesh serve",
        description="Run the resident meshing service: one warm executor "
        "pool and a content-addressed mesh cache shared across requests",
    )
    _add_address_arguments(p)
    _add_backend_argument(p)
    p.add_argument("--ranks", type=int, default=None,
                   help="worker pool size: cache misses meshed at once "
                   "(default 4)")
    p.add_argument("--cache-entries", type=int, default=256,
                   help="content-addressed mesh cache capacity (default 256)")
    p.add_argument("--stats-json", action="store_true",
                   help="print the service counter snapshot as JSON on exit")
    return p


def build_submit_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro-mesh submit",
        description="Submit one mesh request to a running repro-mesh "
        "service (or --ping / --shutdown it)",
    )
    _add_address_arguments(p)
    _add_geometry_arguments(p, required=False)
    _add_mesh_arguments(p)
    p.add_argument("--ping", action="store_true",
                   help="round-trip a ping frame and print the RTT")
    p.add_argument("--shutdown", action="store_true",
                   help="ask the service to shut down gracefully "
                   "(after the mesh request, when one is given)")
    p.add_argument("--server-stats", action="store_true",
                   help="print the service's counter snapshot as JSON")
    p.add_argument("--timeout", type=float, metavar="SECONDS", default=300.0,
                   help="socket timeout for the request (default 300s)")
    p.add_argument("--connect-retries", type=int, default=0,
                   help="retry the initial connect this many times at "
                   "0.1s intervals (for scripted startup races)")
    p.add_argument("-o", "--output", default=None,
                   help="output base path (no extension); required when "
                   "submitting a geometry")
    p.add_argument("--format", choices=["ascii", "npz", "vtk", "both"],
                   default="ascii")
    p.add_argument("--stats-json", action="store_true",
                   help="print the reply summary as JSON")
    return p


def _load_geometry(parser: argparse.ArgumentParser,
                   args: argparse.Namespace) -> PSLG:
    """The PSLG the geometry flags name; a ``--poly`` file that cannot
    be read is a usage error."""
    from .geometry.airfoils import circle, flat_plate, joukowski, naca5
    from .geometry.resample import resample_curvature

    if args.naca:
        pslg = PSLG.from_loops([naca4(args.naca, args.surface_points)],
                               names=[f"naca{args.naca}"])
    elif args.naca5:
        pslg = PSLG.from_loops([naca5(args.naca5, args.surface_points)],
                               names=[f"naca{args.naca5}"])
    elif args.joukowski:
        pslg = PSLG.from_loops([joukowski(args.surface_points)],
                               names=["joukowski"])
    elif args.flat_plate:
        pslg = PSLG.from_loops([flat_plate(args.surface_points)],
                               names=["plate"])
    elif args.cylinder:
        pslg = PSLG.from_loops([circle(args.surface_points)],
                               names=["cylinder"])
    elif args.three_element:
        pslg = three_element_airfoil(n_points=args.surface_points)
    else:
        try:
            pslg, _holes = read_poly(args.poly)
        except (OSError, ValueError) as exc:
            parser.error(f"--poly: {exc}")
    if args.resample:
        loops = [
            resample_curvature(pslg.loop_points(lp), args.resample,
                               strength=2.0)
            for lp in pslg.loops
        ]
        pslg = PSLG.from_loops(loops, names=[lp.name for lp in pslg.loops],
                               is_body=[lp.is_body for lp in pslg.loops])
    return pslg


#: the flag each config field or service setting the parsers set
#: comes from.
_FLAGS = {
    "first_spacing": "--first-spacing",
    "growth_ratio": "--growth-ratio",
    "max_layers": "--max-layers",
    "farfield_chords": "--farfield-chords",
    "grading": "--grading",
    "target_subdomains": "--subdomains",
    "n_ranks": "--ranks",
    "cache_entries": "--cache-entries",
}


def _flag_error(parser: argparse.ArgumentParser, exc: ValueError):
    """Re-raise ``exc`` as a usage error naming the flag of the config
    field or service setting its message starts with; any other error
    propagates."""
    field, _, rest = str(exc).partition(" ")
    if field not in _FLAGS:
        raise exc
    parser.error(f"{_FLAGS[field]} {rest}")


def _config_from_args(parser: argparse.ArgumentParser,
                      args: argparse.Namespace) -> MeshConfig:
    """The mesh request of the flags; a value the config rejects (not
    finite, or out of its range) is a usage error naming its flag."""
    try:
        return MeshConfig(
            bl=BoundaryLayerConfig(
                first_spacing=args.first_spacing,
                growth_ratio=args.growth_ratio,
                max_layers=args.max_layers,
            ),
            farfield_chords=args.farfield_chords,
            grading=args.grading,
            target_subdomains=args.subdomains,
        )
    except ValueError as exc:
        _flag_error(parser, exc)


def _write_mesh_outputs(args: argparse.Namespace, mesh) -> list:
    out = Path(args.output)
    out.parent.mkdir(parents=True, exist_ok=True)
    written = []
    if args.format in ("ascii", "both"):
        written.extend(str(x) for x in write_mesh_ascii(out, mesh))
    if args.format in ("npz", "both"):
        written.append(str(write_mesh_npz(out.with_suffix(".npz"), mesh)))
    if args.format == "vtk":
        from .io.meshio import write_vtk

        written.append(str(write_vtk(out.with_suffix(".vtk"), mesh)))
    return written


def _run_adaptation(pslg: PSLG, mesh, args: argparse.Namespace,
                    backend: str) -> tuple:
    """Metric-adaptation cycles on the final mesh -> (mesh, summary).

    Sensor: the potential-flow streamfunction.  Each cycle solves the
    flow, recovers the Hessian metric, limits its gradation, and
    dispatches one packed adapt work item through the selected executor
    backend (serde round trips are exact, so the backend cannot change
    the result).  Body surfaces are constrained segments and protected
    from splitting, so the geometry never degrades.
    """
    from .metric import MetricField
    from .solver.adapt import adapt_step
    from .solver.flow import solve_potential_flow

    body_loops = [pslg.loop_points(lp) for lp in pslg.body_loops]
    h_min, h_max = args.adapt_hmin, args.adapt_hmax
    cycles = []
    for _ in range(args.adapt_cycles):
        flow = solve_potential_flow(mesh, body_loops)
        metric = MetricField.from_hessian(mesh, flow.psi,
                                          eps=args.adapt_eps,
                                          h_min=h_min, h_max=h_max)
        metric = metric.limit_gradation(mesh.edges(), grading=args.grading)
        mesh, report = adapt_step(mesh, metric,
                                  max_passes=args.adapt_passes,
                                  protect_segments=True, backend=backend)
        cycles.append(report.to_dict())
    summary = {
        "cycles": len(cycles),
        "eps": args.adapt_eps,
        "h_min": h_min,
        "h_max": h_max,
        "reports": cycles,
        "splits": sum(c["splits"] for c in cycles),
        "collapses": sum(c["collapses"] for c in cycles),
        "flips": sum(c["flips"] for c in cycles),
        "smooth_moves": sum(c["smooth_moves"] for c in cycles),
        "flip_evaluations": sum(c["flip_evaluations"] for c in cycles),
        "flip_sweeps": sum(c["flip_sweeps"] for c in cycles),
        "conformity": cycles[-1]["conformity_after"],
    }
    return mesh, summary


def _check_adaptation(parser: argparse.ArgumentParser,
                      args: argparse.Namespace) -> None:
    """Resolve the default metric spacings (``--first-spacing`` and one
    chord) into ``args`` and reject adaptation settings that no metric
    or loop can use, before anything is meshed."""
    hmin_flag = ("--adapt-hmin" if args.adapt_hmin is not None
                 else "--adapt-hmin (default: --first-spacing)")
    if args.adapt_hmin is None:
        args.adapt_hmin = args.first_spacing
    if args.adapt_hmax is None:
        args.adapt_hmax = 1.0
    for flag, value in (("--adapt-eps", args.adapt_eps),
                        (hmin_flag, args.adapt_hmin),
                        ("--adapt-hmax", args.adapt_hmax)):
        if not (math.isfinite(value) and value > 0):
            parser.error(f"{flag} must be a finite number > 0, "
                         f"got {value}")
    if args.adapt_hmin > args.adapt_hmax:
        parser.error(f"{hmin_flag} = {args.adapt_hmin} exceeds "
                     f"--adapt-hmax = {args.adapt_hmax}")
    for flag, value in (("--adapt-passes", args.adapt_passes),
                        ("--adapt-cycles", args.adapt_cycles)):
        if value < 1:
            parser.error(f"{flag} must be at least 1, got {value}")


def _service_address(parser: argparse.ArgumentParser,
                     args: argparse.Namespace) -> str:
    """The endpoint of ``--socket``/``--tcp``; a malformed one is a
    usage error."""
    from .runtime.service import ServiceError, parse_address

    spec = (f"unix:{args.socket}" if args.socket is not None
            else f"tcp:{args.tcp}")
    try:
        parse_address(spec)
    except ServiceError as exc:
        parser.error(str(exc))
    return spec


def _serve_main(argv) -> int:
    import asyncio

    from .runtime.service import MeshService

    parser = build_serve_parser()
    args = parser.parse_args(argv)
    parallel = executor.get_backend(args.backend).parallel
    if args.ranks is not None and not parallel:
        parser.error(
            f"--ranks only applies to parallel backends; --backend "
            f"{args.backend} runs in-process")
    try:
        service = MeshService(
            _service_address(parser, args),
            backend=args.backend,
            n_ranks=args.ranks if args.ranks is not None else 4,
            cache_entries=args.cache_entries,
        )
    except ValueError as exc:
        _flag_error(parser, exc)

    async def _run() -> None:
        await service.start()
        print(f"repro-mesh service on {service.endpoint} "
              f"(backend={service.backend_name})", flush=True)
        try:
            await service.serve_forever()
        except asyncio.CancelledError:
            # ^C cancels the main task; shut down on the same loop so
            # in-flight misses abort through the pool's epoch fence.
            await service.shutdown()
            raise

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:
        pass
    if args.stats_json:
        print(json.dumps(service.stats(), indent=2))
    return 0


def _submit_main(argv) -> int:
    """``repro-mesh submit``; a daemon that cannot be reached, an
    ``err`` reply or a timeout is one line on stderr and exit 1."""
    from .runtime.client import ServiceClient
    from .runtime.service import ServiceError

    parser = build_submit_parser()
    args = parser.parse_args(argv)
    has_geometry = bool(args.naca or args.naca5 or args.joukowski
                        or args.flat_plate or args.cylinder
                        or args.three_element or args.poly)
    if not (has_geometry or args.ping or args.shutdown or args.server_stats):
        parser.error("nothing to do: give a geometry, --ping, "
                     "--server-stats or --shutdown")
    if has_geometry and args.output is None:
        parser.error("-o/--output is required when submitting a geometry")
    config = _config_from_args(parser, args)
    pslg = _load_geometry(parser, args) if has_geometry else None
    address = _service_address(parser, args)
    summary = {}
    try:
        client = ServiceClient(address, timeout=args.timeout,
                               connect_retries=max(args.connect_retries, 0))
    except ServiceError as exc:
        return _submit_error(exc)
    try:
        if args.ping:
            summary["ping_rtt_s"] = round(client.ping(), 6)
        if has_geometry:
            reply = client.submit(pslg, config)
            written = _write_mesh_outputs(args, reply.mesh)
            summary.update({
                "cached": reply.cached,
                "key": reply.key,
                "elapsed_s": round(reply.elapsed_s, 6),
                "n_points": reply.mesh.n_points,
                "n_triangles": reply.mesh.n_triangles,
                "outputs": written,
            })
        if args.server_stats:
            summary["server"] = client.stats()
        if args.shutdown:
            client.shutdown_server()
            summary["shutdown"] = True
    except TimeoutError:
        return _submit_error(f"no reply from {address} within "
                             f"--timeout {args.timeout}s")
    except (ServiceError, OSError) as exc:
        return _submit_error(exc)
    finally:
        client.close()
    if args.stats_json:
        print(json.dumps(summary, indent=2))
    else:
        if "ping_rtt_s" in summary:
            print(f"pong in {summary['ping_rtt_s']}s")
        if "n_triangles" in summary:
            source = "cache" if summary["cached"] else "meshed"
            print(f"mesh: {summary['n_triangles']} triangles, "
                  f"{summary['n_points']} points in "
                  f"{summary['elapsed_s']}s ({source})")
            for path in summary["outputs"]:
                print(f"wrote {path}")
        if "server" in summary:
            print(json.dumps(summary["server"], indent=2))
        if summary.get("shutdown"):
            print("service shut down")
    return 0


def _submit_error(message) -> int:
    print(f"repro-mesh submit: error: {message}", file=sys.stderr)
    return 1


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv and argv[0] == "serve":
        return _serve_main(argv[1:])
    if argv and argv[0] == "submit":
        return _submit_main(argv[1:])
    parser = build_parser()
    args = parser.parse_args(argv)
    backend = args.backend
    if args.ranks is not None and not executor.get_backend(backend).parallel:
        parser.error(
            f"--ranks only applies to parallel backends; --backend "
            f"{backend} runs in-process (drop --ranks or pick one of: "
            + ", ".join(sorted(n for n in executor.available_backends()
                               if executor.get_backend(n).parallel)) + ")")
    if args.adapt:
        _check_adaptation(parser, args)
    n_ranks = args.ranks if args.ranks is not None else 4
    config = _config_from_args(parser, args)
    pslg = _load_geometry(parser, args)
    # Worker counter snapshots (including from the processes backend's
    # separate address spaces) merge into this sink; it stays installed
    # over the adaptation stage.
    with (use_counters() if args.profile
          else contextlib.nullcontext()) as profile_sink:
        with timed("total") as tm:
            try:
                result = generate_mesh(pslg, config, backend=backend,
                                       n_ranks=n_ranks)
            except ValueError as exc:  # a far field too small
                _flag_error(parser, exc)
        elapsed = tm.elapsed

        adapt_summary = None
        final_mesh = result.mesh
        if args.adapt:
            with timed("adapt") as tma:
                final_mesh, adapt_summary = _run_adaptation(
                    pslg, final_mesh, args, backend)
            adapt_summary["elapsed_s"] = round(tma.elapsed, 3)

    written = _write_mesh_outputs(args, final_mesh)
    if args.report:
        from .analysis.report import mesh_report

        surface = np.vstack([
            pslg.loop_points(lp) for lp in pslg.body_loops
        ])
        print(mesh_report(final_mesh, surface=surface))

    summary = {
        "backend": backend,
        "n_ranks": n_ranks,
        "elapsed_s": round(elapsed, 3),
        "n_points": final_mesh.n_points,
        "n_triangles": final_mesh.n_triangles,
        "n_bl_triangles": int(result.stats["n_bl_triangles"]),
        "n_subdomains": int(result.stats["n_subdomains"]),
        "min_angle_deg": round(
            float(np.degrees(final_mesh.min_angle())), 3),
        "outputs": written,
        "timings": {k: round(v, 3) for k, v in result.timings.items()},
    }
    if adapt_summary is not None:
        summary["adapt"] = adapt_summary
    if profile_sink is not None:
        print(profile_sink.report())
    if args.stats_json:
        if profile_sink is not None:
            summary["profile"] = profile_sink.as_dict()
        print(json.dumps(summary, indent=2))
    else:
        print(f"mesh: {summary['n_triangles']} triangles, "
              f"{summary['n_points']} points in {summary['elapsed_s']}s")
        if adapt_summary is not None:
            print(f"adapt: {adapt_summary['cycles']} cycles, "
                  f"{adapt_summary['splits']} splits / "
                  f"{adapt_summary['collapses']} collapses / "
                  f"{adapt_summary['flips']} flips, "
                  f"conformity {adapt_summary['conformity']:.3f} "
                  f"in {adapt_summary['elapsed_s']}s")
        for path in written:
            print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
