"""Command-line interface: ``repro-pathload measure``.

Runs one pathload measurement over a synthetic path (capacity,
utilization and hops are flags) and prints the report — the simulated
equivalent of running the original tool against a host pair.  The
paper's figures are regenerated by ``repro-sweep``
(:mod:`repro.sweep_cli`).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional, Sequence

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-pathload",
        description=(
            "Reproduction of Jain & Dovrolis (SIGCOMM 2002): SLoPS/pathload "
            "available-bandwidth measurement over a built-in network simulator."
        ),
    )
    sub = parser.add_subparsers(dest="command")

    measure = sub.add_parser(
        "measure", help="measure avail-bw on a synthetic path"
    )
    measure.add_argument(
        "--capacity-mbps", type=float, default=10.0, help="tight link capacity"
    )
    measure.add_argument(
        "--utilization", type=float, default=0.6, help="tight link utilization [0,1)"
    )
    measure.add_argument(
        "--hops", type=int, default=1, help="path length (1 = single hop)"
    )
    measure.add_argument("--seed", type=int, default=1, help="RNG seed")
    measure.add_argument(
        "--traffic",
        choices=("pareto", "poisson", "cbr"),
        default="pareto",
        help="cross-traffic model",
    )
    measure.add_argument(
        "--output",
        metavar="FILE",
        help="also write the full report (fleets, verdicts) as JSON",
    )
    measure.add_argument(
        "--paper-idle",
        action="store_true",
        help=(
            "use the tool's full interstream idle (9 stream durations, the "
            "non-intrusiveness setting) instead of the faster 1x idle"
        ),
    )
    measure.add_argument(
        "--buffer-kb",
        type=float,
        default=None,
        metavar="KB",
        help=(
            "tight-link buffer in kilobytes (default: unbounded; finite "
            "buffers make probe drops visible in --trace output)"
        ),
    )
    measure.add_argument(
        "--trace",
        metavar="PATH",
        help=(
            "write a deterministic sim-time trace of the run (.jsonl for "
            "the repro-trace format, .prom for a metrics snapshot, "
            "anything else for Perfetto JSON)"
        ),
    )
    measure.add_argument(
        "--trace-light",
        action="store_true",
        help=(
            "with --trace/--health: use a light tracer that records only "
            "aggregate counters, fleet decisions, and flow/fleet spans — "
            "keeps every event-elision fast path alive (full tracers "
            "dissolve TCP flow transit onto the per-packet path)"
        ),
    )
    measure.add_argument(
        "--health",
        action="store_true",
        help=(
            "print a run-health audit (packet-path fractions, fast-path "
            "fallback reasons, per-link drops) after the measurement; "
            "implies a light tracer when --trace is not given"
        ),
    )
    measure.add_argument(
        "--profile",
        metavar="PATH",
        help=(
            "sample the host-side call stack during the run and write a "
            "profile (.json for speedscope, anything else for collapsed "
            "flamegraph stacks); REPRO_PROFILE=PATH does the same"
        ),
    )
    measure.add_argument(
        "--no-fast",
        action="store_true",
        help=(
            "disable the analytic stream-transit fast path and send probe "
            "streams packet by packet (results are bit-identical; this "
            "only trades speed for an event-per-packet run)"
        ),
    )
    measure.add_argument(
        "--no-vector",
        action="store_true",
        help=(
            "merge bulk cross traffic with a Python sort instead of "
            "NumPy and make no idle marks, so the folds walk every cross "
            "arrival (sets REPRO_NO_VECTOR; results are bit-identical)"
        ),
    )

    return parser


def _cmd_measure(args: argparse.Namespace) -> int:
    from .core.config import PathloadConfig
    from .netsim.topologies import Fig4Config
    from .runner import measure_avail_bw_sim, measure_fig4_path

    capacity = args.capacity_mbps * 1e6
    truth = capacity * (1 - args.utilization)
    config = PathloadConfig(idle_factor=9.0 if args.paper_idle else 1.0)
    tracer = None
    if args.trace or args.health:
        from .obs import Tracer

        # --health alone audits without perturbing the run: light capture
        # keeps every event-elision fast path eligible.
        light = args.trace_light or (args.health and not args.trace)
        tracer = Tracer(light=light)
    profiler, profile_path = _make_profiler(args)
    buffer_bytes = int(args.buffer_kb * 1000) if args.buffer_kb else None
    fast = False if args.no_fast else None
    if args.no_vector:
        from .netsim.fastpath import NO_VECTOR_ENV

        os.environ[NO_VECTOR_ENV] = "1"
    try:
        if args.hops <= 1:
            report = measure_avail_bw_sim(
                capacity_bps=capacity,
                utilization=args.utilization,
                seed=args.seed,
                traffic_model=args.traffic,
                config=config,
                buffer_bytes=buffer_bytes,
                tracer=tracer,
                fast=fast,
            )
        else:
            cfg = Fig4Config(
                hops=args.hops,
                tight_capacity_bps=capacity,
                tight_utilization=args.utilization,
                traffic_model=args.traffic,
                buffer_bytes=buffer_bytes,
            )
            report, _setup = measure_fig4_path(
                cfg, seed=args.seed, config=config, tracer=tracer, fast=fast
            )
    finally:
        _finish_profiler(profiler, profile_path)
    print(
        f"avail-bw range: [{report.low_bps / 1e6:.2f}, "
        f"{report.high_bps / 1e6:.2f}] Mb/s (true average {truth / 1e6:.2f})"
    )
    print(
        f"termination={report.termination} fleets={len(report.fleets)} "
        f"streams={report.n_streams_sent} latency={report.duration:.1f}s"
    )
    if args.output:
        from .core.report_io import dump_report

        dump_report(report, args.output)
        print(f"report written to {args.output}")
    if tracer is not None and args.trace:
        tracer.write(args.trace)
        print(
            f"trace written to {args.trace} "
            f"({len(tracer.events)} events, {len(tracer.decisions)} fleet decisions)"
        )
    if args.health:
        from .obs import health_from_tracer

        print(health_from_tracer(tracer).render_text())
    return 0


def _make_profiler(args: argparse.Namespace):
    """(started Profiler or None, output path) from --profile/REPRO_PROFILE."""
    from .obs.profiler import env_profile_path

    profile_path = args.profile or env_profile_path()
    if not profile_path:
        return None, None
    from .obs import Profiler

    return Profiler().start(), profile_path


def _finish_profiler(profiler, profile_path: Optional[str]) -> None:
    if profiler is None:
        return
    profiler.stop()
    profiler.write(profile_path)
    print(
        f"profile written to {profile_path} ({len(profiler.samples)} samples)"
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "measure":
        return _cmd_measure(args)
    parser.print_help()
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
