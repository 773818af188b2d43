"""``repro-sweep``: regenerate the paper's figures.

The one figure command.  A thin front end over :mod:`repro.parallel`:
each figure module already expresses its runs as sweep tasks, so this
command only picks figure ids, a worker count, and cache policy::

    repro-sweep --list                  # every figure id
    repro-sweep fig05 --jobs 4          # fan fig05's runs over 4 processes
    repro-sweep fig05 --jobs 1          # the serial reference path
    repro-sweep all                     # every figure, all cores, cached
    repro-sweep fig11 fig12 --no-cache  # force fresh simulations
    repro-sweep --clear-cache           # drop .repro_cache/

Every worker count prints the same rows as ``--jobs 1``; see
docs/performance.md for the determinism and caching contract.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import Optional, Sequence

__all__ = ["main"]


def _default_jobs() -> int:
    return os.cpu_count() or 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-sweep",
        description=(
            "Regenerate paper figures by fanning their independent "
            "(operating point, seed) runs across worker processes, with a "
            "deterministic on-disk result cache."
        ),
    )
    parser.add_argument(
        "ids",
        nargs="*",
        metavar="FIGURE",
        help="figure ids (e.g. fig05 fig11), or 'all' for every figure",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=_default_jobs(),
        help="worker processes (default: all cores; 1 = serial reference)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="bypass the result cache (neither read nor write it)",
    )
    parser.add_argument(
        "--cache-dir",
        metavar="DIR",
        help="cache location (default: $REPRO_CACHE_DIR or .repro_cache/)",
    )
    parser.add_argument(
        "--list", action="store_true", help="list available figure ids"
    )
    parser.add_argument(
        "--clear-cache",
        action="store_true",
        help="delete the cache tree and exit",
    )
    parser.add_argument(
        "--trace",
        metavar="PATH",
        help=(
            "write merged sweep telemetry — task lifecycle, cache hit/miss, "
            "wall times, plus every task's own captured trace under a "
            "task<i>/ track prefix — as a trace (.jsonl, .prom, or "
            "Perfetto JSON)"
        ),
    )
    parser.add_argument(
        "--trace-light",
        action="store_true",
        help=(
            "with --trace/--health: capture each task under a light tracer "
            "(aggregate counters, decisions, and flow/fleet spans only; "
            "keeps every event-elision fast path alive in the workers)"
        ),
    )
    parser.add_argument(
        "--health",
        action="store_true",
        help=(
            "print a run-health audit from the merged sweep metrics; "
            "implies a light tracer when --trace is not given"
        ),
    )
    parser.add_argument(
        "--profile",
        metavar="PATH",
        help=(
            "sample this process's call stack during the sweep and write a "
            "profile (.json for speedscope, anything else for collapsed "
            "flamegraph stacks); REPRO_PROFILE=PATH does the same"
        ),
    )
    parser.add_argument(
        "--no-fast",
        action="store_true",
        help=(
            "run pathload streams packet by packet instead of the analytic "
            "stream-transit fast path (sets REPRO_NO_FAST for the workers; "
            "bit-identical results, cache entries are shared either way)"
        ),
    )
    parser.add_argument(
        "--no-vector",
        action="store_true",
        help=(
            "merge bulk cross traffic with a Python sort instead of "
            "NumPy and make no idle marks, so the folds walk every cross "
            "arrival (sets REPRO_NO_VECTOR for the workers; bit-identical "
            "results, cache entries are shared either way)"
        ),
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point."""
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.cache_dir:
        # the figure modules resolve the cache root through the environment
        from .parallel import CACHE_DIR_ENV

        os.environ[CACHE_DIR_ENV] = args.cache_dir

    if args.no_fast:
        # Worker processes inherit the environment; the flag never enters
        # cache keys because the two data paths are bit-identical.
        from .netsim.fastpath import NO_FAST_ENV

        os.environ[NO_FAST_ENV] = "1"

    if args.no_vector:
        from .netsim.fastpath import NO_VECTOR_ENV

        os.environ[NO_VECTOR_ENV] = "1"

    if args.clear_cache:
        from .parallel import clear_cache, default_cache_dir

        removed = clear_cache()
        root = default_cache_dir()
        print(f"cache {root}: {'removed' if removed else 'already empty'}")
        return 0

    from .experiments import REGISTRY

    if args.list or not args.ids:
        for key in REGISTRY:
            print(key)
        return 0

    ids = list(REGISTRY) if args.ids == ["all"] else args.ids
    unknown = [i for i in ids if i not in REGISTRY]
    if unknown:
        print(
            f"unknown figure(s): {', '.join(unknown)}; "
            f"available: {', '.join(REGISTRY)}",
            file=sys.stderr,
        )
        return 2
    if args.jobs < 1:
        print(f"--jobs must be >= 1, got {args.jobs}", file=sys.stderr)
        return 2

    tracer = None
    previous = None
    if args.trace or args.health:
        from .obs import Tracer
        from .parallel import set_default_tracer

        # --health alone audits without dissolving any fast path.
        light = args.trace_light or (args.health and not args.trace)
        tracer = Tracer(light=light)
        previous = set_default_tracer(tracer)
    profiler = None
    from .obs.profiler import env_profile_path

    profile_path = args.profile or env_profile_path()
    if profile_path:
        from .obs import Profiler

        profiler = Profiler().start()
    try:
        for key in ids:
            run_fn = REGISTRY[key]
            # Wall-clock here times the *host* executing simulations — the
            # sweep's own cost, never a simulated quantity.
            t0 = time.perf_counter()  # simlint: disable=SIM001 -- host-side sweep timing, outside the simulation
            result = run_fn(jobs=args.jobs, cache=not args.no_cache)
            elapsed = time.perf_counter() - t0  # simlint: disable=SIM001 -- host-side sweep timing, outside the simulation
            result.print_table()
            print(
                f"[{key}] jobs={args.jobs} "
                f"cache={'off' if args.no_cache else 'on'} "
                f"wall={elapsed:.1f}s",
                file=sys.stderr,
            )
    finally:
        if profiler is not None:
            profiler.stop()
            profiler.write(profile_path)
            print(
                f"profile written to {profile_path} "
                f"({len(profiler.samples)} samples)",
                file=sys.stderr,
            )
        if tracer is not None:
            from .parallel import set_default_tracer

            set_default_tracer(previous)
    if tracer is not None and args.trace:
        tracer.write(args.trace)
        print(f"trace written to {args.trace} ({len(tracer.events)} events)",
              file=sys.stderr)
    if args.health and tracer is not None:
        from .obs import health_from_tracer

        print(health_from_tracer(tracer).render_text())
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
