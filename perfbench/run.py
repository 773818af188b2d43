"""Figure-family benchmark of the pathload reproduction.

Run from the root of a checkout::

    python3 perfbench/run.py --workload fig05-multihop --seed 1 --seconds 25 --trace 0

Every workload runs in this one process through ``run_sweep(jobs=1,
cache=False)``, so the numbers measure the simulator, not the process pool
or the result cache.  ``--trace 0`` is the timed run: it prints every
end-to-end metric.  ``--trace 1`` is the traced run: a fixed list of tasks,
once untraced and once with span wrappers (:mod:`perfbench.layers`), a
light ``Tracer`` and the sampling ``Profiler``; it prints every per-layer
metric.  Both runs re-check a few tasks under ``REPRO_NO_FAST=1`` and
``REPRO_NO_VECTOR=1``: outputs must be ``==`` to the default layout's.

Every time metric is scaled to the reference host by the run's own
host-speed blocks (:mod:`perfbench.hostspeed`), timed after each task and
around each set-up; the raw host times are printed beside the result.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Each run also
appends its record to ``.perfbench/results.jsonl``, the input of
``perfbench/compare.py``.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from perfbench import hostspeed  # noqa: E402

#: Host-speed blocks timed before and again after each set-up to scale it.
SETUP_BLOCKS = 10

_PRE_SETUP_BLOCKS = [hostspeed.block() for _ in range(SETUP_BLOCKS)]
_T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402

SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")

#: Set-up is measured in this process and in this many child processes;
#: ``setup_s`` is the median.
SETUP_CHILDREN = 4

#: Environment that would change what or how the program runs.
_CLEARED_ENV = (
    "REPRO_NO_FAST",
    "REPRO_NO_VECTOR",
    "REPRO_SCHEDULER",
    "REPRO_PROFILE",
    "REPRO_FULL",
)


def _log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def _setup(name: str):
    """Imports, kernel self-check and one warm-up task (fixed input)."""
    from perfbench.workloads import WARMUP_SEED, WORKLOADS
    from repro.netsim import kernels
    from repro.parallel import run_sweep, sweep_values

    if name not in WORKLOADS:
        raise SystemExit(f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[name]
    kernels.enabled()
    sweep_values(run_sweep([workload.task(WARMUP_SEED, 0)], jobs=1, cache=False))
    return workload


def _scaled_setup() -> tuple[float, float]:
    """(host seconds of this process's set-up, the same scaled to the
    reference host by the blocks timed right before and right after)."""
    raw = time.perf_counter() - _T_START
    blocks = _PRE_SETUP_BLOCKS + [hostspeed.block() for _ in range(SETUP_BLOCKS)]
    return raw, raw * hostspeed.scale(blocks)


def _child_setup(name: str) -> tuple[float, float]:
    """(raw, scaled) set-up time of a fresh process, measured by that
    process."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", name, "--setup-only"],
        capture_output=True,
        text=True,
        timeout=120,
        cwd=ROOT,
        check=True,
    )
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    return float(record["raw_s"]), float(record["setup_s"])


def _reset_peak_rss() -> None:
    """Restart this process's resident-set high-water mark (Linux).  Where
    the kernel refuses, the mark keeps counting from the process start."""
    try:
        with open("/proc/self/clear_refs", "w") as fh:
            fh.write("5")
    except OSError:
        pass


def _peak_rss_mb() -> float:
    """This process's resident-set high-water mark since the last reset."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class _Pass:
    """Host timings of tasks run one ``run_sweep`` call each.

    Outputs are kept only where the caller asks: a loop holding hundreds
    of full pathload reports would slow later tasks through the garbage
    collector and inflate the memory high-water.
    """

    def __init__(self) -> None:
        self.outputs: list = []
        #: task host seconds, as ``run_sweep`` measures them
        self.walls: list[float] = []
        #: host seconds of each ``run_sweep`` call
        self.calls: list[float] = []
        #: host seconds of the host-speed blocks timed after tasks
        self.blocks: list[float] = []
        #: resident-set high-water mark of each task with a block, MB
        self.peaks_mb: list[float] = []
        self.errors = 0
        self.overhead_s = 0.0
        self.elapsed_s = 0.0
        self.hits = 0
        self.scored = 0

    def run(
        self, task, keep: bool = True, score: bool = False, tracer=None, reference: bool = False
    ) -> None:
        from perfbench.workloads import score_truth
        from repro.parallel import run_sweep

        if reference:
            _reset_peak_rss()
        t0 = time.perf_counter()
        (outcome,) = run_sweep([task], jobs=1, cache=False, tracer=tracer)
        call_s = time.perf_counter() - t0
        if reference:
            self.peaks_mb.append(_peak_rss_mb())
        self.calls.append(call_s)
        self.overhead_s += call_s - outcome.wall_s
        self.walls.append(outcome.wall_s)
        if not outcome.ok:
            self.errors += 1
            _log(f"task {len(self.walls) - 1} raised:\n{outcome.error}")
        elif score:
            hits, scored = score_truth(outcome.value)
            self.hits += hits
            self.scored += scored
        if keep:
            self.outputs.append(outcome.value if outcome.ok else None)
        if reference:
            self.blocks.append(hostspeed.block())

    def scale(self) -> float:
        """Host seconds -> reference-host seconds, from all this pass's
        blocks."""
        return hostspeed.scale(self.blocks)

    def scaled(self, times: list[float]) -> list[float]:
        """Per-task host ``times`` in reference-host seconds, each scaled
        by the blocks timed nearest to it."""
        return [t * f for t, f in zip(times, hostspeed.scales(self.blocks))]


def _timed_loop(workload, seed: int, seconds: float) -> _Pass:
    """Run whole rounds of tasks 0, 1, 2, ... for ``seconds`` (at least
    ``min_tasks``), with a host-speed block after each task.

    Keeps the outputs of the tasks the layout check re-runs and scores
    accuracy over the first ``min_tasks``, so it repeats for a seed.
    """
    result = _Pass()
    start = time.perf_counter()
    deadline = start + seconds
    i = 0
    while i < workload.min_tasks or time.perf_counter() < deadline:
        for _ in range(workload.points):
            result.run(
                workload.task(seed, i),
                keep=i < workload.check_tasks,
                score=i < workload.min_tasks,
                reference=True,
            )
            i += 1
    result.elapsed_s = time.perf_counter() - start
    return result


def _round_rate(calls: list[float], points: int) -> float:
    """Median over rounds of tasks per host second.

    Every round runs each operating point once, so rounds are alike and
    their median is not moved by a round the host slowed down.
    """
    rounds = [sum(calls[k : k + points]) for k in range(0, len(calls), points)]
    return points / statistics.median(rounds)


def _check_layouts(workload, seed: int, reference: _Pass) -> tuple[int, dict]:
    """Re-run the first ``check_tasks`` tasks under each alternative layout.

    Returns the number of tasks whose output raised or differed, and the
    layout ratios (alternative host time / default host time, same tasks).
    """
    from perfbench.workloads import same

    n = workload.check_tasks
    base = sum(reference.walls[:n])
    bad: set[int] = set()
    gains = {}
    for label, env in (("fastpath", "REPRO_NO_FAST"), ("kernels", "REPRO_NO_VECTOR")):
        rerun = _Pass()
        os.environ[env] = "1"
        try:
            for i in range(n):
                rerun.run(workload.task(seed, i))
        finally:
            del os.environ[env]
        for i in range(n):
            if reference.outputs[i] is None:
                continue  # already counted as raised
            if not same(rerun.outputs[i], reference.outputs[i]):
                bad.add(i)
                _log(f"task {i}: output under {env}=1 differs from the default layout")
        gains[label] = sum(rerun.walls) / base
    return len(bad), gains


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def timed_run(workload, seed: int, seconds: float, setup_s: float) -> tuple[dict, dict]:
    """The ``--trace 0`` run: returns (result object, extra report fields)."""
    loop = _timed_loop(workload, seed, seconds)
    mismatched, _gains = _check_layouts(workload, seed, loop)
    n = len(loop.walls)
    walls = sorted(loop.scaled(loop.walls))
    host_walls = sorted(loop.walls)
    # The percentile that leaves ten tasks beyond it in ``min_tasks``
    # tasks, which every run completes: at least ten lie beyond it in any
    # run, and it does not move with the number of tasks a host finished.
    tail_rank = max(0, int((1.0 - 11 / workload.min_tasks) * (n - 1)))
    failed = loop.errors + mismatched
    metrics = {
        "task_s.p50": _metric(statistics.median(walls), "s"),
        "task_s.tail": _metric(walls[tail_rank], "s"),
        "tasks_per_s": _metric(_round_rate(loop.scaled(loop.calls), workload.points), "1/s"),
        "setup_s": _metric(setup_s, "s"),
        "peak_rss_mb": _metric(statistics.median(loop.peaks_mb), "MB"),
        "truth_hit_frac": _metric(_frac(loop.hits, loop.scored), "ratio"),
    }
    extra = {
        "tasks": n,
        "loop_s": loop.elapsed_s,
        "tail_percentile": 100.0 * (tail_rank + 1) / n,
        "host_scale": loop.scale(),
        "process_peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "host_task_s.p50": statistics.median(host_walls),
        "host_task_s.tail": host_walls[tail_rank],
        "host_tasks_per_s": _round_rate(loop.calls, workload.points),
        "failed_frac": failed / n,
        "checked_tasks": workload.check_tasks,
        "scored_tasks": workload.min_tasks,
    }
    result = {"correct": failed == 0, "attempted": n, "failed": failed, "metrics": metrics}
    return result, extra


def _sum_health(healths) -> dict:
    """Fold per-task ``RunHealth`` reports into totals."""
    links_dropped = sum(
        row["packets_dropped"] for h in healths for row in h.links.values()
    )
    links_offered = links_dropped + sum(
        row["packets_forwarded"] for h in healths for row in h.links.values()
    )
    return {
        "engine_events": sum(h.engine_events for h in healths),
        "heap_high_water": max((h.heap_high_water for h in healths), default=0),
        "streams_fast": sum(h.streams_fast for h in healths),
        "stream_fallbacks": sum(sum(h.stream_fallbacks.values()) for h in healths),
        "flows_planned": sum(h.flows_planned for h in healths),
        "flow_fallbacks": sum(sum(h.flow_fallbacks.values()) for h in healths),
        "kernel_calls": sum(sum(h.kernel_calls.values()) for h in healths),
        "kernel_declines": sum(sum(h.kernel_declines.values()) for h in healths),
        "probe_packets": sum(h.probe_packets_total for h in healths),
        "probe_elided": sum(h.probe_packets_elided for h in healths),
        "cache_hits": sum(h.cache_hits for h in healths),
        "drop_frac": links_dropped / links_offered if links_offered else 0.0,
    }


def _frac(part, whole) -> float:
    return part / whole if whole else 0.0


def traced_run(workload, seed: int, label: str) -> tuple[dict, dict]:
    """The ``--trace 1`` run over the workload's fixed task list."""
    from perfbench.layers import PER_LAYER, Instrumentation, layer_shares
    from perfbench.workloads import same as same_output
    from repro.obs import Profiler, Tracer
    from repro.obs.health import health_from_tracer

    k = workload.traced_tasks
    tasks = [workload.task(seed, i) for i in range(k)]
    plain = _Pass()
    for task in tasks:
        plain.run(task, reference=True)
    scale = plain.scale()

    traced = _Pass()
    healths = []
    profiler = Profiler()
    with Instrumentation() as inst:
        profiler.start()
        try:
            for i, task in enumerate(tasks):
                inst.task = i
                tracer = Tracer(light=True)
                traced.run(task, tracer=tracer)
                healths.append(health_from_tracer(tracer))
        finally:
            profiler.stop()
    restored = inst.restored()
    same = all(map(same_output, traced.outputs, plain.outputs))
    if not restored:
        _log("instrumentation left a patched attribute behind")
    if not same:
        _log("traced outputs differ from untraced outputs")
    mismatched, gains = _check_layouts(workload, seed, plain)

    h = _sum_health(healths)
    shares = layer_shares(profiler.samples)
    reports = [r for out in plain.outputs if out is not None for r in out["reports"]]
    counts = {
        key: sum(out["counts"][key] for out in plain.outputs if out is not None)
        for key in ("cross_packets", "tcp_segments", "retransmits", "timeouts")
    }
    failed = plain.errors + traced.errors + mismatched
    values = {
        "engine.events": h["engine_events"] / k,
        "engine.heap_high_water": h["heap_high_water"],
        "engine.self_s": inst.self_s["engine"] / k * scale,
        "engine.share": shares.get("engine", 0.0),
        "crosstraffic.packets": counts["cross_packets"] / k,
        "crosstraffic.extend_s": inst.self_s["crosstraffic.extend"] / k * scale,
        "crosstraffic.share": shares.get("crosstraffic", 0.0),
        "link.sync_calls": inst.calls["link.sync"] / k,
        "link.sync_s": inst.self_s["link.sync"] / k * scale,
        "link.send_calls": inst.calls["link.send"] / k,
        "link.send_s": inst.self_s["link.send"] / k * scale,
        "link.drop_frac": h["drop_frac"],
        "link.share": shares.get("link", 0.0),
        "streamtransit.plan_calls": inst.calls["streamtransit.plan"] / k,
        "streamtransit.plan_s": inst.self_s["streamtransit.plan"] / k * scale,
        "streamtransit.engaged_frac": _frac(
            h["streams_fast"], h["streams_fast"] + h["stream_fallbacks"]
        ),
        "streamtransit.share": shares.get("streamtransit", 0.0),
        "flowtransit.flows_planned": h["flows_planned"] / k,
        "flowtransit.fallbacks": h["flow_fallbacks"] / k,
        "flowtransit.share": shares.get("flowtransit", 0.0),
        "kernels.calls": h["kernel_calls"] / k,
        "kernels.declines": h["kernel_declines"] / k,
        "kernels.engaged_frac": _frac(
            h["kernel_calls"], h["kernel_calls"] + h["kernel_declines"]
        ),
        "kernels.self_s": inst.self_s["kernels"] / k * scale,
        "kernels.layout_gain": gains["kernels"],
        "transport.probe_packets": h["probe_packets"] / k,
        "transport.probe_elided_frac": _frac(h["probe_elided"], h["probe_packets"]),
        "transport.tcp_segments": counts["tcp_segments"] / k,
        "transport.retransmits": counts["retransmits"] / k,
        "transport.timeouts": counts["timeouts"] / k,
        "core.streams_per_run": _frac(sum(r.n_streams_sent for r in reports), len(reports)),
        "core.fleets_per_run": _frac(sum(len(r.fleets) for r in reports), len(reports)),
        "core.sim_s_per_run": _frac(sum(r.duration for r in reports), len(reports)),
        "core.classify_s": inst.self_s["core.classify"] / k * scale,
        "core.adjust_s": inst.self_s["core.adjust"] / k * scale,
        "parallel.overhead_s": plain.overhead_s / k * scale,
        "parallel.cache_hits": h["cache_hits"],
        "obs.trace_overhead": sum(traced.walls) / sum(plain.walls),
        "fastpath.layout_gain": gains["fastpath"],
        "failed_frac": failed / (2 * k),
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    inst.write_spans(os.path.join(OUT_DIR, f"spans-{label}.jsonl"))
    profiler.write(os.path.join(OUT_DIR, f"profile-{label}.collapsed.txt"))
    metrics = {m.name: _metric(values[m.name], m.unit) for m in PER_LAYER}
    result = {
        "correct": failed == 0 and restored and same and h["cache_hits"] == 0,
        "attempted": 2 * k,
        "failed": failed,
        "metrics": metrics,
    }
    extra = {
        "tasks": k,
        "spans": len(inst.spans) + inst.dropped_spans,
        "profile_samples": len(profiler.samples),
        "host_scale": scale,
        "layer_shares": shares,
        "restored": restored,
        "traced_equals_untraced": same,
    }
    return result, extra


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", required=True, help="a workload name, or 'all' to run each in turn"
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only",
        action="store_true",
        help="measure set-up only and print it (used for the set-up samples)",
    )
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds < 0:
        parser.error("--seconds must be >= 0")
    return args


def _run_all(args) -> int:
    """Run every workload in a process of its own, one after another."""
    from perfbench.workloads import WORKLOADS

    status = 0
    for name in WORKLOADS:
        argv = ["--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds)]
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), *argv, "--trace", str(args.trace)],
            cwd=ROOT,
        )
        status = status or proc.returncode
    return status


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        _log(f"perfbench: no program source at {SRC}; run from the root of a checkout")
        return 2
    sys.path[:0] = [SRC, ROOT]
    if args.workload == "all":
        return _run_all(args)
    for name in _CLEARED_ENV:
        os.environ.pop(name, None)
    os.makedirs(OUT_DIR, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=OUT_DIR)
    # No run may read or fill a result cache, even with cache=False.
    os.environ["REPRO_CACHE_DIR"] = os.path.join(scratch, "cache")
    try:
        workload = _setup(args.workload)
        setup_here = _scaled_setup()
        if args.setup_only:
            print(json.dumps({"raw_s": setup_here[0], "setup_s": setup_here[1]}))
            return 0
        if args.trace:
            result, extra = traced_run(workload, args.seed, f"{args.workload}-seed{args.seed}")
        else:
            samples = [setup_here] + [
                _child_setup(args.workload) for _ in range(SETUP_CHILDREN)
            ]
            result, extra = timed_run(
                workload, args.seed, args.seconds, statistics.median(s for _r, s in samples)
            )
            extra["setup_samples_s"] = [s for _r, s in samples]
            extra["host_setup_samples_s"] = [r for r, _s in samples]
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    for name, metric in result["metrics"].items():
        print(f"{args.workload}  {name:<30} {metric['value']:.6g} {metric['unit']}")
    for name, value in extra.items():
        print(f"{args.workload}  # {name}: {value}")
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "result": result,
        "extra": extra,
    }
    with open(os.path.join(OUT_DIR, "results.jsonl"), "a") as fh:
        fh.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
