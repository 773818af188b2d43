"""The benchmark's workloads: one per figure family of the paper.

A *task* is one unit of sweep work.  In ``fig05-multihop`` and
``fig11-modulated`` it is one pathload measurement; in ``sec7-testbed`` it
is one full A-E testbed schedule.  Each task function mirrors the figure
worker it stands for, built from the same public calls, but returns the
full output (every ``PathloadReport``, the figure rows, and the simulation
counters) so that accuracy can be scored and layouts compared with ``==``.

Task inputs come only from the workload seed: task ``i`` of a workload is
the same simulation for the same seed, on every commit and layout.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.baselines.btc import run_btc
from repro.core.config import PathloadConfig
from repro.core.pathload import PathloadController
from repro.experiments.base import (
    fast_pathload_config,
    rng_from_entropy,
    spawn_seed_entropy,
)
from repro.experiments.fig05_load import TRAFFIC_MODELS, UTILIZATIONS
from repro.experiments.fig11_load_variability import CAPACITY, LOAD_RANGES
from repro.experiments.sectionvii import INTERVAL_NAMES, build_testbed, run_schedule
from repro.netsim.engine import Simulator
from repro.netsim.topologies import Fig4Config, build_fig4_path, build_single_hop_path
from repro.parallel import SweepTask
from repro.transport.probe import ProbeChannel, drive_controller, run_pathload
from repro.transport.tcp import TCPConfig

__all__ = ["Workload", "WORKLOADS", "same", "score_truth"]

#: Master seed of the warm-up task: fixed, so set-up work does not depend
#: on the seed of the run.
WARMUP_SEED = 7

#: Section VII interval length.  The paper uses 300 s and the figure module
#: 60 s; 30 s keeps one full A-E schedule under a second of host time while
#: every interval still spans many pathload fleets and BTC RTTs.
SEC7_INTERVAL = 30.0

#: The Fig. 11 modulation: rate factor redrawn every 2 s, sigma 0.25.
FIG11_MODULATION = (2.0, 0.25)


def _counts(sources=(), senders=(), extra_retransmits=0, extra_timeouts=0) -> dict:
    """Simulation counters read from public attributes after a task."""
    return {
        "cross_packets": sum(s.packets_sent for s in sources),
        "tcp_segments": sum(s.segments_sent for s in senders),
        "retransmits": sum(s.retransmits for s in senders) + extra_retransmits,
        "timeouts": sum(s.timeouts for s in senders) + extra_timeouts,
    }


def fig05_task(entropy: int, cfg: Fig4Config, warmup: float) -> dict:
    """One pathload run over the Fig. 4 path (``fig05_load`` worker)."""
    rng = rng_from_entropy(entropy)
    sim = Simulator()
    setup = build_fig4_path(sim, cfg, rng)
    config = fast_pathload_config()
    report = run_pathload(
        sim,
        setup.network,
        config=config,
        start=warmup,
        time_limit=warmup + 600.0,
    )
    return {
        "reports": [report],
        "truths": [cfg.avail_bw_bps],
        "omega": config.resolution_bps,
        "counts": _counts(sources=setup.sources),
    }


def fig11_task(entropy: int, lo: float, hi: float) -> dict:
    """One modulated single-hop pathload run (``dynamics.rho_samples``
    worker): utilization drawn uniformly in ``[lo, hi)`` per run."""
    rng = rng_from_entropy(entropy)
    u = float(rng.uniform(lo, hi))
    sim = Simulator()
    setup = build_single_hop_path(
        sim,
        CAPACITY,
        u,
        rng,
        prop_delay=0.01,
        traffic_model="pareto",
        n_sources=10,
        modulation=FIG11_MODULATION,
    )
    config = fast_pathload_config()
    report = run_pathload(
        sim, setup.network, config=config, start=2.0, time_limit=1200.0
    )
    return {
        "reports": [report],
        "truths": [setup.avail_bw_bps],
        "omega": config.resolution_bps,
        "counts": _counts(sources=setup.sources),
    }


def sec7_task(entropy: int, mode: str, interval: float) -> dict:
    """One A-E testbed schedule with BTC (Figs. 15-16) or pathload
    (Figs. 17-18) in intervals B and D."""
    bed = build_testbed(
        seed=entropy,
        interval=interval,
        ping_interval=1.0 if mode == "btc" else 0.1,
    )
    sim = bed.sim
    btc = {}
    reports: dict[str, list] = {"B": [], "D": []}
    channel = ProbeChannel(sim, bed.network) if mode == "pathload" else None
    config = PathloadConfig()  # paper defaults, idle_factor=9

    def probe(name: str, start: float, end: float) -> None:
        if mode == "btc":
            btc[name] = run_btc(
                sim,
                bed.network,
                t_start=start,
                t_end=end,
                config=TCPConfig(min_rto=0.5),
                bin_width=1.0,
                settle=interval / 3,
            )
            return
        sim.run(until=start)
        while sim.now < end:
            controller = PathloadController(config, rtt=bed.network.min_rtt())
            process = drive_controller(sim, controller, channel)
            reports[name].append(sim.run_until(process.done_event))

    run_schedule(bed, ("B", "D"), probe)

    rows = []
    for name in INTERVAL_NAMES:
        rtts = np.array(bed.interval_rtts(name))
        result = btc.get(name)
        rows.append(
            (
                name,
                bed.interval_avail_bw(name),
                result.throughput_bps if result else None,
                result.binned_bps if result else None,
                tuple(rtts.tolist()),
                len(reports.get(name, ())),
            )
        )
    flat = [(name, r) for name in ("B", "D") for r in reports[name]]
    return {
        "reports": [r for _name, r in flat],
        # Truth for a pathload run is the MRTG avail-bw of its interval.
        "truths": [bed.interval_avail_bw(name) for name, _r in flat],
        "omega": config.resolution_bps,
        "rows": rows,
        "ping_losses": bed.pinger.lost,
        "counts": _counts(
            senders=[sender for sender, _receiver in bed.background],
            extra_retransmits=sum(r.retransmits for r in btc.values()),
            extra_timeouts=sum(r.timeouts for r in btc.values()),
        ),
    }


def same(x, y) -> bool:
    """``x == y``, except that NaN equals NaN.

    Pathload marks unusable streams with NaN PCT/PDT values, and NaN never
    compares equal to itself, so plain ``==`` would call two identical
    outputs different.
    """
    if x == y:
        return True
    if isinstance(x, float) and isinstance(y, float):
        return x != x and y != y
    if type(x) is not type(y):
        return False
    if isinstance(x, (list, tuple)):
        return len(x) == len(y) and all(same(p, q) for p, q in zip(x, y))
    if isinstance(x, dict):
        return x.keys() == y.keys() and all(same(x[k], y[k]) for k in x)
    if dataclasses.is_dataclass(x):
        return all(
            same(getattr(x, f.name), getattr(y, f.name)) for f in dataclasses.fields(x)
        )
    return False


def score_truth(output: dict) -> tuple[int, int]:
    """(reports whose ``[R_lo - omega, R_hi + omega]`` holds the truth,
    reports scored)."""
    omega = output["omega"]
    hits = sum(
        1
        for report, truth in zip(output["reports"], output["truths"])
        if report.low_bps - omega <= truth <= report.high_bps + omega
    )
    return hits, len(output["reports"])


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: its task sequence and run sizes."""

    name: str
    #: ``point(i)`` -> (task function, kwargs) of task ``i``
    point: Callable[[int], tuple[Callable, dict]]
    #: operating points: task ``i`` runs point ``i % points``, and one
    #: round of ``points`` consecutive tasks visits each point once
    points: int
    #: tasks always run in the timed loop, whatever ``--seconds`` says;
    #: accuracy is scored over exactly these, so it repeats per seed
    min_tasks: int
    #: tasks of the traced run (fixed, so its counts repeat exactly)
    traced_tasks: int
    #: tasks re-run under each alternative layout for the output check
    check_tasks: int

    def task(self, seed: int, i: int) -> SweepTask:
        """Task ``i`` of this workload under benchmark seed ``seed``."""
        fn, kwargs = self.point(i)
        return SweepTask(
            fn=fn,
            kwargs=kwargs,
            experiment=f"perfbench-{self.name}",
            seed_entropy=spawn_seed_entropy(seed, i + 1)[i],
        )


# The eight Fig. 5 points, ordered so that any four consecutive tasks
# cover both traffic models and all four loads (the output check re-runs
# only the first few tasks).
_FIG05_POINTS = [
    Fig4Config(
        tight_utilization=u,
        traffic_model=TRAFFIC_MODELS[(k + k // len(UTILIZATIONS)) % len(TRAFFIC_MODELS)],
    )
    for k, u in enumerate(UTILIZATIONS * len(TRAFFIC_MODELS))
]


_SEC7_MODES = ("btc", "pathload")


def _fig05_point(i: int):
    return fig05_task, {"cfg": _FIG05_POINTS[i % len(_FIG05_POINTS)], "warmup": 2.0}


def _fig11_point(i: int):
    lo, hi = LOAD_RANGES[i % len(LOAD_RANGES)]
    return fig11_task, {"lo": lo, "hi": hi}


def _sec7_point(i: int):
    return sec7_task, {"mode": _SEC7_MODES[i % len(_SEC7_MODES)], "interval": SEC7_INTERVAL}


# Sizes: a 25-s timed loop runs about 56-72 / 175-250 / 36-50 tasks of
# these on a 2-core x86 container, depending on how fast the host is;
# min_tasks stays at or below that so that --seconds sets the loop's
# length, and sets the tail percentile (ten of min_tasks beyond it).
WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "fig05-multihop", _fig05_point, points=len(_FIG05_POINTS),
            min_tasks=56, traced_tasks=32, check_tasks=4,
        ),
        Workload(
            "fig11-modulated", _fig11_point, points=len(LOAD_RANGES),
            min_tasks=120, traced_tasks=48, check_tasks=6,
        ),
        Workload(
            "sec7-testbed", _sec7_point, points=len(_SEC7_MODES),
            min_tasks=32, traced_tasks=12, check_tasks=2,
        ),
    )
}
