"""Shared harness for the avail-bw dynamics experiments (Figs. 11-14).

Section VI measures *variability*: each pathload run reports a range
``[R_lo, R_hi]``; its relative variation is ``rho = (R_hi - R_lo) /
((R_hi + R_lo)/2)`` (Eq. 12); the figures plot the {5,...,95} percentiles
of rho over ~110 runs per operating condition.

The Section VI tool settings are used throughout: omega = 1 Mb/s and
chi = 1.5 Mb/s, so the reported range is either at most omega wide (no
grey region) or tracks the grey region's width to within 2*chi.

Every run is an independent seeded simulation, so :func:`rho_samples`
submits them through :func:`repro.parallel.run_sweep` — ``jobs=N`` fans
out across processes and reproduces the serial sample order exactly.
"""

from __future__ import annotations

from typing import Optional

from ..analysis.stats import percentile_grid, relative_variation
from ..core.config import PathloadConfig
from ..netsim.engine import Simulator
from ..netsim.topologies import build_single_hop_path
from ..parallel import SweepTask, run_sweep, sweep_values
from ..transport.probe import run_pathload
from .base import fast_pathload_config, rng_from_entropy, spawn_seed_entropy

__all__ = ["rho_samples", "rho_percentiles"]


def _rho_one(
    entropy: int,
    capacity_bps: float,
    utilization: float | tuple[float, float],
    config: PathloadConfig,
    n_sources: int,
    warmup: float,
    prop_delay: float,
    modulation: tuple[float, float] | None,
) -> float:
    """One relative-variation sample (sweep worker).

    ``utilization`` is a constant, or a ``(lo, hi)`` pair drawn uniformly
    per run — the picklable form of the paper's load *ranges*.
    """
    rng = rng_from_entropy(entropy)
    if isinstance(utilization, tuple):
        u = float(rng.uniform(utilization[0], utilization[1]))
    else:
        u = float(utilization)
    sim = Simulator()
    setup = build_single_hop_path(
        sim,
        capacity_bps,
        u,
        rng,
        prop_delay=prop_delay,
        traffic_model="pareto",
        n_sources=n_sources,
        modulation=modulation,
    )
    report = run_pathload(
        sim, setup.network, config=config, start=warmup, time_limit=1200.0
    )
    return relative_variation(report.low_bps, report.high_bps)


def rho_samples(
    runs: int,
    master_seed: int,
    capacity_bps: float,
    utilization: tuple[float, float] | float,
    config: Optional[PathloadConfig] = None,
    n_sources: int = 10,
    warmup: float = 2.0,
    prop_delay: float = 0.01,
    modulation: tuple[float, float] | None = (2.0, 0.25),
    jobs: int = 1,
    cache: bool = True,
    experiment: str = "dynamics",
) -> list[float]:
    """Relative-variation samples over ``runs`` independent pathload runs.

    ``utilization`` is a constant, or a ``(lo, hi)`` range drawn uniformly
    per run from the run's own generator.
    """
    if config is None:
        config = fast_pathload_config()
    entropies = spawn_seed_entropy(master_seed, runs)
    tasks = [
        SweepTask(
            fn=_rho_one,
            kwargs={
                "capacity_bps": capacity_bps,
                "utilization": utilization,
                "config": config,
                "n_sources": n_sources,
                "warmup": warmup,
                "prop_delay": prop_delay,
                "modulation": modulation,
            },
            experiment=experiment,
            seed_entropy=entropy,
        )
        for entropy in entropies
    ]
    return sweep_values(run_sweep(tasks, jobs=jobs, cache=cache))


def rho_percentiles(samples: list[float]) -> list[tuple[int, float]]:
    """The paper's {5,...,95} percentile readout of rho."""
    return percentile_grid(samples)
