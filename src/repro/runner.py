"""High-level entry points: build a simulated path, run pathload, report.

These wrappers cover the common experiment shape — construct a topology,
let the cross traffic warm up, run one or more pathload measurements — so
examples and benchmarks stay short.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .core.config import PathloadConfig
from .core.pathload import PathloadReport
from .netsim.engine import Simulator
from .netsim.path import PathNetwork
from .netsim.topologies import Fig4Config, PathSetup, build_fig4_path, build_single_hop_path
from .transport.probe import run_pathload

__all__ = ["run_pathload_on_path", "measure_avail_bw_sim", "measure_fig4_path"]


def run_pathload_on_path(
    sim: Simulator,
    network: PathNetwork,
    config: Optional[PathloadConfig] = None,
    start: float = 0.0,
    time_limit: Optional[float] = None,
    fast: Optional[bool] = None,
) -> PathloadReport:
    """Run one pathload measurement over an already-built network.

    ``fast`` follows the shared resolution in
    :func:`repro.netsim.fastpath.resolve_fast`, the three-level opt-out
    of the flow-transit walk that carries probe streams and TCP flows:
    an explicit argument wins, else ``REPRO_NO_FAST`` disables, else on.
    It does not reach cross traffic, which goes per packet only with
    ``bulk=False`` or on an ineligible link.  Results are bit-identical
    either way.
    """
    return run_pathload(
        sim, network, config=config, start=start, time_limit=time_limit, fast=fast
    )


def measure_avail_bw_sim(
    capacity_bps: float = 10e6,
    utilization: float = 0.6,
    seed: int = 0,
    config: Optional[PathloadConfig] = None,
    warmup: float = 2.0,
    traffic_model: str = "pareto",
    prop_delay: float = 0.01,
    buffer_bytes: Optional[int] = None,
    tracer=None,
    fast: Optional[bool] = None,
) -> PathloadReport:
    """Measure the avail-bw of a single-hop path — the 60-second tour.

    Builds a one-link path of the given capacity, loads it to
    ``utilization`` with heavy-tailed cross traffic, and runs one pathload
    measurement after ``warmup`` seconds.  The true average avail-bw is
    ``capacity_bps * (1 - utilization)``; the returned report's range should
    bracket it.  ``tracer`` (a :class:`repro.obs.Tracer`) observes the run
    without changing the report.
    """
    sim = Simulator()
    if tracer is not None:
        tracer.attach(sim)
    rng = np.random.default_rng(seed)
    setup = build_single_hop_path(
        sim,
        capacity_bps,
        utilization,
        rng,
        prop_delay=prop_delay,
        traffic_model=traffic_model,
        buffer_bytes=buffer_bytes,
    )
    if tracer is not None:
        tracer.register_network(setup.network)
    return run_pathload_on_path(
        sim, setup.network, config=config, start=warmup, fast=fast
    )


def measure_fig4_path(
    cfg: Fig4Config,
    seed: int = 0,
    config: Optional[PathloadConfig] = None,
    warmup: float = 2.0,
    tracer=None,
    fast: Optional[bool] = None,
) -> tuple[PathloadReport, PathSetup]:
    """Measure avail-bw over the paper's Fig. 4 topology.

    Returns the report together with the :class:`PathSetup` (which carries
    the configured ground-truth avail-bw for validation).  ``tracer``
    observes the run without changing the report.
    """
    sim = Simulator()
    if tracer is not None:
        tracer.attach(sim)
    rng = np.random.default_rng(seed)
    setup = build_fig4_path(sim, cfg, rng)
    if tracer is not None:
        tracer.register_network(setup.network)
    report = run_pathload_on_path(
        sim, setup.network, config=config, start=warmup, fast=fast
    )
    return report, setup
