"""repro — a reproduction of Jain & Dovrolis, "End-to-End Available
Bandwidth: Measurement Methodology, Dynamics, and Relation With TCP
Throughput" (ACM SIGCOMM 2002 / IEEE ToN 2003).

The package implements the paper's contribution — the **SLoPS**
methodology and the **pathload** tool — together with every substrate the
evaluation depends on, built from scratch:

* :mod:`repro.core` — SLoPS trend detection (PCT/PDT), fleets, the grey
  region, the rate-adjustment search, the pathload controller, and the
  analytic fluid model of the paper's Appendix.
* :mod:`repro.netsim` — a discrete-event network simulator: FIFO
  store-and-forward links, heavy-tailed cross traffic, MRTG-style link
  monitors, host clock models.
* :mod:`repro.transport` — UDP probe endpoints, a from-scratch TCP Reno,
  and a ping prober over the simulator.
* :mod:`repro.baselines` — cprobe/ADR, TOPP, packet-pair, and BTC
  comparison methods.
* :mod:`repro.analysis` — CDFs, percentile summaries, the relative
  variation metric ρ, and the paper's weighted-average comparison rule.
* :mod:`repro.experiments` — one module per figure of the paper's
  evaluation.

Quickstart::

    from repro import measure_avail_bw_sim
    report = measure_avail_bw_sim(capacity_bps=10e6, utilization=0.6, seed=1)
    print(report.low_bps / 1e6, report.high_bps / 1e6)  # brackets 4 Mb/s
"""

from .core import (
    FluidLink,
    FluidPath,
    PathloadConfig,
    PathloadController,
    PathloadReport,
    run_controller_fluid,
)
from .runner import measure_avail_bw_sim, run_pathload_on_path

__version__ = "1.1.0"

__all__ = [
    "FluidLink",
    "FluidPath",
    "PathloadConfig",
    "PathloadController",
    "PathloadReport",
    "__version__",
    "measure_avail_bw_sim",
    "run_controller_fluid",
    "run_pathload_on_path",
]
