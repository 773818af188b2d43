"""Transport protocols over the simulated network.

* :mod:`~repro.transport.probe` — periodic UDP probe streams (pathload's
  data channel) and the controller driver.
* :mod:`~repro.transport.tcp` — TCP Reno/NewReno, the substrate for the
  paper's Section VII (avail-bw vs. bulk TCP throughput).
* :mod:`~repro.transport.ping` — periodic RTT echo probing.
"""

from .ping import Pinger
from .probe import ProbeChannel, SendJitter, drive_controller, run_pathload
from .tcp import TCPConfig, TCPReceiver, TCPSender, open_connection

__all__ = [
    "Pinger",
    "ProbeChannel",
    "SendJitter",
    "TCPConfig",
    "TCPReceiver",
    "TCPSender",
    "drive_controller",
    "open_connection",
    "run_pathload",
]
