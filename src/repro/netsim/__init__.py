"""Discrete-event network simulation substrate.

This subpackage is the reproduction's stand-in for the paper's NS
simulations and Internet testbeds: a virtual-time kernel
(:mod:`~repro.netsim.engine`), store-and-forward links
(:mod:`~repro.netsim.link`), multi-hop paths (:mod:`~repro.netsim.path`,
:mod:`~repro.netsim.topologies`), heavy-tailed cross traffic
(:mod:`~repro.netsim.crosstraffic`), MRTG-style monitors
(:mod:`~repro.netsim.monitor`), and host clock models
(:mod:`~repro.netsim.clock`).
"""

from .bulkarrivals import CrossAggregator
from .clock import Clock, NoisyClock, OffsetClock, PerfectClock, SkewedClock
from .crosstraffic import (
    PAPER_PACKET_MIX,
    CrossTrafficSource,
    PacketMix,
    attach_cross_traffic,
)
from .engine import Event, Process, ScheduledCall, SimulationError, Simulator
from .flowgen import ShortFlowGenerator
from .link import Link, LinkStats
from .monitor import LinkMonitor, MRTGMonitor, QueueMonitor, UtilizationSample
from .packet import Packet, PacketKind
from .path import LinkSpec, PathNetwork, build_path, sink
from .qdisc import REDQueue
from .trace import LinkTap, TraceRecord, owd_series, write_csv
from .topologies import (
    Fig4Config,
    PathSetup,
    build_fig4_path,
    build_single_hop_path,
    build_two_link_path,
)

__all__ = [
    "Clock",
    "CrossAggregator",
    "CrossTrafficSource",
    "Event",
    "Fig4Config",
    "Link",
    "LinkMonitor",
    "LinkSpec",
    "LinkStats",
    "MRTGMonitor",
    "NoisyClock",
    "OffsetClock",
    "PAPER_PACKET_MIX",
    "Packet",
    "PacketKind",
    "PacketMix",
    "PathNetwork",
    "PathSetup",
    "PerfectClock",
    "REDQueue",
    "Process",
    "QueueMonitor",
    "ScheduledCall",
    "ShortFlowGenerator",
    "SimulationError",
    "Simulator",
    "SkewedClock",
    "LinkTap",
    "TraceRecord",
    "UtilizationSample",
    "attach_cross_traffic",
    "build_fig4_path",
    "build_path",
    "build_single_hop_path",
    "owd_series",
    "write_csv",
    "build_two_link_path",
    "sink",
]
