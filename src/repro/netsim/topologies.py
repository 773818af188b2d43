"""Ready-made topologies for the paper's experiments.

The centerpiece is :func:`build_fig4_path` — the simulation topology of the
paper's Fig. 4: an ``H``-hop path whose middle hop is the *tight link*
(capacity ``Ct``, utilization ``ut``), with all other ("nontight") links
sharing a common capacity ``Cx`` and utilization ``ux``.  The relative
avail-bw of tight and nontight links is controlled by the **path tightness
factor** (Eq. 10)::

    beta = A_t / A_x,   A_t = Ct * (1 - ut),   A_x = Cx * (1 - ux)

so given ``beta`` and ``ux`` the builder derives ``Cx = A_t / (beta * (1 - ux))``.
``beta → 1`` makes every link a tight link, the regime where the paper shows
pathload underestimates (Fig. 7).

:func:`build_two_link_path` supports the Fig. 10 scenario where the tight
link differs from the narrow link, and :func:`build_single_hop_path` is the
minimal workbench used across unit tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .crosstraffic import PAPER_PACKET_MIX, CrossTrafficSource, PacketMix, attach_cross_traffic
from .engine import Simulator
from .link import Link
from .path import LinkSpec, PathNetwork, build_path

__all__ = [
    "Fig4Config",
    "PathSetup",
    "build_fig4_path",
    "build_single_hop_path",
    "build_two_link_path",
]


@dataclass(frozen=True)
class Fig4Config:
    """Parameters of the Fig. 4 topology.

    Defaults are the paper's: ``H = 5`` hops, ``Ct = 10`` Mb/s, ``beta =
    0.3``, ``ux = 20 %``, 50-ms end-to-end propagation delay, ten Pareto
    (``alpha = 1.9``) sources per link with the 40/550/1500-byte mix.
    """

    hops: int = 5
    tight_capacity_bps: float = 10e6
    tight_utilization: float = 0.6
    tightness_factor: float = 0.3
    nontight_utilization: float = 0.2
    total_prop_delay: float = 0.05
    buffer_bytes: Optional[int] = None
    traffic_model: str = "pareto"  # "pareto" | "poisson" | "cbr"
    pareto_alpha: float = 1.9
    sources_per_link: int = 10
    packet_mix: tuple[tuple[int, float], ...] = PAPER_PACKET_MIX

    def __post_init__(self) -> None:
        if self.hops < 1:
            raise ValueError(f"need at least 1 hop, got {self.hops}")
        if not 0.0 <= self.tight_utilization < 1.0:
            raise ValueError(f"tight utilization must be in [0,1), got {self.tight_utilization}")
        if not 0.0 <= self.nontight_utilization < 1.0:
            raise ValueError(
                f"nontight utilization must be in [0,1), got {self.nontight_utilization}"
            )
        if not 0.0 < self.tightness_factor <= 1.0:
            raise ValueError(
                f"tightness factor must be in (0,1], got {self.tightness_factor}"
            )

    @property
    def tight_avail_bw_bps(self) -> float:
        """Average avail-bw of the tight link, ``A_t = Ct (1 - ut)``."""
        return self.tight_capacity_bps * (1.0 - self.tight_utilization)

    @property
    def nontight_avail_bw_bps(self) -> float:
        """Average avail-bw of each nontight link, ``A_x = A_t / beta``."""
        return self.tight_avail_bw_bps / self.tightness_factor

    @property
    def nontight_capacity_bps(self) -> float:
        """Capacity of each nontight link, ``Cx = A_x / (1 - ux)``."""
        return self.nontight_avail_bw_bps / (1.0 - self.nontight_utilization)

    @property
    def avail_bw_bps(self) -> float:
        """End-to-end average avail-bw (Eq. 3): the minimum over links."""
        return min(self.tight_avail_bw_bps, self.nontight_avail_bw_bps)


@dataclass
class PathSetup:
    """A fully wired experiment path: network, traffic, and ground truth."""

    sim: Simulator
    network: PathNetwork
    tight_link: Link
    sources: list[CrossTrafficSource] = field(default_factory=list)
    #: configured long-run average end-to-end avail-bw (the ground truth the
    #: paper's figures compare against)
    avail_bw_bps: float = 0.0
    #: end-to-end capacity (narrow link rate)
    capacity_bps: float = 0.0

    @property
    def utilization_of_tight(self) -> float:
        """Configured utilization of the tight link."""
        return 1.0 - self.avail_bw_bps / self.tight_link.capacity_bps


def build_fig4_path(
    sim: Simulator,
    cfg: Fig4Config,
    rng: np.random.Generator,
    traffic_start: float = 0.0,
    bulk: Optional[bool] = None,
) -> PathSetup:
    """Instantiate the Fig. 4 topology with live cross traffic.

    The tight link sits at hop ``H // 2``; total propagation delay is split
    evenly across hops; every link gets its own aggregate of
    ``sources_per_link`` independent sources offering ``C_i * u_i``.
    ``bulk`` selects the cross-traffic data path per source (default:
    event-elided when eligible; ``False`` forces per-packet — results are
    bit-identical either way, see :mod:`repro.netsim.bulkarrivals`).
    """
    tight_index = cfg.hops // 2
    per_hop_prop = cfg.total_prop_delay / cfg.hops
    specs = []
    for i in range(cfg.hops):
        if i == tight_index:
            specs.append(
                LinkSpec(
                    cfg.tight_capacity_bps,
                    prop_delay=per_hop_prop,
                    buffer_bytes=cfg.buffer_bytes,
                    name=f"tight[{i}]",
                )
            )
        else:
            specs.append(
                LinkSpec(
                    cfg.nontight_capacity_bps,
                    prop_delay=per_hop_prop,
                    buffer_bytes=cfg.buffer_bytes,
                    name=f"nontight[{i}]",
                )
            )
    network = build_path(sim, specs)
    mix = PacketMix(cfg.packet_mix)
    sources: list[CrossTrafficSource] = []
    for i, link in enumerate(network.forward_links):
        utilization = (
            cfg.tight_utilization if i == tight_index else cfg.nontight_utilization
        )
        rate = link.capacity_bps * utilization
        if rate > 0:
            sources.extend(
                attach_cross_traffic(
                    sim,
                    network,
                    link,
                    rate,
                    rng,
                    n_sources=cfg.sources_per_link,
                    model=cfg.traffic_model,
                    alpha=cfg.pareto_alpha,
                    mix=mix,
                    start=traffic_start,
                    bulk=bulk,
                )
            )
    return PathSetup(
        sim=sim,
        network=network,
        tight_link=network.forward_links[tight_index],
        sources=sources,
        avail_bw_bps=cfg.avail_bw_bps,
        capacity_bps=network.capacity_bps,
    )


def build_single_hop_path(
    sim: Simulator,
    capacity_bps: float,
    utilization: float,
    rng: np.random.Generator,
    prop_delay: float = 0.01,
    buffer_bytes: Optional[int] = None,
    traffic_model: str = "pareto",
    n_sources: int = 10,
    mix: Optional[PacketMix] = None,
    traffic_start: float = 0.0,
    modulation: Optional[tuple[float, float]] = None,
    bulk: Optional[bool] = None,
) -> PathSetup:
    """A one-link path: the minimal tight-link-only workbench.

    ``modulation`` optionally adds slow non-stationary load variation
    (see :class:`repro.netsim.crosstraffic.CrossTrafficSource`); ``bulk``
    selects the cross-traffic data path (modulated sources run bulk too
    when eligible).
    """
    network = build_path(
        sim,
        [LinkSpec(capacity_bps, prop_delay=prop_delay, buffer_bytes=buffer_bytes, name="tight")],
    )
    link = network.forward_links[0]
    sources: list[CrossTrafficSource] = []
    rate = capacity_bps * utilization
    if rate > 0:
        sources = attach_cross_traffic(
            sim,
            network,
            link,
            rate,
            rng,
            n_sources=n_sources,
            model=traffic_model,
            mix=mix if mix is not None else PacketMix(),
            start=traffic_start,
            modulation=modulation,
            bulk=bulk,
        )
    return PathSetup(
        sim=sim,
        network=network,
        tight_link=link,
        sources=sources,
        avail_bw_bps=capacity_bps * (1.0 - utilization),
        capacity_bps=capacity_bps,
    )


def build_two_link_path(
    sim: Simulator,
    narrow_capacity_bps: float,
    narrow_utilization: float,
    tight_capacity_bps: float,
    tight_utilization: float,
    rng: np.random.Generator,
    total_prop_delay: float = 0.05,
    buffer_bytes: Optional[int] = None,
    traffic_model: str = "pareto",
    n_sources: int = 10,
    traffic_start: float = 0.0,
    bulk: Optional[bool] = None,
) -> PathSetup:
    """A path where the **narrow** link and the **tight** link differ.

    This is the Fig. 10 scenario: the tight link was a 155-Mb/s OC-3 while
    the narrow link was a 100-Mb/s Fast Ethernet.  Pass utilizations such
    that ``C_tight * (1 - u_tight) < C_narrow * (1 - u_narrow)``.
    """
    tight_avail = tight_capacity_bps * (1.0 - tight_utilization)
    narrow_avail = narrow_capacity_bps * (1.0 - narrow_utilization)
    if tight_avail >= narrow_avail:
        raise ValueError(
            "configuration does not make the intended link tight: "
            f"tight avail {tight_avail:.0f} >= narrow avail {narrow_avail:.0f}"
        )
    network = build_path(
        sim,
        [
            LinkSpec(
                tight_capacity_bps,
                prop_delay=total_prop_delay / 2,
                buffer_bytes=buffer_bytes,
                name="tight",
            ),
            LinkSpec(
                narrow_capacity_bps,
                prop_delay=total_prop_delay / 2,
                buffer_bytes=buffer_bytes,
                name="narrow",
            ),
        ],
    )
    sources: list[CrossTrafficSource] = []
    for link, utilization in zip(
        network.forward_links, (tight_utilization, narrow_utilization)
    ):
        rate = link.capacity_bps * utilization
        if rate > 0:
            sources.extend(
                attach_cross_traffic(
                    sim,
                    network,
                    link,
                    rate,
                    rng,
                    n_sources=n_sources,
                    model=traffic_model,
                    start=traffic_start,
                    bulk=bulk,
                )
            )
    return PathSetup(
        sim=sim,
        network=network,
        tight_link=network.forward_links[0],
        sources=sources,
        avail_bw_bps=tight_avail,
        capacity_bps=narrow_capacity_bps,
    )
