"""Pathload configuration.

All of the tool's knobs in one frozen dataclass, with the defaults of the
released pathload / the paper's Section IV:

===========================  =======================================
stream length ``K``          100 packets
fleet length ``N``           12 streams
PCT threshold                0.55
PDT threshold                0.40
fleet fraction ``f``         0.7  (reported as the experiments' value)
avail-bw resolution ω        1 Mb/s
grey resolution χ            1.5 Mb/s
min period ``T_min``         100 µs
min packet size              200 B
MTU                          1500 B
stream abort loss            10 %
moderate loss                3 %
===========================  =======================================
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace
from typing import Optional

__all__ = ["PathloadConfig", "PAPER_EXPERIMENT_CONFIG"]


@dataclass(frozen=True)
class PathloadConfig:
    """Every tunable of the pathload measurement algorithm."""

    # --- stream shape -------------------------------------------------
    #: packets per stream (paper: K = 100)
    n_packets: int = 100
    #: minimum inter-packet period the hosts can achieve (T >= T_min)
    min_period: float = 100e-6
    #: minimum probe packet size (keeps layer-2 header effects negligible)
    min_packet_size: int = 200
    #: maximum probe packet size (path MTU; avoids fragmentation)
    mtu: int = 1500

    # --- fleet shape ----------------------------------------------------
    #: streams per fleet (paper: N = 12)
    n_streams: int = 12
    #: fraction of usable streams that must agree to call a fleet
    #: increasing/non-increasing (f in Section IV; grey otherwise)
    fleet_fraction: float = 0.7
    #: the inter-stream idle interval is max(RTT, idle_factor * V); 9 keeps
    #: the tool's average rate below 10% of the stream rate
    idle_factor: float = 9.0

    # --- trend detection ------------------------------------------------
    #: which per-stream classification rule to apply:
    #: "tool"  — the released pathload's two-sided three-way rule (default;
    #:           see :func:`repro.core.trend.classify_owds_two_sided`);
    #: "paper" — the ToN text's simplified one-sided rule ("type I if either
    #:           metric exceeds its threshold").
    classification_rule: str = "tool"
    #: one-sided thresholds (the "paper" rule; also the Fig. 9 sweep knob)
    pct_threshold: float = 0.55
    pdt_threshold: float = 0.4
    #: two-sided thresholds (the "tool" rule)
    pct_incr_threshold: float = 0.66
    pct_nonincr_threshold: float = 0.54
    pdt_incr_threshold: float = 0.55
    pdt_nonincr_threshold: float = 0.45
    use_pct: bool = True
    use_pdt: bool = True

    # --- send-rate deviation handling -----------------------------------
    #: a sender gap is "deviant" when it differs from the nominal period by
    #: more than this fraction (context switch / scheduling glitch at the
    #: sender, detected by the receiver from the sender timestamps)
    gap_deviation_tolerance: float = 0.30
    #: discard the stream when more than this fraction of its sender gaps
    #: are deviant
    max_deviant_gap_fraction: float = 0.20

    # --- loss handling ----------------------------------------------------
    #: a stream with more loss than this is discarded (paper: 10%)
    stream_loss_abort: float = 0.10
    #: per-stream loss rate considered "moderate" (paper: 3%)
    moderate_loss: float = 0.03
    #: abort the fleet when more than this many streams see moderate loss
    max_lossy_streams: int = 3
    #: minimum usable streams for a fleet verdict; fewer aborts the fleet
    min_usable_streams: int = 4

    # --- convergence ------------------------------------------------------
    #: avail-bw estimation resolution ω in b/s
    resolution_bps: float = 1e6
    #: grey-region resolution χ in b/s
    grey_resolution_bps: float = 1.5e6
    #: hard cap on fleets per measurement (binary search safety net)
    max_fleets: int = 50
    #: give up narrowing below this rate; report [0, R] instead (a saturated
    #: path, as in the paper's Section VII intervals B and D)
    min_rate_bps: float = 100e3
    #: optional explicit first probing rate; default: the dispersion (ADR)
    #: of an initial max-rate stream, pathload's initialization heuristic
    initial_rate_bps: Optional[float] = None

    def __post_init__(self) -> None:
        # NaN and infinite counts would slip past the range checks below.
        for name in (
            "n_packets",
            "min_packet_size",
            "mtu",
            "n_streams",
            "max_lossy_streams",
            "min_usable_streams",
            "max_fleets",
        ):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.n_packets < 6:
            raise ValueError(f"n_packets must be >= 6, got {self.n_packets}")
        if self.n_streams < 1:
            raise ValueError(f"n_streams must be >= 1, got {self.n_streams}")
        if not 0.5 <= self.fleet_fraction <= 1.0:
            raise ValueError(
                f"fleet_fraction must be in [0.5, 1], got {self.fleet_fraction}"
            )
        if not 0 < self.min_packet_size <= self.mtu:
            raise ValueError(
                f"need 0 < min_packet_size <= mtu, got {self.min_packet_size}/{self.mtu}"
            )
        if not (self.use_pct or self.use_pdt):
            raise ValueError("at least one of PCT/PDT must be enabled")
        if self.classification_rule not in ("tool", "paper"):
            raise ValueError(
                f"classification_rule must be 'tool' or 'paper', got "
                f"{self.classification_rule!r}"
            )
        # Every comparison with NaN is False, so each check below also
        # rejects NaN.
        for name in (
            "min_period",
            "resolution_bps",
            "grey_resolution_bps",
            "gap_deviation_tolerance",
        ):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise ValueError(f"{name} must be finite and > 0, got {value}")
        for name in ("idle_factor", "min_rate_bps"):
            value = getattr(self, name)
            if not 0 <= value < math.inf:
                raise ValueError(f"{name} must be finite and >= 0, got {value}")
        rate = self.initial_rate_bps
        if rate is not None and not 0 < rate < math.inf:
            raise ValueError(
                f"initial_rate_bps must be None or finite and > 0, got {rate}"
            )
        for name in (
            "pct_threshold",
            "pdt_threshold",
            "pct_incr_threshold",
            "pct_nonincr_threshold",
            "pdt_incr_threshold",
            "pdt_nonincr_threshold",
        ):
            value = getattr(self, name)
            if not 0 <= value <= 1:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        for name, low in (
            ("max_fleets", 1),
            ("min_usable_streams", 1),
            ("max_lossy_streams", 0),
        ):
            value = getattr(self, name)
            if not value >= low:
                raise ValueError(f"{name} must be >= {low}, got {value}")
        if not 0 < self.max_deviant_gap_fraction <= 1:
            raise ValueError(
                "max deviant gap fraction must be in (0,1], got "
                f"{self.max_deviant_gap_fraction}"
            )
        if not 0 <= self.moderate_loss <= self.stream_loss_abort <= 1:
            raise ValueError(
                "need 0 <= moderate_loss <= stream_loss_abort <= 1, got "
                f"{self.moderate_loss}/{self.stream_loss_abort}"
            )

    @property
    def max_rate_bps(self) -> float:
        """Highest measurable rate: MTU-sized packets at the minimum period."""
        return self.mtu * 8.0 / self.min_period

    def with_(self, **changes) -> "PathloadConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **changes)


#: The configuration the paper reports for the Fig. 10 Internet experiments:
#: f = 0.7, PCT threshold 0.6, PDT threshold 0.5.
PAPER_EXPERIMENT_CONFIG = PathloadConfig(
    fleet_fraction=0.7,
    pct_threshold=0.6,
    pdt_threshold=0.5,
)
