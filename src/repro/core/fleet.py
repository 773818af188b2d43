"""Fleet-level classification (paper Section IV, "Fleets of Streams").

A *fleet* is ``N`` back-to-back streams at the same rate ``R``, each
classified individually as type I (increasing OWD trend) or type N.  The
fleet verdict is:

* ``R > A`` when at least a fraction ``f`` of usable streams are type I;
* ``R < A`` when at least ``f`` are type N;
* **grey** (``R ≈ A``) otherwise — the avail-bw moved above and below ``R``
  during the fleet, so some streams sampled each regime.

Streams with excessive loss (> 10 %) are discarded, and a fleet in which
several streams suffer moderate loss (> 3 %) is aborted outright, treated
like ``R > A`` so the next fleet probes a lower rate.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .config import PathloadConfig
from .probing import StreamMeasurement
from .trend import (
    StreamClassification,
    StreamType,
    classify_owds,
    classify_owds_two_sided,
)

__all__ = ["FleetOutcome", "FleetRecord", "classify_stream", "classify_fleet"]


class FleetOutcome(enum.Enum):
    """Relation between the fleet rate and the avail-bw, as inferred."""

    ABOVE = "R>A"
    BELOW = "R<A"
    GREY = "grey"
    ABORTED_LOSS = "aborted-loss"


@dataclass
class FleetRecord:
    """Complete trace of one fleet: per-stream data plus the verdict."""

    rate_bps: float
    outcome: FleetOutcome
    classifications: list[StreamClassification] = field(default_factory=list)
    measurements: list[StreamMeasurement] = field(default_factory=list)
    t_start: float = 0.0
    t_end: float = 0.0

    @property
    def n_increasing(self) -> int:
        """Streams classified type I."""
        return sum(
            1 for c in self.classifications if c.stream_type is StreamType.INCREASING
        )

    @property
    def n_nonincreasing(self) -> int:
        """Streams classified type N."""
        return sum(
            1 for c in self.classifications if c.stream_type is StreamType.NONINCREASING
        )

    @property
    def n_ambiguous(self) -> int:
        """Streams whose metrics were inconclusive (tool rule only)."""
        return sum(
            1 for c in self.classifications if c.stream_type is StreamType.AMBIGUOUS
        )

    @property
    def n_unusable(self) -> int:
        """Streams discarded for loss or send-rate deviations."""
        return sum(
            1 for c in self.classifications if c.stream_type is StreamType.UNUSABLE
        )

    def decision_summary(self) -> dict:
        """Plain-data digest of the verdict evidence, for decision logs.

        One letter per stream (I/N/A/U, in send order) plus the PCT/PDT
        metric values behind each classification — the Section IV
        quantities an observer needs to audit the fleet verdict.
        """
        return {
            "rate_bps": self.rate_bps,
            "outcome": self.outcome.value,
            "streams": "".join(c.stream_type.value for c in self.classifications),
            "pct": [c.pct for c in self.classifications],
            "pdt": [c.pdt for c in self.classifications],
            "n_increasing": self.n_increasing,
            "n_nonincreasing": self.n_nonincreasing,
        }


def _unusable() -> StreamClassification:
    return StreamClassification(
        stream_type=StreamType.UNUSABLE, pct=float("nan"), pdt=float("nan"), n_groups=0
    )


def _sender_rate_deviates(
    measurement: StreamMeasurement, config: PathloadConfig
) -> bool:
    """Receiver-side context-switch detection (paper Section IV).

    The sender timestamps let the receiver reconstruct the actual packet
    interspacing; if too many gaps deviate from the nominal period, the
    stream did not probe at its intended rate and must be discarded.
    """
    gaps = measurement.sender_gaps()
    if len(gaps) == 0:
        return False
    period = measurement.spec.period
    deviant = np.count_nonzero(
        np.abs(gaps - period) > config.gap_deviation_tolerance * period
    )
    return deviant > config.max_deviant_gap_fraction * len(gaps)


def classify_stream(
    measurement: StreamMeasurement, config: PathloadConfig
) -> StreamClassification:
    """Classify one stream, applying the discard rules first.

    A stream is unusable when it lost too many packets (> 10 %), arrived
    nearly empty, or — per the receiver's sender-timestamp check — was not
    actually transmitted at its nominal rate (context switches at the
    sender).
    """
    if (
        measurement.loss_rate > config.stream_loss_abort
        or measurement.n_received < 6
    ):
        return _unusable()
    if _sender_rate_deviates(measurement, config):
        return _unusable()
    if config.classification_rule == "paper":
        return classify_owds(
            measurement.relative_owds(),
            pct_threshold=config.pct_threshold,
            pdt_threshold=config.pdt_threshold,
            use_pct=config.use_pct,
            use_pdt=config.use_pdt,
        )
    return classify_owds_two_sided(
        measurement.relative_owds(),
        pct_incr=config.pct_incr_threshold,
        pct_nonincr=config.pct_nonincr_threshold,
        pdt_incr=config.pdt_incr_threshold,
        pdt_nonincr=config.pdt_nonincr_threshold,
        use_pct=config.use_pct,
        use_pdt=config.use_pdt,
    )


def classify_fleet(
    classifications: list[StreamClassification],
    measurements: list[StreamMeasurement],
    config: PathloadConfig,
) -> FleetOutcome:
    """Aggregate per-stream verdicts into the fleet verdict."""
    lossy = sum(1 for m in measurements if m.loss_rate > config.moderate_loss)
    if lossy > config.max_lossy_streams:
        return FleetOutcome.ABORTED_LOSS
    usable = [c for c in classifications if c.stream_type is not StreamType.UNUSABLE]
    if len(usable) < config.min_usable_streams:
        return FleetOutcome.ABORTED_LOSS
    needed = math.ceil(config.fleet_fraction * len(usable))
    n_increasing = sum(1 for c in usable if c.stream_type is StreamType.INCREASING)
    n_nonincreasing = sum(
        1 for c in usable if c.stream_type is StreamType.NONINCREASING
    )
    # Ambiguous streams (tool rule) count toward neither side; they lower
    # both fractions and therefore push the fleet toward the grey region.
    if n_increasing >= needed:
        return FleetOutcome.ABOVE
    if n_nonincreasing >= needed:
        return FleetOutcome.BELOW
    return FleetOutcome.GREY
