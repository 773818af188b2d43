"""Probing primitives shared by the SLoPS core and the transports.

The SLoPS/pathload logic in :mod:`repro.core` is **sans-IO**: it never
touches sockets or the simulator.  It is written as a generator that yields
*actions* — :class:`SendStream` ("transmit this periodic stream and give me
the measurement") and :class:`Idle` ("wait this long") — and receives
:class:`StreamMeasurement` objects back.  A driver (simulation-backed in
:mod:`repro.transport.probe`, synthetic in the tests) executes the actions.

This mirrors the real tool's architecture: pathload's estimation logic is
independent of how the UDP stream is produced; only the timestamps matter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral
from typing import Iterable, Optional

import numpy as np

__all__ = [
    "StreamSpec",
    "PacketRecord",
    "StreamMeasurement",
    "SendStream",
    "Idle",
    "stream_spec_for_rate",
]


@dataclass(frozen=True)
class StreamSpec:
    """A periodic probing stream: ``n_packets`` packets of ``packet_size``
    bytes sent every ``period`` seconds (rate = size*8/period)."""

    rate_bps: float
    packet_size: int
    n_packets: int

    def __post_init__(self) -> None:
        if not 0 < self.rate_bps < math.inf:
            raise ValueError(
                f"rate_bps must be finite and positive, got {self.rate_bps}"
            )
        if not isinstance(self.packet_size, Integral) or self.packet_size < 1:
            raise ValueError(
                f"packet_size must be an integer >= 1, got {self.packet_size!r}"
            )
        if not isinstance(self.n_packets, Integral) or self.n_packets < 2:
            raise ValueError(
                f"n_packets must be an integer >= 2, got {self.n_packets!r}"
            )

    @property
    def period(self) -> float:
        """Inter-packet send spacing ``T = L*8 / R`` in seconds."""
        return self.packet_size * 8.0 / self.rate_bps

    @property
    def duration(self) -> float:
        """Stream duration ``V = (K-1) * T`` (first to last transmission)."""
        return (self.n_packets - 1) * self.period


def stream_spec_for_rate(
    rate_bps: float,
    n_packets: int = 100,
    min_period: float = 100e-6,
    min_packet_size: int = 200,
    mtu: int = 1500,
) -> StreamSpec:
    """Choose packet size and period for a target rate (paper Section IV).

    The packet interspacing is normally the minimum period the hosts can
    achieve (``min_period``), giving ``L = R * T / 8``.  ``L`` is then
    clamped to ``[min_packet_size, mtu]``:

    * ``L < min_packet_size`` (low rates) ⇒ use ``L = min_packet_size`` and
      stretch the period, to keep layer-2 header effects negligible;
    * ``L > mtu`` (high rates) ⇒ use ``L = mtu`` and shrink the period; the
      maximum measurable rate is therefore ``mtu * 8 / min_period``.
    """
    if rate_bps <= 0:
        raise ValueError(f"rate must be positive, got {rate_bps}")
    if rate_bps > mtu * 8.0 / min_period:
        raise ValueError(
            f"rate {rate_bps:.0f} b/s exceeds the maximum measurable rate "
            f"{mtu * 8.0 / min_period:.0f} b/s (mtu={mtu}, min_period={min_period})"
        )
    size = rate_bps * min_period / 8.0
    # Round up so the implied period L*8/R never dips below min_period.
    size = int(min(max(math.ceil(size), min_packet_size), mtu))
    return StreamSpec(rate_bps=rate_bps, packet_size=size, n_packets=n_packets)


@dataclass(frozen=True, slots=True)
class PacketRecord:
    """Receiver-side record of one probe packet.

    ``sender_stamp`` and ``recv_stamp`` are *host clock* readings; their
    difference is the relative OWD (true OWD plus an unknown constant clock
    offset, which cancels in all SLoPS statistics).
    """

    seq: int
    sender_stamp: float
    recv_stamp: float

    @property
    def relative_owd(self) -> float:
        """Relative one-way delay (true OWD + constant clock offset)."""
        return self.recv_stamp - self.sender_stamp


class StreamMeasurement:
    """Everything the receiver learned from one periodic stream.

    The received packets are kept as three arrays sorted by sequence
    number: ``seq`` (int64), ``sender_stamp`` and ``recv_stamp`` (float64).
    Build it from the arrays, or from :class:`PacketRecord` objects with
    ``records=``; either input is converted once and sorted with a stable
    sort, as ``sorted(records, key=seq)`` would order it.  ``records`` is a
    view built from the arrays on first read.

    Every statistic is elementwise float64 arithmetic on the arrays, which
    rounds exactly as the same Python float expression per packet would,
    so the values do not depend on how the measurement was built.
    """

    __slots__ = (
        "spec",
        "n_sent",
        "t_start",
        "t_end",
        "seq",
        "sender_stamp",
        "recv_stamp",
        "_records",
    )

    def __init__(
        self,
        spec: StreamSpec,
        records: Optional[Iterable[PacketRecord]] = None,
        *,
        n_sent: int,
        t_start: float = 0.0,
        t_end: float = 0.0,
        seq=(),
        sender_stamp=(),
        recv_stamp=(),
    ):
        if records is not None:
            if len(seq) or len(sender_stamp) or len(recv_stamp):
                raise TypeError("pass either records or the three arrays, not both")
            records = list(records)
            seq = [r.seq for r in records]
            sender_stamp = [r.sender_stamp for r in records]
            recv_stamp = [r.recv_stamp for r in records]
        seq = np.asarray(seq, dtype=np.int64)
        sender_stamp = np.asarray(sender_stamp, dtype=np.float64)
        recv_stamp = np.asarray(recv_stamp, dtype=np.float64)
        if not len(seq) == len(sender_stamp) == len(recv_stamp):
            raise ValueError(
                f"array lengths differ: seq {len(seq)}, sender_stamp "
                f"{len(sender_stamp)}, recv_stamp {len(recv_stamp)}"
            )
        if len(seq) > 1 and (seq[1:] < seq[:-1]).any():
            order = np.argsort(seq, kind="stable")
            seq = seq[order]
            sender_stamp = sender_stamp[order]
            recv_stamp = recv_stamp[order]
        self.spec = spec
        #: packets the sender transmitted (lost ones included)
        self.n_sent = n_sent
        #: true send time of the first packet (sender bookkeeping; experiments
        #: use it to align measurements with monitor windows)
        self.t_start = t_start
        #: true completion time at the sender (when the result came back)
        self.t_end = t_end
        self.seq = seq
        self.sender_stamp = sender_stamp
        self.recv_stamp = recv_stamp
        self._records: Optional[list[PacketRecord]] = None

    @property
    def records(self) -> list[PacketRecord]:
        """The received packets as :class:`PacketRecord` objects, in
        sequence order (built on first read, then cached)."""
        records = self._records
        if records is None:
            records = self._records = list(
                map(
                    PacketRecord,
                    self.seq.tolist(),
                    self.sender_stamp.tolist(),
                    self.recv_stamp.tolist(),
                )
            )
        return records

    def __eq__(self, other) -> bool:
        if not isinstance(other, StreamMeasurement):
            return NotImplemented
        return bool(
            self.spec == other.spec
            and self.n_sent == other.n_sent
            and self.t_start == other.t_start
            and self.t_end == other.t_end
            and np.array_equal(self.seq, other.seq)
            and np.array_equal(self.sender_stamp, other.sender_stamp)
            and np.array_equal(self.recv_stamp, other.recv_stamp)
        )

    __hash__ = None  # type: ignore[assignment]  # mutable, so unhashable

    def __getstate__(self):
        # The records view is rebuilt on demand, never pickled.
        return (
            self.spec, self.n_sent, self.t_start, self.t_end,
            self.seq, self.sender_stamp, self.recv_stamp,
        )

    def __setstate__(self, state) -> None:
        (
            self.spec, self.n_sent, self.t_start, self.t_end,
            self.seq, self.sender_stamp, self.recv_stamp,
        ) = state
        self._records = None

    def __repr__(self) -> str:
        return (
            f"StreamMeasurement(spec={self.spec!r}, n_sent={self.n_sent}, "
            f"n_received={self.n_received}, t_start={self.t_start!r}, "
            f"t_end={self.t_end!r})"
        )

    @property
    def n_received(self) -> int:
        """Packets that made it to the receiver."""
        return len(self.seq)

    @property
    def loss_rate(self) -> float:
        """Fraction of stream packets lost in the path."""
        if self.n_sent == 0:
            return 0.0
        return 1.0 - self.n_received / self.n_sent

    def relative_owds(self) -> np.ndarray:
        """Relative OWDs of received packets, in sequence order."""
        return self.recv_stamp - self.sender_stamp

    def arrival_times(self) -> np.ndarray:
        """Receiver clock stamps, in sequence order."""
        return self.recv_stamp.copy()

    def sender_gaps(self) -> np.ndarray:
        """Actual sender interspacing, from consecutive received packets.

        The real receiver computes this from sender timestamps to detect
        context switches and other send-rate deviations; gaps spanning a
        lost packet are normalized by the sequence distance.
        """
        seq = self.seq
        if len(seq) < 2:
            return np.empty(0, dtype=np.float64)
        stamps = self.sender_stamp
        return (stamps[1:] - stamps[:-1]) / (seq[1:] - seq[:-1])

    def dispersion_rate_bps(self) -> float:
        """Receiver-side rate of the stream (packet-train dispersion).

        ``(n-1) * L * 8 / (t_last - t_first)`` over received packets — the
        quantity cprobe-style tools average (the ADR, Section II).
        """
        n = len(self.seq)
        if n < 2:
            raise ValueError("need at least two received packets for dispersion")
        recv = self.recv_stamp
        span = float(recv[-1]) - float(recv[0])
        if span <= 0:
            raise ValueError("non-positive arrival span; cannot compute dispersion")
        return (n - 1) * self.spec.packet_size * 8.0 / span


@dataclass(frozen=True)
class SendStream:
    """Controller action: transmit ``spec`` and return its measurement."""

    spec: StreamSpec


@dataclass(frozen=True)
class Idle:
    """Controller action: stay silent for ``duration`` seconds."""

    duration: float

    def __post_init__(self) -> None:
        if self.duration < 0:
            raise ValueError(f"idle duration must be >= 0, got {self.duration}")
