"""Link monitors: the repo's stand-in for MRTG and router queue inspection.

The paper verifies pathload against **MRTG** graphs: 5-minute average
utilization readings of the tight link, obtained from SNMP interface byte
counters, with a quantized reporting resolution (Fig. 10's readings come in
6-Mb/s bands).  :class:`LinkMonitor` reproduces that measurement chain —
windowed byte-counter deltas — and :class:`MRTGMonitor` adds the banded
readout.  :class:`QueueMonitor` samples a link's backlog, which Section VII
uses to explain RTT inflation under a bulk TCP connection.

Monitors are read-only clients of the link's sync points: ``link.stats``
and ``link.backlog_bytes()`` both fold any pending bulk cross-traffic
arrivals (see :mod:`repro.netsim.bulkarrivals`) before returning, so every
sample below is identical whether the link's cross traffic runs on the
event-elided bulk path or the per-packet path.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Optional

from .engine import ScheduledCall, Simulator
from .link import Link

__all__ = [
    "UtilizationSample",
    "LinkMonitor",
    "MRTGMonitor",
    "QueueMonitor",
]


@dataclass(frozen=True)
class UtilizationSample:
    """One averaging window of a link's utilization.

    ``avail_bw_bps`` is the avail-bw definition of the paper's Eq. (2):
    ``C * (1 - u)`` over this window.
    """

    t_start: float
    t_end: float
    bytes_forwarded: int
    utilization: float
    avail_bw_bps: float

    @property
    def throughput_bps(self) -> float:
        """Average forwarded rate over the window."""
        return self.bytes_forwarded * 8.0 / (self.t_end - self.t_start)


class LinkMonitor:
    """Periodic utilization/avail-bw sampler over one link.

    Reads the link's cumulative forwarded-byte counter every ``window``
    seconds — exactly how MRTG derives utilization from SNMP counters.
    ``stop`` bounds the sampling (the window containing it is the last one
    recorded); :meth:`detach` cancels the pending tick at any point, so a
    monitor never keeps an otherwise-idle simulation rescheduling forever.
    """

    def __init__(
        self,
        sim: Simulator,
        link: Link,
        window: float = 300.0,
        start: float = 0.0,
        stop: Optional[float] = None,
    ):
        if window <= 0:
            raise ValueError(f"window must be positive, got {window}")
        self.sim = sim
        self.link = link
        self.window = float(window)
        self.stop = stop
        self.samples: list[UtilizationSample] = []
        self._last_bytes = 0
        self._window_start = start
        self._pending: Optional[ScheduledCall] = sim.schedule_at(start, self._begin)

    def detach(self) -> None:
        """Cancel the pending tick; sampling stops immediately.  Idempotent."""
        if self._pending is not None:
            self._pending.cancel()
            self._pending = None

    def _begin(self) -> None:
        self._last_bytes = self.link.stats.bytes_forwarded
        self._window_start = self.sim.now
        self._pending = self.sim.schedule(self.window, self._tick)

    def _tick(self) -> None:
        self._pending = None
        now = self.sim.now
        total = self.link.stats.bytes_forwarded
        delta = total - self._last_bytes
        interval = now - self._window_start
        utilization = (delta * 8.0 / interval) / self.link.capacity_bps
        self.samples.append(
            UtilizationSample(
                t_start=self._window_start,
                t_end=now,
                bytes_forwarded=delta,
                utilization=utilization,
                avail_bw_bps=self.link.capacity_bps * (1.0 - utilization),
            )
        )
        self._last_bytes = total
        self._window_start = now
        if self.stop is not None and now >= self.stop:
            return
        self._pending = self.sim.schedule(self.window, self._tick)

    # ------------------------------------------------------------------
    # Readouts
    # ------------------------------------------------------------------
    def avail_bw_series(self) -> list[tuple[float, float]]:
        """[(window end time, avail-bw in b/s), ...]."""
        return [(s.t_end, s.avail_bw_bps) for s in self.samples]

    def mean_avail_bw(self) -> float:
        """Average avail-bw across all completed windows."""
        if not self.samples:
            raise ValueError("no completed monitoring windows yet")
        return sum(s.avail_bw_bps for s in self.samples) / len(self.samples)

    def sample_covering(self, t: float) -> Optional[UtilizationSample]:
        """The completed window containing time ``t``, if any.

        Windows are appended in time order, so the candidate is the last
        one starting at or before ``t`` — found by bisection, matching the
        ``coverage_fraction`` treatment from the parallel-sweep work.
        """
        samples = self.samples
        i = bisect_right(samples, t, key=lambda s: s.t_start)
        if i:
            s = samples[i - 1]
            if s.t_start <= t < s.t_end:
                return s
        return None


class MRTGMonitor(LinkMonitor):
    """A :class:`LinkMonitor` with MRTG-style banded readings.

    Fig. 10's ground truth is "given as 6-Mb/s ranges, due to the limited
    resolution of the graphs"; :meth:`reading_band` reproduces that: the
    avail-bw reading is reported only as the band ``[k*Q, (k+1)*Q)`` that
    contains it.
    """

    def __init__(
        self,
        sim: Simulator,
        link: Link,
        window: float = 300.0,
        band_bps: float = 6e6,
        start: float = 0.0,
        stop: Optional[float] = None,
    ):
        super().__init__(sim, link, window=window, start=start, stop=stop)
        if band_bps <= 0:
            raise ValueError(f"band must be positive, got {band_bps}")
        self.band_bps = float(band_bps)

    def reading_band(self, sample: UtilizationSample) -> tuple[float, float]:
        """The quantized (low, high) avail-bw band for one window."""
        k = math.floor(sample.avail_bw_bps / self.band_bps)
        return (k * self.band_bps, (k + 1) * self.band_bps)

    def banded_series(self) -> list[tuple[float, float, float]]:
        """[(window end time, band low, band high), ...]."""
        return [(s.t_end, *self.reading_band(s)) for s in self.samples]


class QueueMonitor:
    """Samples a link's backlog (bytes) at a fixed interval.

    ``stop`` ends the sampling without leaving a pending call behind;
    :meth:`detach` cancels it immediately at any point.
    """

    def __init__(
        self,
        sim: Simulator,
        link: Link,
        interval: float = 0.1,
        start: float = 0.0,
        stop: Optional[float] = None,
    ):
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        self.sim = sim
        self.link = link
        self.interval = float(interval)
        self.stop = stop
        self.samples: list[tuple[float, int]] = []
        self._pending: Optional[ScheduledCall] = sim.schedule_at(start, self._tick)

    def detach(self) -> None:
        """Cancel the pending tick; sampling stops immediately.  Idempotent."""
        if self._pending is not None:
            self._pending.cancel()
            self._pending = None

    def _tick(self) -> None:
        self._pending = None
        now = self.sim.now
        if self.stop is not None and now > self.stop:
            return
        self.samples.append((now, self.link.backlog_bytes()))
        self._pending = self.sim.schedule(self.interval, self._tick)

    def max_backlog(self) -> int:
        """Largest sampled backlog in bytes (0 if no samples)."""
        return max((b for _t, b in self.samples), default=0)

    def mean_backlog(self) -> float:
        """Mean sampled backlog in bytes."""
        if not self.samples:
            raise ValueError("no queue samples collected yet")
        return sum(b for _t, b in self.samples) / len(self.samples)
