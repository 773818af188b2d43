"""Analytic fluid-cross-traffic model of a path (paper Section III-A and
Appendix).

With stationary *fluid* cross traffic, the evolution of a periodic stream
through a chain of FIFO links has a closed form:

* At a link with capacity ``C`` and avail-bw ``A``, a stream entering at
  rate ``R_in > A`` keeps the link backlogged, each packet queues behind
  a linearly growing backlog, and the stream exits at (Eq. 16/19)::

      R_out = R_in * C / (C + R_in - A)

  with per-packet queueing-delay growth ``delta = L8 * (R_in - A) /
  (R_in * C)`` seconds per packet (``L8`` = packet size in bits).

* If ``R_in <= A``, the stream is transparent: ``R_out = R_in`` and no
  queueing-delay growth occurs.

Applying this recursively across the path yields **Proposition 1** (OWDs
strictly increase iff ``R > A``) and **Proposition 2** (the exit rate
depends on the capacity and avail-bw of every link, so train dispersion
cannot in general recover ``A``).

:class:`FluidPath` implements the recursion exactly, and
:func:`run_controller_fluid` drives a full
:class:`~repro.core.pathload.PathloadController` against it with optional
Gaussian OWD noise — a complete pathload run in microseconds, used heavily
by the test suite and the property-based invariant checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .pathload import PathloadController, PathloadReport
from .probing import Idle, SendStream, StreamMeasurement, StreamSpec

__all__ = ["FluidLink", "FluidPath", "run_controller_fluid"]


@dataclass(frozen=True)
class FluidLink:
    """One hop of the fluid model: capacity and average avail-bw."""

    capacity_bps: float
    avail_bw_bps: float

    def __post_init__(self) -> None:
        if self.capacity_bps <= 0:
            raise ValueError(f"capacity must be positive, got {self.capacity_bps}")
        if not 0 <= self.avail_bw_bps <= self.capacity_bps:
            raise ValueError(
                f"avail-bw must be in [0, capacity], got "
                f"{self.avail_bw_bps} vs {self.capacity_bps}"
            )

    @property
    def utilization(self) -> float:
        """Cross-traffic utilization ``u = 1 - A/C``."""
        return 1.0 - self.avail_bw_bps / self.capacity_bps


class FluidPath:
    """A chain of :class:`FluidLink` hops with stationary fluid cross
    traffic."""

    def __init__(self, links: Sequence[FluidLink], prop_delay: float = 0.0):
        if not links:
            raise ValueError("a fluid path needs at least one link")
        if prop_delay < 0:
            raise ValueError(f"prop delay must be >= 0, got {prop_delay}")
        self.links = tuple(links)
        self.prop_delay = float(prop_delay)

    # ------------------------------------------------------------------
    # Path metrics
    # ------------------------------------------------------------------
    @property
    def avail_bw_bps(self) -> float:
        """End-to-end avail-bw: the tight link's (Eq. 3/4)."""
        return min(link.avail_bw_bps for link in self.links)

    @property
    def capacity_bps(self) -> float:
        """End-to-end capacity: the narrow link's rate (Eq. 1)."""
        return min(link.capacity_bps for link in self.links)

    @property
    def tight_link_index(self) -> int:
        """Index of the (first) tight link."""
        avail = [link.avail_bw_bps for link in self.links]
        return avail.index(min(avail))

    # ------------------------------------------------------------------
    # Stream evolution (the Appendix recursion)
    # ------------------------------------------------------------------
    def entry_rates(self, rate_bps: float) -> list[float]:
        """Entry rate of the stream at each link (first entry = ``rate_bps``)."""
        if rate_bps <= 0:
            raise ValueError(f"rate must be positive, got {rate_bps}")
        rates = [float(rate_bps)]
        for link in self.links[:-1]:
            rates.append(self._exit_rate_of_link(rates[-1], link))
        return rates

    def exit_rate(self, rate_bps: float) -> float:
        """Stream rate at the receiver (Proposition 2)."""
        rate = float(rate_bps)
        for link in self.links:
            rate = self._exit_rate_of_link(rate, link)
        return rate

    @staticmethod
    def _exit_rate_of_link(rate_in: float, link: FluidLink) -> float:
        if rate_in <= link.avail_bw_bps:
            return rate_in
        return (
            rate_in
            * link.capacity_bps
            / (link.capacity_bps + rate_in - link.avail_bw_bps)
        )

    def owd_slope_per_packet(self, spec: StreamSpec) -> float:
        """Per-packet OWD growth (seconds/packet) for a stream of ``spec``.

        The sum over links of ``L8 * (R_in - A_i) / (R_in * C_i)`` for links
        where the entering rate exceeds the link's avail-bw; zero iff
        ``R <= A`` (Proposition 1).
        """
        slope = 0.0
        bits = spec.packet_size * 8.0
        for rate_in, link in zip(self.entry_rates(spec.rate_bps), self.links):
            if rate_in > link.avail_bw_bps:
                slope += bits * (rate_in - link.avail_bw_bps) / (rate_in * link.capacity_bps)
        return slope

    def stream_owds(self, spec: StreamSpec) -> np.ndarray:
        """Exact one-way delays of each packet of a periodic stream.

        ``OWD(k) = sum_i L8/C_i  +  k * slope  +  prop_delay`` — fixed
        store-and-forward serialization, linearly growing queueing, and
        propagation.
        """
        base = sum(spec.packet_size * 8.0 / link.capacity_bps for link in self.links)
        base += self.prop_delay
        slope = self.owd_slope_per_packet(spec)
        return base + slope * np.arange(spec.n_packets, dtype=np.float64)

    # ------------------------------------------------------------------
    # Synthetic measurements
    # ------------------------------------------------------------------
    def measure_stream(
        self,
        spec: StreamSpec,
        t_start: float = 0.0,
        noise_rng: Optional[np.random.Generator] = None,
        noise_std: float = 0.0,
        clock_offset: float = 0.0,
    ) -> StreamMeasurement:
        """Produce the :class:`StreamMeasurement` the receiver would record.

        Optional zero-mean Gaussian noise on each OWD emulates the
        packet-scale granularity of real (non-fluid) cross traffic;
        ``clock_offset`` shifts all receiver stamps, verifying offset
        invariance.
        """
        owds = self.stream_owds(spec)
        if noise_rng is not None and noise_std > 0:
            owds = owds + noise_rng.normal(0.0, noise_std, size=len(owds))
        seq = np.arange(spec.n_packets)
        send_times = t_start + spec.period * seq
        return StreamMeasurement(
            spec,
            n_sent=spec.n_packets,
            t_start=t_start,
            t_end=float(send_times[-1] + owds[-1]),
            seq=seq,
            sender_stamp=send_times,
            recv_stamp=send_times + owds + clock_offset,
        )


def run_controller_fluid(
    controller: PathloadController,
    path: FluidPath,
    noise_rng: Optional[np.random.Generator] = None,
    noise_std: float = 0.0,
    clock_offset: float = 0.0,
) -> PathloadReport:
    """Drive a pathload controller to completion against a fluid path.

    A synchronous driver: no event loop, virtual time advances by stream
    durations and idle intervals.  Ideal for unit tests and property-based
    checks of the full estimation pipeline.
    """
    gen = controller.run()
    clock = 0.0
    try:
        action = next(gen)
        while True:
            if isinstance(action, SendStream):
                measurement = path.measure_stream(
                    action.spec,
                    t_start=clock,
                    noise_rng=noise_rng,
                    noise_std=noise_std,
                    clock_offset=clock_offset,
                )
                clock = measurement.t_end + controller.rtt / 2.0
                measurement.t_end = clock
                action = gen.send(measurement)
            elif isinstance(action, Idle):
                clock += action.duration
                action = gen.send(None)
            else:  # pragma: no cover - controller contract guard
                raise TypeError(f"unexpected controller action {action!r}")
    except StopIteration as stop:
        return stop.value
