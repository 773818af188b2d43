"""Host clock models.

Pathload computes *relative* one-way delays: the sender stamps each packet
with its own clock, and the receiver subtracts that stamp from its own
clock's arrival reading.  Section IV of the paper ("Clock and Timing
Issues") argues that

* a constant **offset** between the two clocks shifts every OWD equally and
  therefore cannot affect OWD *differences*, and
* clock **skew** over a single stream (a few milliseconds long) amounts to
  nanoseconds, far below queueing-delay variations.

These classes let the test suite *verify* those claims instead of assuming
them: the same experiment can be run with a :class:`PerfectClock`, an
:class:`OffsetClock`, or a :class:`SkewedClock`, and the pathload verdicts
must be identical.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

__all__ = ["Clock", "PerfectClock", "OffsetClock", "SkewedClock", "NoisyClock"]


class Clock:
    """Base class: maps true simulated time to this host's clock reading."""

    def read(self, true_time: float) -> float:
        """Return the host-clock timestamp for true time ``true_time``.

        A clock that draws no random numbers must also accept a float64
        array and return the elementwise readings, computed with the same
        operations in the same order as for one float, so that each
        element is bit-equal to the scalar reading.  The event-elided
        probe path reads a whole slice of deliveries this way; a clock
        with an RNG (:class:`NoisyClock`) never reaches it.
        """
        raise NotImplementedError


class PerfectClock(Clock):
    """A clock that reads true simulated time exactly."""

    def read(self, true_time: float) -> float:
        return true_time


class OffsetClock(Clock):
    """A clock with a constant offset from true time.

    This models non-synchronized end hosts (the common case on the real
    Internet paths of the paper, which did not use GPS or NTP-disciplined
    clocks).
    """

    def __init__(self, offset: float):
        self.offset = float(offset)

    def read(self, true_time: float) -> float:
        return true_time + self.offset


class SkewedClock(Clock):
    """A clock with constant offset and frequency skew.

    ``reading = (true_time - origin) * (1 + skew_ppm * 1e-6) + origin + offset``

    A typical cheap oscillator drifts tens of ppm; over a 20-ms probing
    stream that is under a microsecond of distortion.
    """

    def __init__(self, offset: float = 0.0, skew_ppm: float = 0.0, origin: float = 0.0):
        self.offset = float(offset)
        self.skew_ppm = float(skew_ppm)
        self.origin = float(origin)

    def read(self, true_time: float) -> float:
        elapsed = true_time - self.origin
        return self.origin + self.offset + elapsed * (1.0 + self.skew_ppm * 1e-6)


class NoisyClock(Clock):
    """A skewed clock whose readings also carry bounded random noise.

    Models timestamping granularity / interrupt latency at the hosts.  Noise
    is drawn uniformly from ``[0, noise_max]`` — timestamping delays are
    one-sided (a reading can only be taken *after* the true instant).
    """

    def __init__(
        self,
        rng: np.random.Generator,
        offset: float = 0.0,
        skew_ppm: float = 0.0,
        noise_max: float = 5e-6,
        origin: float = 0.0,
    ):
        if noise_max < 0:
            raise ValueError(f"noise_max must be >= 0, got {noise_max}")
        self._base = SkewedClock(offset=offset, skew_ppm=skew_ppm, origin=origin)
        self._rng = rng
        self.noise_max = float(noise_max)

    def read(self, true_time: float) -> float:
        noise = self._rng.uniform(0.0, self.noise_max) if self.noise_max > 0 else 0.0
        return self._base.read(true_time) + noise


def make_clock(
    kind: str = "perfect",
    rng: Optional[np.random.Generator] = None,
    **kwargs,
) -> Clock:
    """Factory used by experiment configs (kind: perfect/offset/skewed/noisy)."""
    if kind == "perfect":
        return PerfectClock()
    if kind == "offset":
        return OffsetClock(**kwargs)
    if kind == "skewed":
        return SkewedClock(**kwargs)
    if kind == "noisy":
        if rng is None:
            raise ValueError("noisy clock requires an rng")
        return NoisyClock(rng, **kwargs)
    raise ValueError(f"unknown clock kind {kind!r}")
