"""Tests for the host clock models."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netsim.clock import (
    NoisyClock,
    OffsetClock,
    PerfectClock,
    SkewedClock,
    make_clock,
)


class TestClocks:
    def test_perfect_clock_is_identity(self):
        clock = PerfectClock()
        for t in (0.0, 1.5, 1e6):
            assert clock.read(t) == t

    def test_offset_clock_constant_shift(self):
        clock = OffsetClock(3.25)
        assert clock.read(0.0) == 3.25
        assert clock.read(10.0) == 13.25

    def test_offset_preserves_differences(self):
        clock = OffsetClock(-7.0)
        assert clock.read(5.0) - clock.read(2.0) == pytest.approx(3.0)

    def test_skewed_clock_drift_magnitude(self):
        clock = SkewedClock(skew_ppm=50.0)
        # 50 ppm over 1 second = 50 microseconds
        assert clock.read(1.0) - 1.0 == pytest.approx(50e-6)

    def test_skew_over_stream_duration_is_nanoseconds(self):
        """The paper's claim: skew over a few-ms stream is negligible."""
        clock = SkewedClock(skew_ppm=100.0)
        stream_duration = 0.020
        distortion = (clock.read(stream_duration) - clock.read(0.0)) - stream_duration
        assert abs(distortion) < 5e-6  # microseconds at worst

    def test_noisy_clock_one_sided(self):
        rng = np.random.default_rng(0)
        clock = NoisyClock(rng, noise_max=10e-6)
        readings = np.array([clock.read(1.0) for _ in range(200)])
        assert np.all(readings >= 1.0)
        assert np.all(readings <= 1.0 + 10e-6)

    def test_noisy_clock_zero_noise(self):
        rng = np.random.default_rng(0)
        clock = NoisyClock(rng, noise_max=0.0)
        assert clock.read(2.0) == 2.0

    def test_negative_noise_rejected(self):
        with pytest.raises(ValueError):
            NoisyClock(np.random.default_rng(0), noise_max=-1e-6)


_FINITE = dict(allow_nan=False, allow_infinity=False)


class TestArrayReads:
    """A pure clock reads a float64 array elementwise, bit-equal to one
    scalar read per element (the event-elided probe path relies on it)."""

    @staticmethod
    def _assert_elementwise(clock, ts):
        got = clock.read(np.array(ts, dtype=np.float64))
        want = [clock.read(t) for t in ts]
        assert [float(v).hex() for v in got] == [float(v).hex() for v in want]

    @given(
        ts=st.lists(st.floats(0.0, 1e9, **_FINITE), min_size=1, max_size=50),
        offset=st.floats(-1e4, 1e4, **_FINITE),
        skew_ppm=st.floats(-500.0, 500.0, **_FINITE),
        origin=st.floats(-1e6, 1e6, **_FINITE),
    )
    @settings(max_examples=200, deadline=None)
    def test_pure_clocks_read_arrays_elementwise(self, ts, offset, skew_ppm, origin):
        self._assert_elementwise(PerfectClock(), ts)
        self._assert_elementwise(OffsetClock(offset), ts)
        self._assert_elementwise(
            SkewedClock(offset=offset, skew_ppm=skew_ppm, origin=origin), ts
        )

    def test_large_times_and_negative_skew(self):
        ts = [0.0, 1e-9, 2.5, 86_400.123456789, 3.1e7 + 0.1, 1e9 - 1e-3]
        self._assert_elementwise(
            SkewedClock(offset=-12.5, skew_ppm=-123.456, origin=1.75e6), ts
        )


class TestFactory:
    def test_factory_kinds(self):
        assert isinstance(make_clock("perfect"), PerfectClock)
        assert isinstance(make_clock("offset", offset=1.0), OffsetClock)
        assert isinstance(make_clock("skewed", skew_ppm=10.0), SkewedClock)
        assert isinstance(
            make_clock("noisy", rng=np.random.default_rng(0)), NoisyClock
        )

    def test_noisy_requires_rng(self):
        with pytest.raises(ValueError):
            make_clock("noisy")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            make_clock("atomic")
