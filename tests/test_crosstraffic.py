"""Tests for cross-traffic generation: rates, distributions, packet mixes."""

import numpy as np
import pytest

from repro.netsim import (
    PAPER_PACKET_MIX,
    LinkSpec,
    PacketMix,
    Simulator,
    attach_cross_traffic,
    build_path,
)
from repro.netsim.crosstraffic import CrossTrafficSource


def harness(rate=5e6, model="poisson", n_sources=10, seconds=20.0, seed=0, alpha=1.9):
    sim = Simulator()
    net = build_path(sim, [LinkSpec(100e6, name="L")])
    rng = np.random.default_rng(seed)
    sources = attach_cross_traffic(
        sim, net, net.forward_links[0], rate, rng, n_sources=n_sources, model=model,
        alpha=alpha,
    )
    sim.run(until=seconds)
    return net.forward_links[0], sources


class TestPacketMix:
    def test_paper_mix_mean(self):
        mix = PacketMix(PAPER_PACKET_MIX)
        assert mix.mean_size == pytest.approx(0.4 * 40 + 0.5 * 550 + 0.1 * 1500)

    def test_sample_only_contains_mix_sizes(self):
        mix = PacketMix(PAPER_PACKET_MIX)
        rng = np.random.default_rng(1)
        samples = mix.sample(rng, 1000)
        assert set(np.unique(samples)) <= {40, 550, 1500}

    def test_sample_proportions(self):
        mix = PacketMix(PAPER_PACKET_MIX)
        rng = np.random.default_rng(2)
        samples = mix.sample(rng, 20000)
        frac_40 = np.mean(samples == 40)
        assert abs(frac_40 - 0.4) < 0.02

    def test_constant_mix(self):
        mix = PacketMix.constant(1000)
        assert mix.mean_size == 1000

    @pytest.mark.parametrize("n", [1, 7, 512, 4096])
    @pytest.mark.parametrize(
        "sizes_probs",
        [
            PAPER_PACKET_MIX,
            ((1000, 1.0),),
            # Its probabilities' float cumsum ends at 1 - 2**-53.
            ((40, 0.7), (576, 0.2), (1500, 0.1)),
            # Unsorted sizes, a zero weight and the largest size accepted.
            ((1500, 0.3), (99, 0.0), (2**53, 0.25), (40, 0.45)),
        ],
        ids=["paper", "one-size", "cdf-below-one", "unsorted-zero-max"],
    )
    def test_sample_is_generator_choice(self, sizes_probs, n):
        """``sample`` runs ``Generator.choice``'s steps with a CDF built
        once: seed by seed, the same int64 sizes and the same generator
        state after the call.  A NumPy change to ``choice`` fails here
        instead of silently moving every cross-traffic sample path."""
        mix = PacketMix(sizes_probs)
        for seed in range(100):
            ours, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            got = mix.sample(ours, n)
            want = ref.choice(mix.sizes, size=n, p=mix.probs)
            assert got.dtype == want.dtype == np.int64
            assert np.array_equal(got, want), seed
            assert ours.bit_generator.state == ref.bit_generator.state, seed

    def test_bad_probabilities_rejected(self):
        # Wrong sum; NaN (which passes a sum check); negative weights that
        # sum to 1; an infinite weight.
        for sizes_probs in (
            ((100, 0.5), (200, 0.6)),
            ((40, float("nan")),),
            ((40, -0.5), (550, 1.5)),
            ((40, float("inf")), (550, -float("inf"))),
        ):
            with pytest.raises(ValueError, match="probabilit"):
                PacketMix(sizes_probs)

    def test_empty_mix_rejected(self):
        with pytest.raises(ValueError):
            PacketMix(())

    @pytest.mark.parametrize(
        "sizes_probs",
        [
            # Once truncated to [40, 1500] with mean_size 770.0.
            ((40.5, 0.5), (1500.9, 0.5)),
            # Once an OverflowError from the int64 size array.
            ((1e30, 1.0),),
        ],
        ids=["fractional", "past-int64"],
    )
    def test_non_integer_size_rejected(self, sizes_probs):
        with pytest.raises(ValueError, match="packet sizes"):
            PacketMix(sizes_probs)


class TestOfferedRate:
    @pytest.mark.parametrize("model", ["poisson", "pareto", "cbr"])
    def test_long_run_rate_matches_target(self, model):
        link, _src = harness(rate=5e6, model=model, seconds=30.0)
        achieved = link.stats.bytes_forwarded * 8 / 30.0
        assert achieved == pytest.approx(5e6, rel=0.1)

    def test_zero_rate_sends_nothing(self):
        link, sources = harness(rate=0.0)
        assert link.stats.packets_forwarded == 0

    def test_rate_split_across_sources(self):
        _link, sources = harness(rate=6e6, n_sources=10, seconds=10.0)
        assert len(sources) == 10
        rates = [s.rate_bps for s in sources]
        assert all(r == pytest.approx(6e5) for r in rates)

    def test_stop_time_respected(self):
        sim = Simulator()
        net = build_path(sim, [LinkSpec(100e6)])
        rng = np.random.default_rng(3)
        attach_cross_traffic(
            sim, net, net.forward_links[0], 5e6, rng, stop=1.0, model="poisson"
        )
        sim.run(until=10.0)
        in_window = net.forward_links[0].stats.bytes_forwarded * 8
        assert in_window <= 5e6 * 1.0 * 1.6  # nothing sent after t=1


class TestBurstiness:
    def test_pareto_is_burstier_than_poisson(self):
        """Infinite-variance interarrivals: higher variance of per-window
        counts (the property that matters for avail-bw variability)."""

        def window_counts(model, seed):
            sim = Simulator()
            net = build_path(sim, [LinkSpec(1e9)])
            rng = np.random.default_rng(seed)
            counts = []
            link = net.forward_links[0]
            attach_cross_traffic(sim, net, link, 5e6, rng, model=model, n_sources=10)
            prev = 0
            for i in range(1, 200):
                sim.run(until=i * 0.05)
                counts.append(link.stats.packets_forwarded - prev)
                prev = link.stats.packets_forwarded
            return np.array(counts, dtype=float)

        poisson = np.std(window_counts("poisson", 11))
        pareto = np.std(window_counts("pareto", 11))
        assert pareto > poisson

    def test_cbr_is_nearly_deterministic(self):
        sim = Simulator()
        net = build_path(sim, [LinkSpec(1e9)])
        rng = np.random.default_rng(5)
        link = net.forward_links[0]
        attach_cross_traffic(
            sim, net, link, 5e6, rng, model="cbr", n_sources=1,
            mix=PacketMix.constant(500),
        )
        sim.run(until=2.0)
        expected = 5e6 * 2.0 / 8 / 500
        assert link.stats.packets_forwarded == pytest.approx(expected, abs=2)


class TestModulation:
    def test_long_run_rate_preserved(self):
        """The mean-reverting walk keeps the average offered load near
        ``rate_bps`` (it raises it by about exp(2 sigma**2 / 3), 1.06x
        here; see ``CrossTrafficSource``)."""
        sim = Simulator()
        net = build_path(sim, [LinkSpec(1e9)])
        rng = np.random.default_rng(7)
        attach_cross_traffic(
            sim, net, net.forward_links[0], 5e6, rng, modulation=(0.5, 0.3)
        )
        sim.run(until=120.0)
        achieved = net.forward_links[0].stats.bytes_forwarded * 8 / 120.0
        assert achieved == pytest.approx(5e6, rel=0.25)

    def test_modulation_increases_slow_timescale_variance(self):
        def window_rates(modulation, seed=8, window=1.0, n=60):
            sim = Simulator()
            net = build_path(sim, [LinkSpec(1e9)])
            rng = np.random.default_rng(seed)
            link = net.forward_links[0]
            attach_cross_traffic(
                sim, net, link, 5e6, rng, modulation=modulation
            )
            rates, prev = [], 0
            for i in range(1, n + 1):
                sim.run(until=i * window)
                rates.append((link.stats.bytes_forwarded - prev) * 8 / window)
                prev = link.stats.bytes_forwarded
            return np.std(rates)

        assert window_rates((1.0, 0.3)) > 1.5 * window_rates(None)

    def test_factor_stays_clamped(self):
        sim = Simulator()
        net = build_path(sim, [LinkSpec(1e9)])
        rng = np.random.default_rng(9)
        src = CrossTrafficSource(
            sim, net, net.forward_links[0], 1e6, rng,
            modulation=(0.05, 2.0),  # violent walk
        )
        for i in range(1, 200):
            sim.run(until=i * 0.05)
            assert 0.25 <= src._mod_factor <= 2.5

    def test_boundary_times_are_exact(self):
        """Regression: ``_modulate`` reschedules at ``anchor + k*interval``
        (absolute), not ``now + interval`` (relative).  With a non-binary
        interval like 0.1, relative rescheduling accumulates float error
        (``sum of 100×0.1`` ≠ ``100*0.1``), which would let per-packet and
        segment-planned boundary instants drift apart at tiebreaks."""
        sim = Simulator()
        net = build_path(sim, [LinkSpec(1e9)])
        src = CrossTrafficSource(
            sim, net, net.forward_links[0], 1e6, np.random.default_rng(3),
            modulation=(0.1, 0.3), bulk=False,
        )
        boundaries = []
        orig = src._modulate

        def spy():
            boundaries.append(sim.now)
            orig()

        # The k=0 event was queued by the constructor with the original
        # bound method; the spy sees every rescheduled boundary from k=1.
        src._modulate = spy
        sim.run(until=10.05)
        # Every boundary is bit-exactly k * 0.1 — the single multiplication,
        # not an accumulated sum (100 * 0.1 == 10.000000000000002, which an
        # accumulating chain does not hit).
        assert boundaries == [k * 0.1 for k in range(1, len(boundaries) + 1)]
        assert len(boundaries) == 100
        assert boundaries[-1] == 100 * 0.1
        assert src._mod_next_b == 101 * 0.1

    def test_boundary_chain_survives_decommission(self):
        """The restarted per-packet chain lands on the same exact grid."""
        sim = Simulator()
        net = build_path(sim, [LinkSpec(1e9)])
        link = net.forward_links[0]
        src = CrossTrafficSource(
            sim, net, link, 1e6, np.random.default_rng(3),
            modulation=(0.1, 0.3),
        )
        assert src.is_bulk
        sim.schedule_at(1.05, lambda: setattr(link, "drop_hook", lambda p: None))
        sim.run(until=3.0)
        assert not src.is_bulk
        assert src._mod_next_b == src._mod_k * 0.1

    def test_invalid_modulation_rejected(self):
        sim = Simulator()
        net = build_path(sim, [LinkSpec(1e6)])
        with pytest.raises(ValueError, match="modulation"):
            CrossTrafficSource(
                sim, net, net.forward_links[0], 1e6,
                np.random.default_rng(0), modulation=(0.0, 0.1),
            )


def _reference_arrivals(model, seed, horizon, rate, sigma=None, alpha=1.9):
    """Arrivals of one source, from NumPy's draws alone.

    The draw order is the documented one: the phase draw for ``cbr``;
    then per refill its gap and size chunks of 512, alternating (``cbr``
    draws no gaps), 4,096 draws per refill for a modulated source; and,
    for a modulated source started at 0, the start boundary's factor
    draw after its first refill.  Times are a running ``t += gap``.  The
    arrivals come in whole chunks of 512 up to the first chunk whose last
    arrival reaches ``horizon``: what one source's feed holds then.
    """
    rng = np.random.default_rng(seed)
    sizes_of = np.array([40, 550, 1500])
    probs = [0.4, 0.5, 0.1]
    mean = float(np.dot(sizes_of, probs)) * 8.0 / rate
    per_refill = 4096 if sigma is not None else 512
    gaps, sizes = [], []

    def refill():
        for _ in range(per_refill // 512):
            if model == "poisson":
                gaps.extend(rng.exponential(mean, size=512).tolist())
            elif model == "pareto":
                xm = mean * (alpha - 1.0) / alpha
                gaps.extend((xm * (1.0 + rng.pareto(alpha, size=512))).tolist())
            else:
                gaps.extend([mean] * 512)
            sizes.extend(rng.choice(sizes_of, size=512, p=probs).tolist())

    t = 0.0
    if model == "cbr":
        t += float(rng.uniform(0.0, mean))
        refill()
    else:
        refill()
        t += gaps[0]
    factor = 1.0
    if sigma is not None:
        z = float(rng.normal(0.0, sigma))
        factor = float(np.clip(np.exp(0.5 * float(np.log(1.0)) + z), 0.25, 2.5))
    times = [t]
    while len(times) % 512 or times[-1] < horizon:
        if len(times) == len(gaps):
            refill()
        # A modulated gap is divided by the factor in force at the
        # previous arrival: the start boundary's, from the second on.
        t += gaps[len(times)] / factor
        times.append(t)
    return times, sizes[: len(times)]


class TestDrawOrder:
    """One source's merged arrivals against an independent reference.

    The equality suites compare the bulk path with ``bulk=False``, and
    both read the same refill buffers, so a change of draw order or
    chunking would move both and pass there.  Here nothing is folded or
    compacted: ``extend_until`` merges without syncing the link.
    """

    @pytest.mark.parametrize(
        "model, sigma",
        [("poisson", None), ("pareto", None), ("cbr", None), ("pareto", 0.25)],
    )
    def test_arrivals_follow_the_documented_draw_order(self, model, sigma):
        horizon, rate = 3.0, 6e6
        sim = Simulator()
        net = build_path(sim, [LinkSpec(10e6, name="L")])
        link = net.forward_links[0]
        src = CrossTrafficSource(
            sim, net, link, rate, np.random.default_rng(2024), model=model,
            # The interval exceeds the horizon: only the start boundary.
            modulation=None if sigma is None else (2 * horizon, sigma),
        )
        assert src.is_bulk
        agg = link._agg
        agg.extend_until(horizon)
        times, sizes = _reference_arrivals(model, 2024, horizon, rate, sigma)
        assert len(times) > 4096 if sigma is not None else len(times) > 1024
        assert agg.idx == 0
        assert (agg.times.dtype, agg.sizes.dtype) == (np.float64, np.int64)
        assert agg.times.tolist() == times
        assert agg.sizes.tolist() == sizes


class TestValidation:
    def test_unknown_model_rejected(self):
        sim = Simulator()
        net = build_path(sim, [LinkSpec(1e6)])
        with pytest.raises(ValueError, match="model"):
            CrossTrafficSource(
                sim, net, net.forward_links[0], 1e6,
                np.random.default_rng(0), model="weibull",
            )

    def test_pareto_alpha_must_exceed_one(self):
        sim = Simulator()
        net = build_path(sim, [LinkSpec(1e6)])
        with pytest.raises(ValueError, match="alpha"):
            CrossTrafficSource(
                sim, net, net.forward_links[0], 1e6,
                np.random.default_rng(0), model="pareto", alpha=0.9,
            )

    def test_negative_rate_rejected(self):
        sim = Simulator()
        net = build_path(sim, [LinkSpec(1e6)])
        with pytest.raises(ValueError):
            CrossTrafficSource(
                sim, net, net.forward_links[0], -1.0, np.random.default_rng(0)
            )

    @pytest.mark.parametrize(
        "arg, value",
        [
            ("rate_bps", float("nan")),
            ("rate_bps", float("inf")),
            ("alpha", float("nan")),
            ("alpha", float("inf")),
            ("modulation", (float("nan"), 0.1)),
            ("modulation", (float("inf"), 0.1)),
            ("modulation", (1.0, float("nan"))),
            ("modulation", (1.0, float("inf"))),
            # A NaN start hangs sim.run; a start before sim.now makes the
            # bulk path fold arrivals in the past; a NaN stop was ignored.
            ("start", float("nan")),
            ("start", float("inf")),
            ("start", -1.0),
            ("stop", float("nan")),
        ],
    )
    def test_non_finite_argument_rejected(self, arg, value):
        sim = Simulator()
        net = build_path(sim, [LinkSpec(1e6)])
        kwargs = {"rate_bps": 1e6, "model": "pareto", arg: value}
        with pytest.raises(ValueError, match=arg):
            CrossTrafficSource(
                sim, net, net.forward_links[0], rng=np.random.default_rng(0),
                **kwargs,
            )

    def test_start_before_now_rejected_mid_run(self):
        sim = Simulator()
        net = build_path(sim, [LinkSpec(1e6)])
        sim.run(until=1.0)
        with pytest.raises(ValueError, match="start"):
            CrossTrafficSource(
                sim, net, net.forward_links[0], 1e5, np.random.default_rng(0),
                start=0.5,
            )
        # A mid-run attach starting now, and an infinite stop, are valid.
        src = CrossTrafficSource(
            sim, net, net.forward_links[0], 1e5, np.random.default_rng(0),
            start=sim.now, stop=float("inf"),
        )
        sim.run(until=2.0)
        assert src.packets_sent > 0

    def test_zero_sources_rejected(self):
        sim = Simulator()
        net = build_path(sim, [LinkSpec(1e6)])
        with pytest.raises(ValueError):
            attach_cross_traffic(
                sim, net, net.forward_links[0], 1e6,
                np.random.default_rng(0), n_sources=0,
            )
