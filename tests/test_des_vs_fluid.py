"""Cross-validation: the discrete-event simulator against the analytic
fluid model, and against queueing theory.

The Appendix's fluid model has closed forms for the OWD slope and the
stream exit rate.  With near-fluid cross traffic (CBR with small packets),
the packet-level simulator must converge to those predictions — a strong
end-to-end consistency check between two completely independent
implementations of the same physics, on one hop and over the five hops of
the Fig. 4 path.  A Poisson-fed hop with an infinite
buffer is an M/G/1 queue, so its mean wait must match the
Pollaczek–Khinchine formula.
"""

import numpy as np
import pytest

from repro.core.fluid import FluidLink, FluidPath
from repro.core.probing import StreamSpec
from repro.netsim import PacketMix, Simulator, build_single_hop_path
from repro.netsim.topologies import Fig4Config, build_fig4_path
from repro.transport.probe import ProbeChannel

CAPACITY = 10e6
AVAIL = 4e6  # utilization 0.6


def des_stream(rate_bps, n_packets=100, packet_size=500, seed=0):
    """Send one stream through the DES with near-fluid (CBR, 100 B) load."""
    sim = Simulator()
    rng = np.random.default_rng(seed)
    setup = build_single_hop_path(
        sim,
        CAPACITY,
        1 - AVAIL / CAPACITY,
        rng,
        prop_delay=0.0,
        traffic_model="cbr",
        n_sources=40,
        mix=PacketMix.constant(100),
    )
    spec = StreamSpec(rate_bps=rate_bps, packet_size=packet_size, n_packets=n_packets)
    return send_one(sim, ProbeChannel(sim, setup.network), spec), spec


def send_one(sim, channel, spec):
    """Send ``spec`` at t = 1 s and run until its measurement is back."""
    holder = {}
    sim.schedule_at(1.0, lambda: holder.update(ev=channel.send_stream(spec)))
    sim.run(until=1.0)
    return sim.run_until(holder["ev"])


def owd_slope(measurement):
    """Least-squares OWD slope per packet."""
    owds = measurement.relative_owds()
    return float(np.polyfit(np.arange(len(owds)), owds, 1)[0])


class TestOwdSlope:
    @pytest.mark.parametrize("rate_mbps", [5.0, 6.0, 8.0])
    def test_slope_matches_fluid_prediction(self, rate_mbps):
        rate = rate_mbps * 1e6
        measurement, spec = des_stream(rate)
        fluid = FluidPath([FluidLink(CAPACITY, AVAIL)])
        expected = fluid.owd_slope_per_packet(spec)
        assert owd_slope(measurement) == pytest.approx(expected, rel=0.25)

    def test_below_avail_bw_slope_negligible(self):
        measurement, spec = des_stream(2e6)
        slope = owd_slope(measurement)
        fluid_above = FluidPath(
            [FluidLink(CAPACITY, AVAIL)]
        ).owd_slope_per_packet(
            StreamSpec(rate_bps=6e6, packet_size=spec.packet_size, n_packets=100)
        )
        assert abs(slope) < 0.2 * fluid_above


class TestMultiHopOwdSlope:
    """Proposition 1 over the Fig. 4 path: five hops with near-fluid load.

    The tight hop (index 2) has A = 4 Mb/s and the other four A_x = 13.3
    Mb/s.  The OWD trend is zero iff R <= A.  A stream above A_x also
    queues at the two hops before the tight one; at R = 15 Mb/s they add
    about a tenth of the predicted slope.  The tolerances are the one-hop
    tests' above.  Each stream runs in the flow-transit walk and per
    packet, and the two measurements must be ``==``.
    """

    CFG = Fig4Config(traffic_model="cbr", sources_per_link=40, packet_mix=((100, 1.0),))

    def fluid(self):
        cfg = self.CFG
        return FluidPath(
            [
                FluidLink(cfg.tight_capacity_bps, cfg.tight_avail_bw_bps)
                if i == cfg.hops // 2
                else FluidLink(cfg.nontight_capacity_bps, cfg.nontight_avail_bw_bps)
                for i in range(cfg.hops)
            ]
        )

    def measure(self, rate_bps):
        """One 100-packet, 500-B stream, walked and per packet."""
        spec = StreamSpec(rate_bps=rate_bps, packet_size=500, n_packets=100)
        out = []
        for fast in (True, False):
            sim = Simulator()
            setup = build_fig4_path(sim, self.CFG, np.random.default_rng(0))
            channel = ProbeChannel(sim, setup.network, fast=fast)
            out.append(send_one(sim, channel, spec))
            assert channel.fastpath_streams == int(fast)
        walked, per_packet = out
        assert walked == per_packet
        assert walked.n_received == spec.n_packets
        return walked, spec

    @pytest.mark.parametrize("rate_mbps", [6.0, 15.0])
    def test_slope_matches_fluid_prediction(self, rate_mbps):
        measurement, spec = self.measure(rate_mbps * 1e6)
        expected = self.fluid().owd_slope_per_packet(spec)
        assert owd_slope(measurement) == pytest.approx(expected, rel=0.25)

    def test_below_avail_bw_slope_negligible(self):
        measurement, spec = self.measure(2e6)
        above = self.fluid().owd_slope_per_packet(
            StreamSpec(rate_bps=6e6, packet_size=spec.packet_size, n_packets=100)
        )
        assert abs(owd_slope(measurement)) < 0.2 * above


class TestExitRate:
    @pytest.mark.parametrize("rate_mbps", [6.0, 9.0, 15.0])
    def test_dispersion_matches_proposition_2(self, rate_mbps):
        """Receiver-side rate of a saturating stream: R*C/(C + R - A)."""
        rate = rate_mbps * 1e6
        measurement, _spec = des_stream(rate, n_packets=200)
        fluid = FluidPath([FluidLink(CAPACITY, AVAIL)])
        expected = fluid.exit_rate(rate)
        assert measurement.dispersion_rate_bps() == pytest.approx(expected, rel=0.1)

    def test_transparent_below_avail_bw(self):
        measurement, _spec = des_stream(3e6, n_packets=200)
        assert measurement.dispersion_rate_bps() == pytest.approx(3e6, rel=0.05)


class TestPollaczekKhinchine:
    """Mean queueing delay on a Poisson-fed, infinite-buffer hop.

    Four Poisson sources with the paper's packet mix superpose into one
    Poisson stream with i.i.d. sizes, so the hop is M/G/1 and the mean
    wait is ``W = lam * E[S^2] / (2 * (1 - rho))``, with ``S`` the mix's
    service time.  ``queueing_delay()`` is the work in the system, and
    reads at Poisson instants see its time average (PASTA), so their mean
    estimates ``W``.  Each run reads 20,000 times over 100 s after a 5 s
    warm-up; the tolerance is four standard errors of 20 batch means.
    """

    N_READS = 20_000
    N_BATCHES = 20

    @pytest.mark.parametrize("bulk", [True, False])
    @pytest.mark.parametrize("rho", [0.5, 0.8])
    def test_mean_wait_matches_pk(self, rho, bulk):
        sim = Simulator()
        setup = build_single_hop_path(
            sim, CAPACITY, rho, np.random.default_rng(1), buffer_bytes=None,
            traffic_model="poisson", n_sources=4, bulk=bulk,
        )
        link = setup.tight_link
        mix = PacketMix()
        sizes = mix.sizes.astype(float)
        lam = rho * CAPACITY / (8.0 * float(mix.probs @ sizes))
        service_sq = float(mix.probs @ (sizes * 8.0 / CAPACITY) ** 2)
        expected = lam * service_sq / (2.0 * (1.0 - rho))

        gaps = np.random.default_rng(2).exponential(100.0 / self.N_READS, self.N_READS)
        instants = (5.0 + np.cumsum(gaps)).tolist()
        reads = []
        for t in instants:
            sim.schedule_at(t, lambda: reads.append(link.queueing_delay()))
        sim.run(until=instants[-1] + 1.0)
        assert len(reads) == self.N_READS

        batches = np.array(reads).reshape(self.N_BATCHES, -1).mean(axis=1)
        mean = float(batches.mean())
        stderr = float(batches.std(ddof=1)) / np.sqrt(self.N_BATCHES)
        assert stderr < 0.1 * expected, "too few reads to test the mean"
        assert abs(mean - expected) <= 4.0 * stderr, (mean, expected, stderr)
