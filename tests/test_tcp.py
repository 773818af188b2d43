"""Tests for the TCP Reno/NewReno implementation."""

import math

import numpy as np
import pytest

from repro.netsim import LinkSpec, Simulator, build_path, attach_cross_traffic
from repro.transport.tcp import TCPConfig, open_connection


def bottleneck(sim, capacity=8e6, prop=0.05, buffer_bytes=100_000):
    return build_path(
        sim, [LinkSpec(capacity, prop_delay=prop, buffer_bytes=buffer_bytes, name="b")]
    )


class TestBasicTransfer:
    def test_sized_transfer_completes(self):
        sim = Simulator()
        net = bottleneck(sim)
        done = []
        snd, rcv = open_connection(
            sim, net, total_bytes=500_000, start=0.0,
            on_complete=lambda s: done.append(sim.now),
        )
        sim.run(until=30.0)
        assert done, "transfer did not complete"
        assert rcv.delivered_bytes == 500_000
        assert snd.acked_bytes == 500_000

    def test_no_losses_on_big_buffer(self):
        sim = Simulator()
        net = bottleneck(sim, buffer_bytes=None)
        snd, rcv = open_connection(sim, net, total_bytes=300_000, start=0.0)
        sim.run(until=30.0)
        assert snd.retransmits == 0
        assert snd.timeouts == 0

    def test_delivery_is_exactly_once_in_order(self):
        sim = Simulator()
        net = bottleneck(sim, buffer_bytes=30_000)  # forces drops
        snd, rcv = open_connection(sim, net, total_bytes=400_000, start=0.0)
        sim.run(until=60.0)
        assert rcv.delivered_bytes == 400_000
        logged = [b for _t, b in rcv.delivered_log]
        assert logged == sorted(logged)

    def test_slow_start_doubles_per_rtt(self):
        sim = Simulator()
        net = bottleneck(sim, capacity=1e9, prop=0.1, buffer_bytes=None)
        snd, rcv = open_connection(sim, net, start=0.0)
        sim.run(until=0.9)  # ~4 RTTs
        snd.stop()
        # cwnd should have grown well beyond initial (exponential growth)
        assert snd.cwnd > 16 * snd.config.mss


class TestCongestionControl:
    def test_saturates_bottleneck(self):
        sim = Simulator()
        net = bottleneck(sim, capacity=8e6, prop=0.05, buffer_bytes=100_000)
        snd, rcv = open_connection(sim, net, config=TCPConfig(min_rto=0.5), start=0.0)
        sim.run(until=60.0)
        snd.stop()
        thr = rcv.throughput_bps(20.0, 60.0)
        assert thr > 0.75 * 8e6

    def test_fast_retransmit_recovers_single_loss(self):
        """A single drop is repaired without a timeout."""
        sim = Simulator()
        net = bottleneck(sim, capacity=8e6, buffer_bytes=60_000)
        snd, rcv = open_connection(sim, net, config=TCPConfig(min_rto=2.0), start=0.0)
        sim.run(until=30.0)
        snd.stop()
        assert snd.retransmits > 0
        # with a reasonable buffer, fast retransmit handles most losses
        assert snd.timeouts <= 2

    def test_sawtooth_cwnd(self):
        """cwnd must repeatedly rise and fall in steady state."""
        sim = Simulator()
        net = bottleneck(sim, capacity=8e6, buffer_bytes=100_000)
        snd, rcv = open_connection(sim, net, config=TCPConfig(min_rto=0.5), start=0.0)
        sim.run(until=120.0)
        snd.stop()
        cw = np.array([c for t, c in snd.cwnd_log if t > 20.0])
        drops = np.sum(np.diff(cw) < -snd.config.mss)
        assert drops >= 3, "no multiplicative decreases observed"

    def test_two_flows_share_bottleneck(self):
        sim = Simulator()
        net = bottleneck(sim, capacity=8e6, buffer_bytes=100_000)
        cfg = TCPConfig(min_rto=0.5)
        s1, r1 = open_connection(sim, net, config=cfg, start=0.0)
        s2, r2 = open_connection(sim, net, config=cfg, start=0.0)
        sim.run(until=120.0)
        t1 = r1.throughput_bps(30, 120)
        t2 = r2.throughput_bps(30, 120)
        assert t1 + t2 > 0.7 * 8e6
        assert 0.2 < t1 / (t1 + t2) < 0.8  # rough fairness

    def test_queue_fills_under_greedy_tcp(self):
        """Section VII: the BTC connection inflates the tight-link queue."""
        sim = Simulator()
        net = bottleneck(sim, capacity=8e6, buffer_bytes=170_000)
        snd, rcv = open_connection(sim, net, config=TCPConfig(min_rto=0.5), start=0.0)
        max_backlog = 0
        for t in np.arange(1.0, 40.0, 0.25):
            sim.run(until=float(t))
            max_backlog = max(max_backlog, net.forward_links[0].backlog_bytes())
        assert max_backlog > 100_000

    def test_rto_recovers_after_blackout(self):
        """If the path loses everything for a while, RTO must recover."""
        sim = Simulator()
        # tiny buffer => brutal loss episodes
        net = bottleneck(sim, capacity=2e6, buffer_bytes=4_000)
        snd, rcv = open_connection(
            sim, net, config=TCPConfig(min_rto=0.2), total_bytes=200_000, start=0.0
        )
        sim.run(until=120.0)
        assert rcv.delivered_bytes == 200_000


class TestRTTEstimation:
    def test_srtt_close_to_path_rtt(self):
        sim = Simulator()
        net = bottleneck(sim, capacity=1e9, prop=0.08, buffer_bytes=None)
        snd, rcv = open_connection(sim, net, total_bytes=100_000, start=0.0)
        sim.run(until=10.0)
        assert snd.srtt == pytest.approx(0.16, rel=0.2)

    def test_rto_bounded_below(self):
        sim = Simulator()
        net = bottleneck(sim, capacity=1e9, prop=0.001, buffer_bytes=None)
        cfg = TCPConfig(min_rto=1.0)
        snd, rcv = open_connection(sim, net, config=cfg, total_bytes=50_000, start=0.0)
        sim.run(until=5.0)
        assert snd.rto >= 1.0

    @pytest.mark.parametrize("fast", [True, False])
    def test_karn_rule_keeps_samples_physical(self, fast):
        # Greedy Reno over the Fig. 15 tight link retransmits often.  An
        # ack for an earlier copy of a retransmitted segment arrives soon
        # after the retransmission, so a sample taken from it reads far
        # below the path's physical minimum; Karn's rule takes none.  The
        # smallest sample is the first segment's, on empty queues.
        sim = Simulator()
        net = bottleneck(sim, capacity=8.2e6, prop=0.1, buffer_bytes=170_000)
        cfg = TCPConfig(min_rto=0.5)
        snd, _rcv = open_connection(sim, net, config=cfg, start=0.0, fast=fast)
        sim.run(until=60.0)
        fwd, rev = net.forward_links[0], net.reverse_links[0]
        floor = (
            fwd.transmission_time(cfg.mss + cfg.header_bytes) + fwd.prop_delay
            + rev.transmission_time(cfg.header_bytes) + rev.prop_delay
        )
        assert snd.retransmits > 0
        assert snd.base_rtt >= floor * (1 - 1e-9)
        assert snd.base_rtt == pytest.approx(floor, rel=1e-9)


class TestDelayedAck:
    def test_delayed_ack_halves_ack_count(self):
        sim = Simulator()
        net = bottleneck(sim, capacity=1e9, prop=0.01, buffer_bytes=None)
        cfg = TCPConfig(delayed_ack=True)
        snd, rcv = open_connection(sim, net, config=cfg, total_bytes=292_000, start=0.0)
        sim.run(until=10.0)
        n_segments = 292_000 // 1460
        assert rcv.acks_sent < n_segments * 0.75


class TestValidation:
    def test_bad_mss(self):
        with pytest.raises(ValueError):
            TCPConfig(mss=0)

    def test_bad_rto_bounds(self):
        with pytest.raises(ValueError):
            TCPConfig(min_rto=2.0, max_rto=1.0)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("initial_rto", 0.0),  # re-fires at t = 0 forever
            ("initial_rto", math.nan),  # planned and per-packet paths split
            ("initial_rto", -1.0),
            ("initial_rto", math.inf),
            ("delack_timeout", math.nan),  # the planned path hung
            ("delack_timeout", -0.1),  # the per-packet path raised mid-run
            ("delack_timeout", math.inf),
            ("header_bytes", 0),
            ("header_bytes", -40),
            ("initial_cwnd_segments", 0),  # never sends
            ("advertised_window_bytes", 0),
            ("advertised_window_bytes", 1000),  # below one mss: never sends
            ("mss", math.nan),
            ("mss", math.inf),
            ("mss", 1460.5),  # float sequence numbers
            ("dupack_threshold", 2.5),  # fast retransmit never fires
            ("dupack_threshold", 0),
            ("initial_ssthresh_bytes", 0),
            ("initial_ssthresh_bytes", math.nan),
            ("initial_ssthresh_bytes", 1500.5),
        ],
    )
    def test_bad_field_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            TCPConfig(delayed_ack=True, **{field: value})

    def test_edge_values_accepted(self):
        cfg = TCPConfig(
            mss=500,
            header_bytes=1,
            initial_cwnd_segments=1,
            advertised_window_bytes=500,
            dupack_threshold=1,
            initial_rto=1e-3,
            delayed_ack=True,
            delack_timeout=0.0,
            initial_ssthresh_bytes=1,
        )
        assert cfg.advertised_window_bytes == cfg.mss
