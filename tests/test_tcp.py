"""Tests for the TCP Reno/NewReno implementation."""

import gc
import hashlib
import math
from bisect import bisect_right

import numpy as np
import pytest

from repro.netsim import LinkSpec, Simulator, build_path, attach_cross_traffic
from repro.transport.tcp import TCPConfig, TCPReceiver, open_connection

from .test_flowtransit import run_flow


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


def _tuple_throughput(log, t_from, t_to):
    """``throughput_bps`` as it read a list of ``(time, bytes)`` tuples."""
    inf = float("inf")
    i = bisect_right(log, (t_from, inf))
    j = bisect_right(log, (t_to, inf))
    start = log[i - 1][1] if i else 0
    end = log[j - 1][1] if j else start
    return (end - start) * 8.0 / (t_to - t_from)


def _tuple_binned(log, t_from, t_to, bin_width):
    out = []
    t = t_from
    while t + bin_width <= t_to + 1e-9:
        out.append((t + bin_width, _tuple_throughput(log, t, t + bin_width)))
        t += bin_width
    return out


#: (time, cumulative in-order bytes): two deliveries at t = 2, none
#: before t = 1 or after t = 5.
DELIVERIES = [(1.0, 1000), (2.0, 2460), (2.0, 3920), (3.0, 5380), (5.0, 6000)]
#: Window edges: every delivery instant, instants between them, and
#: instants before the first and after the last.
EDGES = [0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 5.0, 6.0, 7.0]


def _receiver_with(deliveries):
    """A receiver whose log holds ``deliveries``, written by on_segment."""
    rcv = TCPReceiver(Simulator(), None, "f", TCPConfig())
    for t, count in deliveries:
        assert rcv.on_segment(t, rcv.rcv_nxt, count - rcv.rcv_nxt) == count
    return rcv


class TestLogColumns:
    """The logs are columns; the lookups must read as the tuple lists did."""

    @pytest.mark.parametrize("deliveries", [DELIVERIES, []], ids=["log", "empty"])
    def test_throughput_matches_tuple_bisect(self, deliveries):
        rcv = _receiver_with(deliveries)
        assert rcv.delivered_log == deliveries
        for k, t_from in enumerate(EDGES):
            for t_to in EDGES[k + 1 :]:
                got = rcv.throughput_bps(t_from, t_to)
                assert got == _tuple_throughput(deliveries, t_from, t_to)
                assert type(got) is float
        for t_from, t_to, width in ((0.0, 7.0, 1.0), (1.0, 5.0, 0.5), (2.0, 3.0, 1.0)):
            assert rcv.binned_throughput_bps(t_from, t_to, width) == _tuple_binned(
                deliveries, t_from, t_to, width
            )

    @pytest.mark.parametrize("fast", [True, False])
    def test_views_hold_python_numbers(self, fast):
        sim = Simulator()
        net = bottleneck(sim, capacity=2e6, buffer_bytes=20_000)
        snd, rcv = open_connection(sim, net, config=TCPConfig(min_rto=0.5), start=0.0, fast=fast)
        sim.run(until=10.0)
        assert snd.retransmits > 0
        cwnd_log, delivered_log = snd.cwnd_log, rcv.delivered_log
        assert type(cwnd_log) is list and type(delivered_log) is list
        assert len(cwnd_log) > 100 and len(delivered_log) > 100
        for t, cwnd in cwnd_log:
            assert type(t) is float and type(cwnd) is float
        for t, count in delivered_log:
            assert type(t) is float and type(count) is int
        assert delivered_log[-1][1] == rcv.rcv_nxt
        # Read-only: the writers append to the columns.
        with pytest.raises(AttributeError):
            snd.cwnd_log = []
        with pytest.raises(AttributeError):
            rcv.delivered_log = []

    @pytest.mark.parametrize("fast", [True, False])
    def test_logs_add_no_gc_tracked_object_per_entry(self, fast):
        # A finished simulation is freed by the young-generation
        # collection after its sweep task only if few collections ran
        # during the task, and collections are triggered by net
        # allocations of GC-tracked objects.  With automatic collection
        # off, generation 0's count is exactly those net allocations.
        # A tuple per log entry made it about one per entry.
        gc.collect()
        enabled = gc.isenabled()
        gc.disable()
        try:
            before = gc.get_count()[0]
            sim = Simulator()
            net = bottleneck(sim, capacity=8.2e6, prop=0.1, buffer_bytes=170_000)
            snd, rcv = open_connection(
                sim, net, config=TCPConfig(min_rto=0.5), start=0.0, fast=fast
            )
            sim.run(until=60.0)
            allocated = gc.get_count()[0] - before
        finally:
            if enabled:
                gc.enable()
        entries = len(snd.cwnd_log) + len(rcv.delivered_log)
        assert entries > 50_000
        assert allocated < entries / 4, f"{allocated} objects for {entries} entries"


class _BernoulliDrop:
    """Qdisc that drops each packet independently with probability ``p``."""

    def __init__(self, p, seed):
        self.p = p
        self.rng = np.random.default_rng(seed)
        self.drops = 0

    def should_drop(self, backlog, size, now, capacity_bps):
        if self.rng.random() < self.p:
            self.drops += 1
            return True
        return False


class TestMathisSqrtLaw:
    # Mathis, Semke, Mahdavi and Ott (CCR 1997): with an ACK per segment
    # and loss rate p, congestion avoidance averages
    #     BW = (MSS / RTT) * sqrt(3/2) / sqrt(p).
    # The check runs on the per-packet reference path: the qdisc keeps the
    # link off the walk.  A 100 Mb/s hop carries about 2 Mb/s here, so the
    # queue stays near empty and RTT is the path's base RTT.
    #
    # The tolerance was fixed before the first run:
    # * the law's constant assumes periodic loss.  Under independent
    #   losses Mathis et al. measured C = 1.31 instead of 1.22, so the
    #   goodput may read up to 7 % high;
    # * timeouts (a lost retransmission, fewer than three duplicate ACKs)
    #   and NewReno's one-hole-per-RTT recovery of several losses in a
    #   window lower it, and goodput excludes the resent segments.  At
    #   p <= 0.02 with RTO about twice the RTT, PFTK's timeout term puts
    #   this below 10 %;
    # * the goodput over N loss events has a relative standard error near
    #   1/sqrt(N); the run lasts about 400 expected loss events after a
    #   20 s warm-up, and the bound allows three such errors at the N
    #   actually counted.
    @pytest.mark.parametrize("p", [0.005, 0.01, 0.02])
    def test_goodput_follows_sqrt_p(self, p):
        sim = Simulator()
        net = build_path(
            sim, [LinkSpec(100e6, prop_delay=0.05, buffer_bytes=None, name="lossy")]
        )
        fwd, rev = net.forward_links[0], net.reverse_links[0]
        qdisc = _BernoulliDrop(p, seed=int(1e6 * p))
        fwd.qdisc = qdisc
        cfg = TCPConfig(min_rto=0.2)
        snd, rcv = open_connection(sim, net, config=cfg, start=0.0)
        rtt = (
            fwd.transmission_time(cfg.mss + cfg.header_bytes) + fwd.prop_delay
            + rev.transmission_time(cfg.header_bytes) + rev.prop_delay
        )
        law_bps = 8.0 * cfg.mss / rtt * math.sqrt(1.5 / p)
        warmup = 20.0
        end = warmup + 400 / (p * law_bps / (8.0 * cfg.mss))
        sim.run(until=warmup)
        drops0 = qdisc.drops
        sim.run(until=end)
        snd.stop()
        n_losses = qdisc.drops - drops0
        ratio = rcv.throughput_bps(warmup, end) / law_bps
        slack = 3.0 / math.sqrt(n_losses)
        assert net._ft_fallbacks == {"link-config": 1}
        assert n_losses >= 300
        assert 1.0 - 0.10 - slack <= ratio <= 1.0 + 0.07 + slack, (
            f"goodput / law = {ratio:.3f} over {n_losses} losses, "
            f"{snd.timeouts} timeouts"
        )


class TestRenoFlowsShareDropTail:
    # N Reno flows with equal RTTs through one drop-tail bottleneck
    # should fill it together and share it equally: each halves on its
    # own losses and grows by one segment per RTT, so over many loss
    # events their windows converge (Chiu and Jain's AIMD argument).  The
    # case is five flows through a 1 Mb/s hop with a 200 ms RTT and a
    # one bandwidth-delay-product (25 kB) buffer, as in the mininet and
    # iperf3 harness this repo's SNIPPETS.md quotes.
    #
    # The bounds were fixed before the first run:
    # * goodput excludes 40 header bytes per 1500-byte packet, so a full
    #   link reads 1460/1500 = 0.973.  A one-BDP buffer keeps the link
    #   busy through a halving, so only timeouts and losses leave it
    #   idle; >= 0.9 allows for both;
    # * Jain's index (sum x)^2 / (n sum x^2) is 1 for equal shares and
    #   1/n for one flow taking all.  Over [60, 300] s each flow sees
    #   about 150 loss events, so the shares should sit within a few
    #   percent of equal; >= 0.95 admits one flow at 0.7x the others.
    def test_five_flows_fill_the_link_fairly(self):
        def run(fast):
            sim = Simulator()
            net = bottleneck(sim, capacity=1e6, prop=0.1, buffer_bytes=25_000)
            flows = [open_connection(sim, net, start=0.0, fast=fast) for _ in range(5)]
            sim.run(until=300.0)
            return [rcv.throughput_bps(60.0, 300.0) for _snd, rcv in flows]

        walked = run(True)
        share = sum(walked) / 1e6
        jain = sum(walked) ** 2 / (len(walked) * sum(x * x for x in walked))
        assert share >= 0.9, f"the flows fill {share:.3f} of the link"
        assert jain >= 0.95, f"Jain's fairness index {jain:.3f}"
        assert run(False) == walked


#: 600 kB transfers over 10 Mb/s, 1 ms hops without cross traffic, as
#: ``run_flow`` keyword arguments.  The comments give the counts the
#: recorded trajectories carry.
PINNED_ROWS = {
    "reno": {},
    # 20 retransmits, no timeout: fast recovery only
    "reno-25k": dict(buffer_bytes=25_000),
    # 183 retransmits and one timeout: go-back-N after the RTO
    "reno-25k-2hop": dict(buffer_bytes=25_000, hops=2, min_rto=0.2),
    "reno-delack-25k-2hop": dict(
        delayed_ack=True, buffer_bytes=25_000, hops=2, min_rto=0.2
    ),
    "vegas": dict(cc="vegas"),
    # one timeout
    "vegas-delack-12k": dict(
        cc="vegas", delayed_ack=True, buffer_bytes=12_000, min_rto=0.2
    ),
    # a 300 kB second flow from t = 0.31003 s shares the walk
    "two-flows": dict(second_flow_at=0.31003),
}

#: blake2b-128 of ``repr((flow states, forward link stats))`` per row.
PINNED_DIGESTS = {
    "reno": "658abfd0f2c53707922103afd8394055",
    "reno-25k": "2d21fb0d3834ab4ca108257657342591",
    "reno-25k-2hop": "140468f56f65a6bbef0212df02ea26a6",
    "reno-delack-25k-2hop": "e00bc57c4075cc1c68444e8893df5565",
    "vegas": "064b90eafa2035036695f00c2d02d116",
    "vegas-delack-12k": "7ec9b2f66ff022d9aa46a89839ad3ee0",
    "two-flows": "e6722fd07fe36beb1f5f8435209a0e58",
}


class TestPinnedTrajectories:
    @pytest.mark.parametrize("fast", [True, False])
    def test_trajectories_match_recorded_digests(self, fast):
        # Both layouts run one Reno, so an equality test between them
        # cannot see a change in the congestion-control arithmetic; these
        # digests were recorded before the two layouts shared their code.
        # No row draws a random number.
        digests = {}
        timeouts = fast_recoveries = 0
        for name, kwargs in sorted(PINNED_ROWS.items()):
            states, stats, _, _, _ = run_flow(fast, **kwargs)
            digests[name] = hashlib.blake2b(
                repr((states, stats)).encode(), digest_size=16
            ).hexdigest()
            for state in states:
                retransmits, n_timeouts = state[9], state[10]
                timeouts += n_timeouts
                # Without a timeout, only fast retransmit resends data.
                fast_recoveries += retransmits > 0 and n_timeouts == 0
        assert digests == PINNED_DIGESTS
        assert timeouts >= 1
        assert fast_recoveries >= 1


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
            # an infinite RTO: per-packet raised under sanitize, walk ran on
            ("max_rto", math.inf),
            ("vegas_beta", math.inf),
            ("vegas_gamma", math.nan),
            ("vegas_gamma", -1.0),
            ("vegas_gamma", math.inf),
        ],
    )
    def test_bad_field_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            TCPConfig(delayed_ack=True, **{field: value})

    @pytest.mark.parametrize(
        "fields,named",
        [
            (dict(min_rto=math.inf, max_rto=math.inf), "min_rto"),
            (dict(vegas_alpha=math.inf, vegas_beta=math.inf), "vegas_alpha"),
        ],
        ids=["min_rto-max_rto", "vegas_alpha-vegas_beta"],
    )
    def test_infinite_bound_pair_rejected(self, fields, named):
        # Each pair is ordered, so only the finiteness check can see it.
        with pytest.raises(ValueError, match=named):
            TCPConfig(**fields)

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
