"""Tests for the ping prober and the UDP probe channel over the DES."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.probing import StreamSpec
from repro.netsim import LinkSpec, Simulator, build_path
from repro.netsim.clock import OffsetClock
from repro.netsim.packet import Packet, PacketKind
from repro.transport.ping import Pinger
from repro.transport.probe import ProbeChannel, SendJitter


class TestPinger:
    def test_rtt_on_idle_path(self):
        sim = Simulator()
        net = build_path(sim, [LinkSpec(10e6, prop_delay=0.05)])
        ping = Pinger(sim, net, interval=0.5, start=0.0, stop=5.0)
        sim.run(until=8.0)
        assert ping.sent == 10
        assert ping.lost == 0
        for _t, rtt in ping.rtts:
            assert rtt == pytest.approx(net.min_rtt(64), rel=0.01)

    def test_rtt_grows_with_queueing(self):
        sim = Simulator()
        net = build_path(sim, [LinkSpec(1e6, prop_delay=0.01)])
        link = net.forward_links[0]
        ping = Pinger(sim, net, interval=0.1, start=0.0, stop=2.0)
        # dump a 25 kB backlog at t=0.5 => +200 ms queueing
        from repro.netsim.packet import Packet

        sim.schedule_at(0.5, lambda: [net.inject_at(link, Packet(1000)) for _ in range(25)])
        sim.run(until=4.0)
        early = ping.rtts_between(0.0, 0.45)
        during = ping.rtts_between(0.55, 0.7)
        assert max(during) > max(early) + 0.1

    def test_losses_counted(self):
        sim = Simulator()
        net = build_path(sim, [LinkSpec(1e6, prop_delay=0.0, buffer_bytes=950)])
        link = net.forward_links[0]
        from repro.netsim.packet import Packet

        # keep the link busy so the tiny buffer rejects most pings
        def flood():
            net.inject_at(link, Packet(900))
            sim.schedule(0.005, flood)

        flood()
        ping = Pinger(
            sim, net, interval=0.2, start=0.0, stop=2.0, timeout=0.5, packet_size=200
        )
        sim.run(until=4.0)
        assert ping.lost > 0

    def test_validation(self):
        sim = Simulator()
        net = build_path(sim, [LinkSpec(1e6)])
        with pytest.raises(ValueError):
            Pinger(sim, net, interval=0.0)
        with pytest.raises(ValueError):
            Pinger(sim, net, timeout=0.0)


def _pinger_with(replies):
    """A Pinger whose answered probes are ``replies``, (send time, reply
    time) pairs, each written by its reply handler at the reply time."""
    sim = Simulator()
    ping = Pinger(sim, None, start=0.0, stop=0.0)  # sends no probe
    for seq, (sent, back) in enumerate(replies):
        ping._outstanding[seq] = sent
        pong = Packet(64, flow_id=ping.flow_id, seq=seq, kind=PacketKind.PONG)
        sim.schedule_at(back, ping._reply_arrived, pong)
    sim.run()
    return ping


#: (send time, reply time): two probes sent at t = 2, and the probe sent
#: at t = 3 answered after the one sent at t = 4.
REPLIES = [(1.0, 1.2), (2.0, 2.25), (2.0, 2.5), (3.0, 5.0), (4.0, 4.1)]
#: Window edges: every send instant, instants between them, and instants
#: before the first and after the last.
EDGES = [0.0, 0.5, 1.0, 2.0, 2.5, 3.0, 3.5, 4.0, 5.0, 6.0]


class TestPingerColumns:
    """The RTTs are columns; the lookups must read as the tuple list did."""

    @pytest.mark.parametrize("replies", [REPLIES, []], ids=["replies", "none"])
    def test_lookups_match_tuple_filters(self, replies):
        ping = _pinger_with(replies)
        log = [(sent, back - sent) for sent, back in sorted(replies, key=lambda r: r[1])]
        assert ping.rtts == log
        for k, t_from in enumerate(EDGES):
            for t_to in EDGES[k + 1 :]:
                got = ping.rtts_between(t_from, t_to)
                assert got == [rtt for t, rtt in log if t_from <= t < t_to]
                assert all(type(rtt) is float for rtt in got)
        assert ping.max_rtt() == max((rtt for _t, rtt in log), default=0.0)
        assert type(ping.max_rtt()) is float

    def test_view_holds_python_floats(self):
        sim = Simulator()
        net = build_path(sim, [LinkSpec(1e6, prop_delay=0.01)])
        ping = Pinger(sim, net, interval=0.1, start=0.0, stop=2.0)
        sim.run(until=3.0)
        rtts = ping.rtts
        assert type(rtts) is list and len(rtts) == 20
        for t, rtt in rtts:
            assert type(t) is float and type(rtt) is float
        with pytest.raises(AttributeError):
            ping.rtts = []


class TestProbeChannel:
    def make(self, capacity=10e6, prop=0.01, **kwargs):
        sim = Simulator()
        net = build_path(sim, [LinkSpec(capacity, prop_delay=prop)])
        return sim, net, ProbeChannel(sim, net, **kwargs)

    def run_stream(self, sim, channel, spec):
        ev = channel.send_stream(spec)
        return sim.run_until(ev)

    def test_idle_path_owds_constant(self):
        sim, net, ch = self.make()
        spec = StreamSpec(rate_bps=2e6, packet_size=200, n_packets=50)
        m = self.run_stream(sim, ch, spec)
        assert m.n_received == 50
        owds = m.relative_owds()
        assert np.allclose(owds, owds[0])

    def test_owd_equals_serialization_plus_prop(self):
        sim, net, ch = self.make(capacity=10e6, prop=0.01)
        spec = StreamSpec(rate_bps=1e6, packet_size=1250, n_packets=10)
        m = self.run_stream(sim, ch, spec)
        assert m.relative_owds()[0] == pytest.approx(0.001 + 0.01)

    def test_stream_above_capacity_shows_increasing_trend(self):
        sim, net, ch = self.make(capacity=10e6)
        spec = StreamSpec(rate_bps=20e6, packet_size=1000, n_packets=50)
        m = self.run_stream(sim, ch, spec)
        owds = m.relative_owds()
        assert np.all(np.diff(owds) > 0)

    def test_sender_gaps_match_period(self):
        sim, net, ch = self.make()
        spec = StreamSpec(rate_bps=2e6, packet_size=500, n_packets=20)
        m = self.run_stream(sim, ch, spec)
        assert np.allclose(m.sender_gaps(), spec.period)

    def test_clock_offset_cancels_in_owd_differences(self):
        sim, net, ch = self.make(sender_clock=OffsetClock(100.0))
        spec = StreamSpec(rate_bps=2e6, packet_size=200, n_packets=20)
        m = self.run_stream(sim, ch, spec)
        owds = m.relative_owds()
        # absolute OWDs are shifted by -100 s, differences are unchanged
        assert owds[0] < 0
        assert np.allclose(np.diff(owds), 0.0)

    def test_jitter_perturbs_sender_gaps(self):
        rng = np.random.default_rng(0)
        sim, net, ch = self.make(
            jitter=SendJitter(rng, prob=0.5, max_delay=1e-3)
        )
        spec = StreamSpec(rate_bps=2e6, packet_size=200, n_packets=50)
        m = self.run_stream(sim, ch, spec)
        gaps = m.sender_gaps()
        assert np.std(gaps) > 0

    def test_measurement_arrives_after_control_delay(self):
        sim, net, ch = self.make(prop=0.05, control_delay=0.05)
        spec = StreamSpec(rate_bps=2e6, packet_size=200, n_packets=10)
        m = self.run_stream(sim, ch, spec)
        last_arrival = m.records[-1].recv_stamp
        assert m.t_end == pytest.approx(last_arrival + 0.05)

    def test_lost_packets_counted(self):
        sim = Simulator()
        net = build_path(sim, [LinkSpec(1e6, buffer_bytes=2500)])
        ch = ProbeChannel(sim, net)
        # 10 Mb/s burst into a 1 Mb/s link with a tiny buffer: heavy loss
        spec = StreamSpec(rate_bps=10e6, packet_size=1000, n_packets=30)
        ev = ch.send_stream(spec)
        m = sim.run_until(ev)
        assert m.loss_rate > 0.3
        assert m.n_sent == 30

    def test_jitter_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            SendJitter(rng, prob=1.5)
        with pytest.raises(ValueError):
            SendJitter(rng, max_delay=-1.0)


def _send_one(t0, spec, fast, jitter_seed=None):
    """Send ``spec`` at ``t0`` over two idle 10 Mb/s hops; return the
    measurement and the channel."""
    sim = Simulator()
    net = build_path(sim, [LinkSpec(10e6, prop_delay=1e-3) for _ in range(2)])
    jitter = None
    if jitter_seed is not None:
        # Delays of up to three periods reorder the sends.
        jitter = SendJitter(
            np.random.default_rng(jitter_seed), prob=0.5, max_delay=3 * spec.period
        )
    ch = ProbeChannel(sim, net, jitter=jitter, fast=fast)
    holder = {}
    sim.schedule_at(t0, lambda: holder.update(ev=ch.send_stream(spec)))
    sim.run(until=t0)
    return sim.run_until(holder["ev"]), ch


class TestSendSchedule:
    """The schedule is built as arrays; each send time must be the Python
    float ``t0 + seq * period``, and the jittered send order the sorted
    ``(time, seq)`` order, on the walk and on the per-packet path."""

    @given(
        t0=st.floats(0.0, 1e4),
        rate=st.floats(1e5, 2e7),
        n=st.integers(2, 200),
        jitter_seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_array_schedule_matches_the_tuple_schedule(self, t0, rate, n, jitter_seed):
        spec = StreamSpec(rate_bps=rate, packet_size=300, n_packets=n)
        period = spec.period
        for fast in (True, False):
            m, ch = _send_one(t0, spec, fast)
            assert ch.fastpath_streams == (1 if fast else 0)
            assert m.n_received == n
            stamps = [(r.seq, r.sender_stamp.hex()) for r in m.records]
            assert stamps == [(seq, (t0 + seq * period).hex()) for seq in range(n)]
        walked, ch = _send_one(t0, spec, True, jitter_seed)
        per_packet, _ = _send_one(t0, spec, False, jitter_seed)
        assert ch.fastpath_streams == 1
        assert walked == per_packet
        assert walked.records == per_packet.records
