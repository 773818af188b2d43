"""Unit tests for the store-and-forward link model."""

import pytest

from repro.netsim.engine import Simulator
from repro.netsim.link import Link
from repro.netsim.packet import Packet


def make_link(sim, capacity=8e6, prop=0.01, buffer_bytes=None):
    link = Link(sim, capacity, prop_delay=prop, buffer_bytes=buffer_bytes, name="L")
    arrivals = []
    link.deliver = lambda pkt: arrivals.append((sim.now, pkt))
    return link, arrivals


class TestTransmission:
    def test_single_packet_timing(self):
        sim = Simulator()
        link, arrivals = make_link(sim, capacity=8e6, prop=0.01)
        link.send(Packet(1000))
        sim.run()
        # 1000 B at 8 Mb/s = 1 ms serialization + 10 ms propagation
        assert arrivals[0][0] == pytest.approx(0.011)

    def test_back_to_back_packets_are_spaced_by_serialization(self):
        sim = Simulator()
        link, arrivals = make_link(sim, capacity=8e6, prop=0.0)
        link.send(Packet(1000))
        link.send(Packet(1000))
        sim.run()
        t0, t1 = arrivals[0][0], arrivals[1][0]
        assert t1 - t0 == pytest.approx(0.001)

    def test_fifo_order_preserved(self):
        sim = Simulator()
        link, arrivals = make_link(sim)
        pkts = [Packet(500, seq=i) for i in range(10)]
        for p in pkts:
            link.send(p)
        sim.run()
        assert [p.seq for _t, p in arrivals] == list(range(10))

    def test_idle_link_has_no_queueing(self):
        sim = Simulator()
        link, arrivals = make_link(sim, capacity=1e6, prop=0.0)
        link.send(Packet(1000))
        sim.run()
        sim.schedule_at(1.0, lambda: link.send(Packet(1000)))
        sim.run()
        # second packet sent long after the first drained: serialization only
        assert arrivals[1][0] == pytest.approx(1.008)

    def test_transmission_time_helper(self):
        sim = Simulator()
        link, _ = make_link(sim, capacity=10e6)
        assert link.transmission_time(1250) == pytest.approx(0.001)


class TestBacklogAccounting:
    def test_backlog_counts_unserved_bytes(self):
        sim = Simulator()
        link, _ = make_link(sim, capacity=8e6, prop=0.0)
        link.send(Packet(1000))
        link.send(Packet(1000))
        assert link.backlog_bytes() == 2000
        sim.run(until=0.0015)  # first packet done at 1 ms
        assert link.backlog_bytes() == 1000
        sim.run()
        assert link.backlog_bytes() == 0

    def test_queueing_delay_estimate(self):
        sim = Simulator()
        link, _ = make_link(sim, capacity=8e6, prop=0.0)
        link.send(Packet(1000))
        link.send(Packet(1000))
        assert link.queueing_delay() == pytest.approx(0.002)

    def test_backlog_read_cannot_run_ahead_of_the_clock(self):
        """Backlog reads and syncs act at the present only.  Purging the
        in-flight ledger up to a later instant would free buffer space a
        packet in transmission still holds, and drop-tail would then
        accept a packet it must refuse."""
        sim = Simulator()
        link, arrivals = make_link(sim, capacity=8e6, prop=0.0, buffer_bytes=2000)
        assert link.send(Packet(1000)) and link.send(Packet(1000))
        for read in (link.backlog_bytes, link.queueing_delay, link.sync):
            with pytest.raises(TypeError):
                read(0.0015)  # 1.5 ms: the first packet is done
        assert link.backlog_bytes() == 2000
        assert link.send(Packet(1000)) is False
        sim.run()
        assert len(arrivals) == 2
        assert link.stats.bytes_forwarded == 2000
        assert link.stats.bytes_dropped == 1000


class TestDropTail:
    def test_drops_when_buffer_full(self):
        sim = Simulator()
        link, arrivals = make_link(sim, capacity=8e6, prop=0.0, buffer_bytes=1500)
        assert link.send(Packet(1000)) is True
        assert link.send(Packet(1000)) is False  # 2000 > 1500
        sim.run()
        assert len(arrivals) == 1
        assert link.stats.packets_dropped == 1
        assert link.stats.bytes_dropped == 1000

    def test_buffer_frees_as_packets_complete(self):
        sim = Simulator()
        link, arrivals = make_link(sim, capacity=8e6, prop=0.0, buffer_bytes=1000)
        link.send(Packet(1000))
        sim.run()
        assert link.send(Packet(1000)) is True
        sim.run()
        assert len(arrivals) == 2

    def test_drop_hook_invoked(self):
        sim = Simulator()
        link, _ = make_link(sim, capacity=8e6, prop=0.0, buffer_bytes=500)
        dropped = []
        link.drop_hook = dropped.append
        ok = Packet(400)
        bad = Packet(400)
        link.send(ok)
        link.send(bad)
        assert dropped == [bad]

    def test_infinite_buffer_never_drops(self):
        sim = Simulator()
        link, arrivals = make_link(sim, capacity=1e6, prop=0.0, buffer_bytes=None)
        for _ in range(1000):
            link.send(Packet(1500))
        sim.run()
        assert len(arrivals) == 1000
        assert link.stats.packets_dropped == 0


class TestStats:
    def test_forwarded_counters(self):
        sim = Simulator()
        link, _ = make_link(sim)
        for _ in range(3):
            link.send(Packet(700))
        assert link.stats.bytes_forwarded == 2100
        assert link.stats.packets_forwarded == 3

    def test_utilization_of(self):
        sim = Simulator()
        link, _ = make_link(sim, capacity=10e6)
        # 625000 B in 1 s = 5 Mb/s on a 10 Mb/s link
        assert link.utilization_of(625000, 1.0) == pytest.approx(0.5)


class TestCapacitySchedule:
    def test_capacity_at_boundary_semantics(self):
        sim = Simulator()
        link, _ = make_link(sim, capacity=8e6)
        link.set_capacity_segments([(1.0, 4e6), (2.0, 16e6)])
        assert link.capacity_at(0.5) == 8e6
        assert link.capacity_at(1.0) == 4e6  # boundary takes the new rate
        assert link.capacity_at(1.5) == 4e6
        assert link.capacity_at(2.0) == 16e6
        assert link.capacity_at(100.0) == 16e6  # last rate holds forever
        assert link.capacity_bps == 8e6  # base rate untouched

    def test_serialization_uses_rate_at_transmission_start(self):
        sim = Simulator()
        link, arrivals = make_link(sim, capacity=8e6, prop=0.0)
        link.set_capacity_segments([(1.0, 4e6)])
        # Admitted at t=0 on an idle link: starts immediately at 8 Mb/s.
        link.send(Packet(1000))
        # Admitted at t=1.5: starts after the boundary, at 4 Mb/s.
        sim.schedule_at(1.5, lambda: link.send(Packet(1000)))
        sim.run()
        assert arrivals[0][0] == pytest.approx(0.001)
        assert arrivals[1][0] == pytest.approx(1.502)

    def test_queued_start_after_boundary_takes_new_rate(self):
        # Admission *time* is before the boundary, but the queue pushes
        # the transmission start past it: the new rate applies, because
        # serialization is priced at transmission start.
        sim = Simulator()
        link, arrivals = make_link(sim, capacity=8e6, prop=0.0)
        link.set_capacity_segments([(0.0015, 4e6)])

        def burst():
            link.send(Packet(1000))  # starts idle at 0.0012 (8 Mb/s)
            link.send(Packet(1000))  # queued: starts 0.0022 > boundary

        sim.schedule_at(0.0012, burst)
        sim.run()
        assert arrivals[0][0] == pytest.approx(0.0022)
        assert arrivals[1][0] == pytest.approx(0.0042)

    def test_mid_transmission_boundary_does_not_reprice(self):
        # A transmission under way when the boundary passes completes at
        # its admission rate (store-and-forward idealization).
        sim = Simulator()
        link, arrivals = make_link(sim, capacity=8e6, prop=0.0)
        link.set_capacity_segments([(0.0005, 1e6)])
        link.send(Packet(1000))  # starts at t=0 under 8 Mb/s
        sim.run()
        assert arrivals[0][0] == pytest.approx(0.001)

    def test_reinstall_replaces_schedule(self):
        sim = Simulator()
        link, _ = make_link(sim, capacity=8e6)
        link.set_capacity_segments([(1.0, 4e6)])
        sim.schedule_at(
            1.5, lambda: link.set_capacity_segments([(2.0, 16e6)])
        )
        sim.run(until=1.6)
        # Rate in force at reinstall (4 Mb/s) becomes the pre-boundary rate.
        assert link.capacity_at(1.7) == 4e6
        assert link.capacity_at(2.0) == 16e6

    def test_validation_errors(self):
        sim = Simulator()
        link, _ = make_link(sim)
        with pytest.raises(ValueError, match="at least one"):
            link.set_capacity_segments([])
        with pytest.raises(ValueError, match="positive"):
            link.set_capacity_segments([(1.0, 0.0)])
        with pytest.raises(ValueError, match="future"):
            link.set_capacity_segments([(0.0, 1e6)])
        with pytest.raises(ValueError, match="increasing"):
            link.set_capacity_segments([(1.0, 1e6), (1.0, 2e6)])
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="positive and finite"):
                link.set_capacity_segments([(1.0, bad)])
            with pytest.raises(ValueError, match="finite and in the future"):
                link.set_capacity_segments([(bad, 1e6)])


class TestValidation:
    def test_bad_capacity(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            Link(sim, 0.0)

    def test_bad_prop_delay(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            Link(sim, 1e6, prop_delay=-1.0)

    def test_bad_buffer(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            Link(sim, 1e6, buffer_bytes=0)

    def test_prop_delay_is_read_only(self):
        # Exits leave a hop in the order their transmissions complete only
        # while its delay is constant: a batched stream's pending arrivals
        # at the next hop and the walk's delivery queues rely on that.
        link = Link(Simulator(), 1e6, prop_delay=0.02)
        with pytest.raises(AttributeError):
            link.prop_delay = 0.0
        assert link.prop_delay == 0.02

    @pytest.mark.parametrize("arg", ["capacity_bps", "prop_delay", "buffer_bytes"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_argument_rejected(self, arg, value):
        kwargs = {"capacity_bps": 1e6, arg: value}
        with pytest.raises(ValueError, match=arg):
            Link(Simulator(), **kwargs)

    def test_unwired_delivery_raises(self):
        sim = Simulator()
        link = Link(sim, 1e6)
        link.send(Packet(100))
        with pytest.raises(RuntimeError, match="delivery callback"):
            sim.run()

    def test_bad_packet_size(self):
        with pytest.raises(ValueError):
            Packet(0)
