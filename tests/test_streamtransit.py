"""Equivalence tests for the event-elided probe-stream transit.

The stream-transit fast path's contract is *bit identity*: on every
eligible configuration, :class:`PacketRecord` stamps, link stats, monitor
samples, and pathload reports must equal — with ``==``, not ``approx`` —
what the per-packet path produces, because the walk evaluates the same
per-hop Lindley recursion in the same floating-point order.  Ineligible
configurations (qdiscs or hooks on a forward or reverse link, RNG-bearing
clocks) must fall back automatically.  Per-packet neighbours (a
``fast=False`` TCP flow, a pinger, per-packet cross traffic) keep no
stream out of the walk, and mid-stream interference (a TCP flow
attaching, a per-packet flow sending, a monitor read) takes nothing back
— the walk never runs past the next real event — while a link
decommission dissolves the walk onto the per-packet machinery; either
way the sample path is identical.

Exact-time ties (documented in docs/performance.md): a real event at
exactly a probe-send instant runs before that send on both paths when it
was scheduled before the previous send ran, because the walk stops short
of the next real event; :class:`TestExactTies` pins this.  Ties that
hinge on finer insertion history stay outside the contract, so the other
interference times in these tests are off-grid, as any real
configuration's are.
"""

import numpy as np
import pytest

from repro.core.probing import StreamSpec
from repro.netsim import LinkSpec, Simulator, build_path
from repro.netsim.clock import NoisyClock, SkewedClock
from repro.netsim.crosstraffic import CrossTrafficSource
from repro.netsim.engine import SimulationError
from repro.netsim.qdisc import REDQueue
from repro.netsim.topologies import build_single_hop_path
from repro.transport.ping import Pinger
from repro.transport.probe import ProbeChannel, SendJitter, run_pathload
from repro.transport.tcp import open_connection

from .test_flowtransit import flow_state


# ----------------------------------------------------------------------
# Drivers
# ----------------------------------------------------------------------
def run_streams(
    fast,
    hops=1,
    buffer_bytes=None,
    utilization=0.0,
    jitter_prob=0.0,
    jitter_delay=2e-4,
    capacities=None,
    skewed_clocks=False,
    n_streams=3,
    rate_bps=8e6,
    n_packets=60,
    seed=7,
    sanitize=False,
    tcp_at=None,
    tcp_bytes=120_000,
    tcp_fast=None,
    monitor_at=(),
    qdisc_hop=None,
    clocks=None,
    cap_install=None,
    prepare=None,
):
    """Send ``n_streams`` probe streams; return every observable series.

    ``capacities`` sets each hop's rate (default 10 Mb/s on every hop).
    ``prepare(sim, net)`` runs once the path is built, before the channel.
    """
    sim = Simulator(sanitize=sanitize)
    if utilization > 0.0:
        rng = np.random.default_rng(seed)
        setup = build_single_hop_path(
            sim, 10e6, utilization, rng, buffer_bytes=buffer_bytes
        )
        net = setup.network
    else:
        specs = [
            LinkSpec(cap, prop_delay=1e-3, buffer_bytes=buffer_bytes, name=f"hop{i}")
            for i, cap in enumerate(capacities or [10e6] * hops)
        ]
        net = build_path(sim, specs)
    if qdisc_hop is not None:
        net.forward_links[qdisc_hop].qdisc = REDQueue(
            5_000, 20_000, np.random.default_rng(seed + 1)
        )
    if cap_install is not None:
        at, segments = cap_install
        sim.schedule_at(
            at, lambda: net.forward_links[0].set_capacity_segments(segments)
        )
    if prepare is not None:
        prepare(sim, net)
    if clocks is not None:
        sender_clock, receiver_clock = clocks(sim)
    elif skewed_clocks:
        sender_clock = SkewedClock(offset=0.013, skew_ppm=40.0)
        receiver_clock = SkewedClock(offset=-0.007, skew_ppm=-25.0)
    else:
        sender_clock = receiver_clock = None
    jitter = (
        SendJitter(
            np.random.default_rng(seed + 2), prob=jitter_prob, max_delay=jitter_delay
        )
        if jitter_prob
        else None
    )
    chan = ProbeChannel(
        sim,
        net,
        sender_clock=sender_clock,
        receiver_clock=receiver_clock,
        jitter=jitter,
        fast=fast,
    )
    if tcp_at is not None:
        open_connection(
            sim, net, total_bytes=tcp_bytes, start=tcp_at, fast=tcp_fast
        )
    backlog_samples = []
    for t in monitor_at:
        sim.schedule_at(
            t,
            lambda: backlog_samples.append(
                (sim.now, [lk.backlog_bytes() for lk in net.forward_links])
            ),
        )
    spec = StreamSpec(rate_bps=rate_bps, packet_size=300, n_packets=n_packets)
    measurements = []
    start = 2.0
    for _ in range(n_streams):
        holder = {}
        sim.schedule_at(start, lambda: holder.update(ev=chan.send_stream(spec)))
        sim.run(until=start)
        m = sim.run_until(holder["ev"], limit=start + 30.0)
        measurements.append(
            (
                m.n_sent,
                m.n_received,
                tuple((r.seq, r.sender_stamp, r.recv_stamp) for r in m.records),
            )
        )
        start = sim.now + 0.013
    stats = [lk.stats.snapshot() for lk in net.forward_links]
    return measurements, stats, backlog_samples, chan, sim


def run_quick_pathload(
    fast, seed=11, utilization=0.3, tcp_at=None, tcp_fast=None, tracer=None
):
    """One short single-hop pathload; returns (report, stats, channel)."""
    sim = Simulator()
    if tracer is not None:
        tracer.attach(sim)
    rng = np.random.default_rng(seed)
    setup = build_single_hop_path(sim, 10e6, utilization, rng)
    if tracer is not None:
        tracer.register_network(setup.network)
    chan = ProbeChannel(sim, setup.network, fast=fast)
    if tcp_at is not None:
        open_connection(
            sim, setup.network, total_bytes=150_000, start=tcp_at, fast=tcp_fast
        )
    report = run_pathload(
        sim, setup.network, start=2.0, channel=chan, time_limit=600.0
    )
    stats = [lk.stats.snapshot() for lk in setup.network.forward_links]
    return report, stats, chan


# ----------------------------------------------------------------------
# Bit equality on eligible configurations
# ----------------------------------------------------------------------
class TestBitEquality:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(hops=1),
            dict(hops=3),
            dict(hops=2, buffer_bytes=4_000, rate_bps=9.5e6),
            dict(utilization=0.5),
            dict(utilization=0.7, buffer_bytes=15_000),
            dict(hops=2, jitter_prob=0.3),
            dict(utilization=0.4, jitter_prob=0.2, skewed_clocks=True),
            dict(hops=1, skewed_clocks=True, rate_bps=12e6),
        ],
        ids=[
            "idle-1hop",
            "idle-3hop",
            "droptail-2hop",
            "cross-0.5",
            "cross-0.7-finite",
            "jitter-2hop",
            "cross-jitter-skew",
            "overload-skew",
        ],
    )
    def test_streams_bit_identical(self, kwargs):
        mf, sf, _, chf, _ = run_streams(True, **kwargs)
        ms, ss, _, chs, _ = run_streams(False, **kwargs)
        assert mf == ms
        assert sf == ss
        assert chf.fastpath_streams == len(mf)
        assert not chf.fastpath_fallbacks
        assert chs.fastpath_streams == 0
        assert chs.fastpath_fallbacks.get("disabled") == len(ms)

    def test_pathload_report_bit_identical(self):
        rf, sf, chf = run_quick_pathload(True)
        rs, ss, _ = run_quick_pathload(False)
        assert rf == rs
        assert sf == ss
        assert chf.fastpath_streams == rf.n_streams_sent
        assert not chf.fastpath_fallbacks

    def test_mid_stream_monitor_read_uses_interleaved_fold(self):
        # Reads landing inside the stream window are real events, so the
        # walk folds the stream up to each one and resumes after it: the
        # read must see the per-packet queue state.  Off the send grid (multiples of
        # the 0.3 ms period); exact-time ties are TestExactTies' business.
        times = (2.0051234, 2.0087071, 2.0123777)
        mf, sf, bf, _, _ = run_streams(
            True, utilization=0.6, monitor_at=times, n_streams=2
        )
        ms, ss, bs, _, _ = run_streams(
            False, utilization=0.6, monitor_at=times, n_streams=2
        )
        assert bf == bs
        assert len(bf) == len(times)
        assert mf == ms
        assert sf == ss


# ----------------------------------------------------------------------
# Piecewise-constant capacity schedules (Section VI dynamics)
# ----------------------------------------------------------------------
class TestCapacitySchedule:
    # Boundaries off the 0.3 ms probe-send grid, straddling the first
    # stream's ~17.7 ms window so the plan crosses rate changes mid-walk.
    SEGMENTS = ((2.00312345, 6e6), (2.00921234, 14e6))

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(hops=1),
            dict(hops=2),
            dict(utilization=0.5),
            dict(hops=1, buffer_bytes=4_000, rate_bps=9.5e6),
            dict(utilization=0.6, buffer_bytes=15_000),
        ],
        ids=["idle-1hop", "idle-2hop", "cross-0.5", "droptail", "cross-finite"],
    )
    def test_scheduled_link_bit_identical(self, kwargs):
        kwargs = dict(kwargs, cap_install=(1.0, self.SEGMENTS))
        mf, sf, _, chf, _ = run_streams(True, **kwargs)
        ms, ss, _, chs, _ = run_streams(False, **kwargs)
        assert mf == ms
        assert sf == ss
        # Planning stays engaged: the walks look the rate up per
        # admission instead of refusing the hop.
        assert chf.fastpath_streams == len(mf)
        assert not chf.fastpath_fallbacks
        assert chs.fastpath_streams == 0

    def test_scheduled_link_shadow_verify_passes(self):
        # Under sanitize every round is shadow-replayed; the run must not
        # raise and must still equal per-packet.
        kwargs = dict(utilization=0.5, cap_install=(1.0, self.SEGMENTS))
        mf, sf, _, chf, _ = run_streams(True, sanitize=True, **kwargs)
        ms, ss, _, _, _ = run_streams(False, **kwargs)
        assert mf == ms
        assert sf == ss
        assert chf.fastpath_streams == len(mf)

    def test_install_mid_stream_revokes_then_matches(self):
        # Installing a schedule while a stream is in transit is a
        # planning chokepoint: the walk dissolves, revoking its future
        # admissions (they would be priced by the new rate function), and
        # the remainder continues per-packet.  The second install comes
        # after the first stream's first deliveries, so that measurement
        # holds a committed walk slice, stamped by one array read of each
        # skewed clock, followed by per-packet arrivals stamped one read
        # at a time.
        for at, segments, skewed in (
            (2.00512345, ((2.00791234, 6e6), (2.01321234, 14e6)), False),
            (2.01512345, ((2.01791234, 6e6), (2.02321234, 14e6)), True),
        ):
            kwargs = dict(
                utilization=0.4, cap_install=(at, segments), skewed_clocks=skewed
            )
            mf, sf, _, chf, _ = run_streams(True, **kwargs)
            ms, ss, _, _, _ = run_streams(False, **kwargs)
            assert mf == ms
            assert sf == ss
            assert chf.fastpath_fallbacks.get("link-decommission") == 1


# ----------------------------------------------------------------------
# Planning refusals (fallback before the stream starts)
# ----------------------------------------------------------------------
class TestRefusal:
    def test_disabled_channel_counts_fallbacks(self):
        _, _, _, chan, _ = run_streams(False, n_streams=2)
        assert chan.fast is False
        assert chan.fastpath_fallbacks == {"disabled": 2}

    def test_no_fast_env_disables_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_FAST", "1")
        sim = Simulator()
        net = build_path(sim, [LinkSpec(10e6)])
        assert ProbeChannel(sim, net).fast is False
        monkeypatch.delenv("REPRO_NO_FAST")
        assert ProbeChannel(sim, net).fast is True

    def test_qdisc_forces_per_packet(self):
        mf, sf, _, chan, _ = run_streams(True, hops=2, qdisc_hop=1, n_streams=2)
        assert chan.fastpath_streams == 0
        assert chan.fastpath_fallbacks == {"link-config": 2}
        ms, ss, _, _, _ = run_streams(False, hops=2, qdisc_hop=1, n_streams=2)
        assert mf == ms and sf == ss

    def test_impure_clock_forces_per_packet(self):
        def clocks(sim):
            return NoisyClock(np.random.default_rng(5), noise_max=2e-6), None

        _, _, _, chan, _ = run_streams(True, clocks=clocks, n_streams=2)
        assert chan.fastpath_streams == 0
        assert chan.fastpath_fallbacks == {"impure-clock": 2}

    def test_reverse_link_hook_forces_per_packet(self):
        # The gate checks the reverse chain too: a drop hook there keeps
        # every stream per-packet, with the same sample path.
        kwargs = dict(hops=2, n_streams=2, prepare=_reverse_drop_hook)
        mf, sf, _, chan, _ = run_streams(True, **kwargs)
        assert chan.fastpath_streams == 0
        assert chan.fastpath_fallbacks == {"link-config": 2}
        ms, ss, _, _, _ = run_streams(False, **kwargs)
        assert mf == ms and sf == ss


def _observe_drop(pkt):
    """A pure drop hook."""


def _reverse_drop_hook(sim, net):
    net.reverse_links[0].drop_hook = _observe_drop


# ----------------------------------------------------------------------
# Per-packet neighbours: streams still ride the walk
# ----------------------------------------------------------------------
def _per_packet_flow(sim, net):
    snd, rcv = open_connection(
        sim, net, total_bytes=30_000_000, start=1.50007, fast=False
    )
    return lambda: flow_state(snd, rcv)


def _pinger(sim, net):
    ping = Pinger(sim, net, interval=0.00313, start=1.50007)
    return lambda: (tuple(ping.rtts), ping.sent, ping.lost)


def _per_packet_cross(sim, net):
    src = CrossTrafficSource(
        sim, net, net.forward_links[0], 1e6, np.random.default_rng(3),
        model="poisson", start=1.50007, bulk=False,
    )
    return lambda: (src.packets_sent, src.bytes_sent, src.is_bulk)


NEIGHBOURS = {
    "per-packet-tcp": _per_packet_flow,
    "pinger": _pinger,
    "per-packet-cross": _per_packet_cross,
}


def run_beside(fast, neighbour):
    """Three streams over a 30 %-loaded hop while the per-packet
    ``neighbour`` shares the path from before the first stream; returns
    the measurements, the hop stats, what the neighbour observed and the
    channel."""
    observers = []
    mf, sf, _, chan, _ = run_streams(
        fast, utilization=0.3,
        prepare=lambda sim, net: observers.append(NEIGHBOURS[neighbour](sim, net)),
    )
    return mf, sf, observers[0](), chan


class TestPerPacketNeighbours:
    @pytest.mark.parametrize("neighbour", list(NEIGHBOURS))
    def test_streams_ride_the_walk_beside(self, neighbour):
        # Every send of the neighbour is a real event the walk stops
        # short of, so no stream falls back and nothing differs.
        mf, sf, of, chf = run_beside(True, neighbour)
        ms, ss, os_, chs = run_beside(False, neighbour)
        assert chf.fastpath_streams == len(mf) == 3
        assert chf.fastpath_fallbacks == {}
        assert mf == ms
        assert of == os_
        assert sf == ss
        assert chs.fastpath_streams == 0


# ----------------------------------------------------------------------
# Mid-stream interference: nothing is revoked
# ----------------------------------------------------------------------
class TestRevocation:
    @pytest.mark.parametrize("tcp_at", [2.0123457, 2.0300003])
    def test_tcp_attach_mid_stream(self, tcp_at):
        # The TCP flow attaches to the walk mid-stream (off-grid instant):
        # the batched stream's pending arrivals switch to per-packet
        # admissions interleaved with the flow, nothing falls back, and
        # every observable matches.
        kwargs = dict(
            tcp_at=tcp_at, n_streams=1, n_packets=200, buffer_bytes=25_000,
            utilization=0.3,
        )
        mf, sf, _, chan, _ = run_streams(True, **kwargs)
        assert chan.fastpath_fallbacks == {}
        assert chan.fastpath_streams == 1
        ms, ss, _, _, _ = run_streams(False, **kwargs)
        assert mf == ms
        assert sf == ss

    def test_pathload_with_tcp_crossfire(self):
        # The crossfire flow runs per-packet through real Link.send events;
        # the walk never runs past one, so every stream stays elided.
        rf, sf, chf = run_quick_pathload(True, tcp_at=2.01003, tcp_fast=False)
        rs, ss, _ = run_quick_pathload(False, tcp_at=2.01003, tcp_fast=False)
        assert rf == rs and sf == ss
        assert chf.fastpath_fallbacks == {}
        assert chf.fastpath_streams == rf.n_streams_sent

    def test_overlapping_streams_share_the_walk(self):
        # A second channel's stream starts while the first is batched in
        # flight: the first switches to per-packet admissions and the
        # second joins it there, so both interleave on every hop.
        def run(fast):
            sim = Simulator()
            net = build_path(
                sim,
                [LinkSpec(10e6, prop_delay=1e-3, buffer_bytes=6_000, name=f"hop{i}") for i in range(3)],
            )
            spec = StreamSpec(rate_bps=6e6, packet_size=300, n_packets=80)
            chans = [ProbeChannel(sim, net, fast=fast) for _ in range(2)]
            out = []
            for chan, t in zip(chans, (2.0, 2.0071234)):
                sim.schedule_at(
                    t,
                    lambda chan=chan: chan.send_stream(spec).add_callback(
                        lambda m: out.append(
                            tuple((r.seq, r.sender_stamp, r.recv_stamp) for r in m.records)
                        )
                    ),
                )
            sim.run(until=3.0)
            stats = [lk.stats.snapshot() for lk in net.forward_links]
            return out, stats, [c.fastpath_streams for c in chans]

        outf, sf, nf = run(True)
        outs, ss, _ = run(False)
        assert outf == outs
        assert sf == ss
        assert nf == [1, 1]
        assert sum(s["packets_dropped"] for s in sf) > 0

    def test_deadline_finalize_with_drops(self):
        # A stream over its own tiny drop-tail buffer: the closing packet
        # can be dropped, so the deadline event finalizes, and straggler
        # commit order (strict < at the deadline) must match per-packet.
        kwargs = dict(
            buffer_bytes=1_200, rate_bps=14e6, n_packets=80, n_streams=2
        )
        mf, sf, _, _, _ = run_streams(True, **kwargs)
        ms, ss, _, _, _ = run_streams(False, **kwargs)
        assert mf == ms
        assert sf == ss
        # The scenario actually exercises loss.
        assert any(m[1] < m[0] for m in mf)


# ----------------------------------------------------------------------
# Sends after finalization (jittered stragglers)
# ----------------------------------------------------------------------
class TestStragglerSends:
    # Heavy send jitter can push a packet's send past the closing
    # packet's delivery.  The per-packet sender still sends it — a lost
    # straggler that nevertheless loads the links — and so must the walk.
    KWARGS = dict(
        hops=2, capacities=(10e6, 20e6), jitter_prob=0.5, rate_bps=4e6,
        n_packets=60, seed=1, tcp_bytes=400_000,
    )

    @pytest.mark.parametrize("max_delay", [2e-4, 0.01, 0.05])
    @pytest.mark.parametrize("tcp", [False, True], ids=["solo", "tcp"])
    def test_sends_after_finalize_match(self, tcp, max_delay):
        kwargs = dict(
            self.KWARGS, jitter_delay=max_delay, tcp_at=1.0 if tcp else None
        )
        mf, sf, _, chf, _ = run_streams(True, tcp_fast=True, **kwargs)
        ms, ss, _, _, _ = run_streams(False, tcp_fast=False, **kwargs)
        assert mf == ms
        assert sf == ss
        assert chf.fastpath_streams == len(mf)

    @pytest.mark.parametrize("tcp", [False, True], ids=["solo", "tcp"])
    def test_dissolve_resumes_finalized_stream(self, tcp):
        # The first stream's closing packet is delivered at ~2.07175 s and
        # its last jittered send is due at ~2.07487 s.  A capacity schedule
        # installed in between dissolves the walk; the finalized stream's
        # unsent packets must still go out, per-packet.
        kwargs = dict(
            self.KWARGS, jitter_delay=0.05, tcp_at=1.0 if tcp else None,
            cap_install=(2.0736123, ((2.0900123, 8e6), (2.1500123, 12e6))),
        )
        mf, sf, _, _, _ = run_streams(True, tcp_fast=True, **kwargs)
        ms, ss, _, _, _ = run_streams(False, tcp_fast=False, **kwargs)
        assert mf == ms
        assert sf == ss


# ----------------------------------------------------------------------
# Exact-time ties between a real event and a probe send
# ----------------------------------------------------------------------
class TestExactTies:
    @pytest.mark.parametrize("read_first", [True, False], ids=["read-first", "stream-first"])
    def test_read_at_a_send_instant(self, read_first):
        # A read scheduled at exactly the 4th send instant — before the
        # stream starts, or right after — runs before that send on the
        # per-packet path, which schedules each send only when the
        # previous one runs.  The walk stops short of the read, so it
        # agrees: the 4th probe is not yet in hop 0.
        def run(fast):
            sim = Simulator()
            net = build_path(sim, [LinkSpec(10e6, prop_delay=1e-3, name="hop0")])
            link = net.forward_links[0]
            chan = ProbeChannel(sim, net, fast=fast)
            spec = StreamSpec(rate_bps=8e6, packet_size=300, n_packets=10)
            t0 = 2.0
            t_read = t0 + 3 * spec.period  # the schedule's own expression
            reads = []

            def read():
                reads.append((link.backlog_bytes(), link.stats.packets_forwarded))

            def launch():
                chan.send_stream(spec)
                if not read_first:
                    sim.schedule_at(t_read, read)

            if read_first:
                sim.schedule_at(t_read, read)
            sim.schedule_at(t0, launch)
            sim.run(until=3.0)
            return reads, chan.fastpath_streams

        (fast_reads, n_fast), (slow_reads, _) = run(True), run(False)
        assert fast_reads == slow_reads == [(0, 3)]
        assert n_fast == 1


# ----------------------------------------------------------------------
# Observability: tracing, digests, counters
# ----------------------------------------------------------------------
class TestObservability:
    def test_traced_report_equals_untraced(self):
        from repro.obs import Tracer

        tracer = Tracer()
        rt, st, _ = run_quick_pathload(True, tracer=tracer)
        ru, su, _ = run_quick_pathload(True)
        assert rt == ru
        assert st == su
        streams = tracer.metrics.counter("repro_fastpath_streams_total")
        assert streams.value == rt.n_streams_sent

    def test_full_tracer_registered_mid_stream(self):
        # A full tracer registered while a batched stream is in flight
        # switches the stream to per-packet admissions, which make the
        # link callbacks Link.send would; the sample path is unchanged.
        from repro.obs import Tracer

        def run(fast, tracer=None):
            sim = Simulator()
            net = build_path(
                sim, [LinkSpec(10e6, prop_delay=1e-3, name=f"hop{i}") for i in range(2)]
            )
            chan = ProbeChannel(sim, net, fast=fast)
            spec = StreamSpec(rate_bps=9.5e6, packet_size=300, n_packets=60)
            out = []

            def launch():
                chan.send_stream(spec).add_callback(
                    lambda m: out.append(
                        tuple((r.seq, r.sender_stamp, r.recv_stamp) for r in m.records)
                    )
                )

            def trace():
                tracer.attach(sim)
                tracer.register_network(net)

            sim.schedule_at(2.0, launch)
            if tracer is not None:
                sim.schedule_at(2.0051234, trace)
            sim.run(until=3.0)
            return out, [lk.stats.snapshot() for lk in net.forward_links], chan

        tracer = Tracer()
        traced, st, chan = run(True, tracer)
        assert (traced, st) == run(False)[:2]
        assert chan.fastpath_streams == 1 and chan.fastpath_fallbacks == {}
        gauge = tracer.collect_metrics().gauge(
            "repro_link_queue_high_water_bytes", labels={"link": "hop0"}
        )
        assert gauge.value > 0

    def test_traced_digest_reproducible_within_mode(self):
        from repro.obs import Tracer

        t1, t2 = Tracer(), Tracer()
        r1, _, _ = run_quick_pathload(True, tracer=t1)
        r2, _, _ = run_quick_pathload(True, tracer=t2)
        assert r1 == r2
        assert t1.event_digest() == t2.event_digest()

    def test_fallback_counter_labels(self):
        from repro.obs import Tracer

        tracer = Tracer()
        sim = Simulator()
        tracer.attach(sim)
        net = build_path(sim, [LinkSpec(10e6, prop_delay=1e-3)])
        chan = ProbeChannel(sim, net, fast=False)
        holder = {}
        spec = StreamSpec(rate_bps=8e6, packet_size=300, n_packets=10)
        sim.schedule_at(1.0, lambda: holder.update(ev=chan.send_stream(spec)))
        sim.run(until=1.0)
        sim.run_until(holder["ev"], limit=10.0)
        fallback = tracer.metrics.counter(
            "repro_fastpath_fallback_total", labels={"reason": "disabled"}
        )
        assert fallback.value == 1


# ----------------------------------------------------------------------
# Sanitize mode: shadow verification
# ----------------------------------------------------------------------
class TestSanitize:
    def test_digest_reproducible_in_fast_mode(self):
        # Digests are compared within a mode only (events are elided
        # relative to per-packet, so cross-mode digests differ by design).
        _, _, _, _, sim1 = run_streams(True, utilization=0.5, sanitize=True)
        _, _, _, _, sim2 = run_streams(True, utilization=0.5, sanitize=True)
        assert sim1.digest() == sim2.digest()

    def test_shadow_detects_planner_corruption(self, monkeypatch):
        import repro.netsim.hopfold as hopfold

        # A batched stream's hop fold reports each probe's done time;
        # nudging the first one must trip the per-round shadow replay.
        # The walk folds through hopfold.fold_link, which looks fold up
        # in its own module.
        real_fold = hopfold.fold

        def bad_fold(*args):
            out = real_fold(*args)
            dones = out[7]
            if dones:
                dones[0] += 1e-9
            return out

        monkeypatch.setattr(hopfold, "fold", bad_fold)
        with pytest.raises(SimulationError, match="shadow"):
            run_streams(True, utilization=0.5, sanitize=True, n_streams=1)
