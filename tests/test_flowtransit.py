"""Equivalence tests for the event-elided TCP flow transit.

The flow-transit domain's contract mirrors the stream fast path's: bit
identity, with ``==`` and never ``approx``.  Every sender/receiver
observable — sequence state, cwnd trajectory, RTT estimator internals,
delivery log, link statistics — must equal what the per-packet path
produces on every eligible configuration, because the domain walks the
same per-hop Lindley recursion in the same floating-point order.  Both
paths run the same sans-IO endpoints of ``repro.transport.tcp`` (Reno,
Vegas, delayed ACKs) through different ports, so this matrix checks the
walk's port and hop admissions; ``tests/test_tcp.py`` pins the
trajectories themselves to digests recorded before the paths shared
their code.  Refused flows (tracer-attached runs) and mid-flight
eligibility breaks (link decommission while an RTO timer is pending)
must land on a sample path identical to a run that never planned.

The headline regression here is intrusiveness (paper Section VII /
figs 17-18): concurrent SLoPS probe streams ride the domain's walk
beside the foreground TCP flow, whether the walk carries that flow or
the flow runs per-packet.
"""

import importlib

import numpy as np
import pytest

from repro.core.probing import StreamSpec
from repro.netsim import LinkSpec, Simulator, attach_cross_traffic, build_path
from repro.netsim.engine import SimulationError
from repro.netsim.qdisc import REDQueue
from repro.netsim.topologies import build_single_hop_path
from repro.transport.probe import ProbeChannel
from repro.transport.tcp import TCPConfig, open_connection


# ----------------------------------------------------------------------
# Drivers
# ----------------------------------------------------------------------
def flow_state(snd, rcv):
    """Every observable a TCP connection exposes, as an ``==``-able tuple."""
    return (
        snd.snd_una,
        snd.snd_nxt,
        snd.cwnd,
        snd.ssthresh,
        snd.srtt,
        snd.rttvar,
        snd.rto,
        snd.base_rtt,
        snd.segments_sent,
        snd.retransmits,
        snd.timeouts,
        tuple(snd.cwnd_log),
        rcv.rcv_nxt,
        rcv.acks_sent,
        tuple(rcv.delivered_log),
        tuple(sorted(rcv._out_of_order.items())),
    )


def run_flow(
    fast,
    cc="reno",
    delayed_ack=False,
    buffer_bytes=None,
    hops=1,
    utilization=0.0,
    total_bytes=600_000,
    until=30.0,
    sanitize=False,
    min_rto=0.5,
    seed=7,
    n_streams=0,
    stream_start=0.05,
    mutate_at=None,
    mutate=None,
    second_flow_at=None,
    reads=None,
    read_at=(),
):
    """One TCP transfer (plus optional concurrent probe streams).

    At each instant of ``read_at`` a real callback appends to ``reads`` what a monitor sees on every
    forward and reverse link: stats, backlog and queueing delay.
    """
    sim = Simulator(sanitize=sanitize)
    specs = [
        LinkSpec(10e6, prop_delay=1e-3, buffer_bytes=buffer_bytes, name=f"hop{i}")
        for i in range(hops)
    ]
    if utilization > 0.0 and hops == 1:
        rng = np.random.default_rng(seed)
        setup = build_single_hop_path(
            sim, 10e6, utilization, rng, buffer_bytes=buffer_bytes
        )
        net = setup.network
    else:
        net = build_path(sim, specs)
        if utilization > 0.0:
            rng = np.random.default_rng(seed)
            for link in net.forward_links:
                attach_cross_traffic(
                    sim, net, link, 10e6 * utilization, rng, n_sources=4
                )
    cfg = TCPConfig(
        congestion_control=cc, delayed_ack=delayed_ack, min_rto=min_rto
    )
    snd, rcv = open_connection(
        sim, net, config=cfg, total_bytes=total_bytes, start=0.0, fast=fast
    )
    flows = [(snd, rcv)]
    if second_flow_at is not None:
        snd2, rcv2 = open_connection(
            sim,
            net,
            config=cfg,
            total_bytes=total_bytes // 2,
            start=second_flow_at,
            fast=fast,
        )
        flows.append((snd2, rcv2))
    chan = None
    measurements = []
    if n_streams:
        chan = ProbeChannel(sim, net, fast=fast)
        spec = StreamSpec(rate_bps=4e6, packet_size=300, n_packets=40)

        def launch(i):
            ev = chan.send_stream(spec)
            ev.add_callback(
                lambda m: measurements.append(
                    (
                        m.n_sent,
                        m.n_received,
                        tuple(
                            (r.seq, r.sender_stamp, r.recv_stamp)
                            for r in m.records
                        ),
                    )
                )
            )

        for i in range(n_streams):
            sim.schedule_at(stream_start + 0.0513 * i, launch, i)
    if mutate_at is not None:
        sim.schedule_at(mutate_at, mutate, net)

    def read():
        reads.append(
            tuple(
                (lk.stats.snapshot(), lk.backlog_bytes(), lk.queueing_delay())
                for lk in (*net.forward_links, *net.reverse_links)
            )
        )

    for t in read_at:
        sim.schedule_at(t, read)
    sim.run(until=until)
    states = tuple(flow_state(s, r) for s, r in flows)
    stats = tuple(lk.stats.snapshot() for lk in net.forward_links)
    return states, stats, measurements, net, chan


MATRIX = [
    # (cc, delayed_ack, buffer_bytes, hops, utilization)
    ("reno", False, None, 1, 0.0),
    ("reno", False, None, 2, 0.0),
    ("reno", False, 25_000, 1, 0.0),  # finite buffer: loss recovery + RTO
    ("reno", False, 25_000, 1, 0.3),  # ... plus cross traffic
    ("reno", True, None, 1, 0.0),  # delayed ack: the walk's delack timer
    ("reno", True, 25_000, 1, 0.3),
    ("vegas", False, None, 1, 0.0),
    ("vegas", True, 25_000, 1, 0.3),
]


# ----------------------------------------------------------------------
# The bit-equality matrix
# ----------------------------------------------------------------------
class TestEquality:
    @pytest.mark.parametrize("cc,delack,buf,hops,util", MATRIX)
    def test_flow_matrix(self, cc, delack, buf, hops, util):
        kwargs = dict(
            cc=cc, delayed_ack=delack, buffer_bytes=buf, hops=hops,
            utilization=util,
        )
        stf, sf, _, netf, _ = run_flow(True, **kwargs)
        sts, ss, _, _, _ = run_flow(False, **kwargs)
        assert stf == sts
        assert sf == ss
        assert netf._ft_flows == 1

    def test_two_planned_flows_share_domain(self):
        kwargs = dict(total_bytes=300_000, second_flow_at=0.31003)
        stf, sf, _, netf, _ = run_flow(True, **kwargs)
        sts, ss, _, _, _ = run_flow(False, **kwargs)
        assert stf == sts
        assert sf == ss
        assert netf._ft_flows == 2

    def test_sanitize_shadow_verification_passes(self):
        st1, s1, _, _, _ = run_flow(True, sanitize=True, utilization=0.3)
        st2, s2, _, _, _ = run_flow(True, sanitize=False, utilization=0.3)
        assert st1 == st2 and s1 == s2

    @pytest.mark.parametrize("n_streams", [0, 2])
    @pytest.mark.parametrize("util", [0.0, 0.3])
    @pytest.mark.parametrize("buf", [None, 25_000])
    def test_real_reads_see_per_packet_state(self, buf, util, n_streams):
        # The walk admits straight into live link state, so a real reader
        # at any instant -- in slow start, mid-transfer, during the probe
        # streams, after the transfer -- must see on every forward and
        # reverse link exactly what the per-packet path shows there.
        read_at = (0.0100123, 0.0600457, 0.0900789, 0.2500123, 0.4000456, 1.6001234)
        kwargs = dict(
            buffer_bytes=buf, utilization=util, n_streams=n_streams,
            read_at=read_at,
        )
        readsf, readss = [], []
        stf, sf, mf, netf, chf = run_flow(True, reads=readsf, **kwargs)
        sts, ss, ms, _, _ = run_flow(False, reads=readss, **kwargs)
        assert len(readsf) == len(read_at)
        assert len(readsf[0]) == len(netf.forward_links) + len(netf.reverse_links) == 2
        assert readsf == readss
        assert (stf, sf, mf) == (sts, ss, ms)
        assert netf._ft_flows == 1
        if n_streams:
            assert chf.fastpath_streams == n_streams

    def test_flow_spans_recorded(self):
        _, _, _, net, _ = run_flow(True, total_bytes=100_000)
        assert len(net._ft_spans) == 1
        t0, t1, flow_id, segments = net._ft_spans[0]
        assert t1 > t0 and segments > 0


class TestShadow:
    @pytest.mark.parametrize("mutant", ["shift-done", "drop-accepted", "skip-stats"])
    def test_shadow_detects_walk_corruption(self, monkeypatch, mutant):
        # Corrupt one admission of the walk, after a few dozen good ones:
        # the sanitize shadow must notice a done off by 1e-9, a segment
        # the buffer accepted but the walk dropped, and LinkStats left
        # without the admission's counts.
        import repro.netsim.flowtransit as ft

        real = ft.admit
        state = {"calls": 0, "hit": False}

        def corrupt(link, t, size):
            state["calls"] += 1
            before = link._stats.snapshot()
            done = real(link, t, size)
            if state["hit"] or state["calls"] < 50 or done is None or size != 1500:
                return done
            state["hit"] = True
            if mutant == "shift-done":
                return done + 1e-9
            if mutant == "drop-accepted":
                return None
            for key, value in before.items():  # skip-stats
                setattr(link._stats, key, value)
            return done

        monkeypatch.setattr(ft, "admit", corrupt)
        with pytest.raises(SimulationError, match="shadow"):
            run_flow(True, sanitize=True, buffer_bytes=25_000, total_bytes=200_000)
        assert state["hit"]


# ----------------------------------------------------------------------
# Probe coexistence (the figs 17-18 intrusiveness fix)
# ----------------------------------------------------------------------
class TestProbeCoexistence:
    def test_probe_not_refused_while_flow_planned(self):
        # With the foreground flow planner-managed, probe streams are
        # adopted into the same walk, not refused.
        kwargs = dict(n_streams=3, utilization=0.3, total_bytes=2_000_000)
        stf, sf, mf, netf, chf = run_flow(True, **kwargs)
        assert chf.fastpath_streams == 3
        assert chf.fastpath_fallbacks == {}
        assert netf._ft_flows == 1
        sts, ss, ms, _, chs = run_flow(False, **kwargs)
        assert stf == sts
        assert sf == ss
        assert mf == ms

    def test_probes_ride_the_walk_beside_a_per_packet_flow(self):
        # A flow that runs per-packet (fast=False) sends through real
        # Link.send events, which the walk never runs past: the streams
        # ride the walk and every observable equals the per-packet run.
        def run(fast):
            sim = Simulator()
            rng = np.random.default_rng(7)
            setup = build_single_hop_path(sim, 10e6, 0.3, rng)
            net = setup.network
            snd, rcv = open_connection(
                sim, net, config=TCPConfig(min_rto=0.5), total_bytes=2_000_000,
                start=0.0, fast=False,
            )
            chan = ProbeChannel(sim, net, fast=fast)
            spec = StreamSpec(rate_bps=4e6, packet_size=300, n_packets=40)
            out = []

            def launch():
                chan.send_stream(spec).add_callback(out.append)

            for t in (0.05, 0.1013):
                sim.schedule_at(t, launch)
            sim.run(until=5.0)
            links = (*net.forward_links, *net.reverse_links)
            return (
                out, flow_state(snd, rcv), [lk.stats.snapshot() for lk in links]
            ), chan

        fast, chf = run(True)
        slow, chs = run(False)
        assert chf.fastpath_streams == 2
        assert chf.fastpath_fallbacks == {}
        assert chs.fastpath_streams == 0
        assert len(fast[0]) == 2
        assert fast == slow

    def test_full_tracer_at_stream_send_leaves_the_stream_in_a_fresh_walk(
        self, monkeypatch
    ):
        # A full tracer attached in the callback that sends a stream,
        # before the walk's next round: plan_stream dissolves the walk
        # carrying the flow (reason tracer) and the stream rides a fresh
        # walk of its own, with the per-packet sample path.
        import repro.netsim.flowtransit as ft
        from repro.obs import Tracer

        def run(fast):
            sim = Simulator()
            net = build_path(sim, [LinkSpec(10e6, prop_delay=1e-3)])
            snd, rcv = open_connection(
                sim, net, config=TCPConfig(min_rto=0.5), total_bytes=400_000,
                start=0.0, fast=fast,
            )
            chan = ProbeChannel(sim, net, fast=fast)
            spec = StreamSpec(rate_bps=4e6, packet_size=300, n_packets=40)
            out = []

            def trace_and_send():
                tracer = Tracer()
                tracer.attach(sim)
                tracer.register_network(net)
                chan.send_stream(spec).add_callback(out.append)

            sim.schedule_at(0.0513, trace_and_send)
            sim.run(until=5.0)
            stats = [lk.stats.snapshot() for lk in (*net.forward_links, *net.reverse_links)]
            return (out, flow_state(snd, rcv), stats), chan, net

        monkeypatch.setattr(ft, "_warned_tracer", False)
        with pytest.warns(RuntimeWarning, match="trace-light"):
            fast, chf, netf = run(True)
        slow, _, _ = run(False)
        assert netf._ft_flows == 1
        assert netf._ft_fallbacks == {"tracer": 1}
        assert chf.fastpath_streams == 1
        assert chf.fastpath_fallbacks == {}
        assert len(fast[0]) == 1
        assert fast == slow

    def test_flow_attach_revokes_solo_stream_plan(self):
        # The probe stream starts alone, so the walk batches it; the TCP
        # flow attaching mid-stream ends the solo batching and moves its
        # pending arrivals onto per-packet admissions, with no fallback,
        # and the sample path still matches per-packet exactly.
        def run(fast):
            sim = Simulator()
            net = build_path(sim, [LinkSpec(10e6, prop_delay=1e-3)])
            chan = ProbeChannel(sim, net, fast=fast)
            spec = StreamSpec(rate_bps=4e6, packet_size=300, n_packets=200)
            out = []
            def launch():
                ev = chan.send_stream(spec)
                ev.add_callback(
                    lambda m: out.append(
                        tuple(
                            (r.seq, r.sender_stamp, r.recv_stamp)
                            for r in m.records
                        )
                    )
                )
            sim.schedule_at(1.0, launch)
            snd, rcv = open_connection(
                sim, net, config=TCPConfig(min_rto=0.5),
                total_bytes=200_000, start=1.0123457, fast=fast,
            )
            sim.run(until=10.0)
            return out, flow_state(snd, rcv), chan
        outf, stf, chf = run(True)
        outs, sts, _ = run(False)
        assert outf == outs
        assert stf == sts
        assert chf.fastpath_fallbacks == {}
        assert chf.fastpath_streams == 1


# ----------------------------------------------------------------------
# Mid-flight dissolves
# ----------------------------------------------------------------------
class TestRevocation:
    def test_link_decommission_dissolves_domain(self):
        # Installing a qdisc mid-transfer (with segments in virtual
        # flight and an RTO timer pending) must dissolve the domain onto
        # the per-packet path with an unchanged sample path.
        def mutate(net):
            net.forward_links[0].qdisc = REDQueue(
                1 << 29, 1 << 30, np.random.default_rng(3)
            )

        kwargs = dict(
            total_bytes=2_000_000, mutate_at=0.2000123, mutate=mutate
        )
        stf, sf, _, netf, _ = run_flow(True, **kwargs)
        sts, ss, _, _, _ = run_flow(False, **kwargs)
        assert stf == sts
        assert netf._ft_flows == 1
        assert netf._ft_fallbacks == {"link-decommission": 1}

    def test_decommission_with_adopted_streams(self):
        def mutate(net):
            net.forward_links[0].qdisc = REDQueue(
                1 << 29, 1 << 30, np.random.default_rng(3)
            )

        kwargs = dict(
            total_bytes=2_000_000, utilization=0.3, n_streams=3,
            mutate_at=0.1070123, mutate=mutate,
        )
        stf, sf, mf, netf, chf = run_flow(True, **kwargs)
        sts, ss, ms, _, _ = run_flow(False, **kwargs)
        assert stf == sts
        assert sf == ss
        assert mf == ms
        assert netf._ft_fallbacks == {"link-decommission": 1}

    def test_stop_detaches_cleanly(self):
        def run(fast):
            sim = Simulator()
            net = build_path(sim, [LinkSpec(10e6, prop_delay=1e-3)])
            snd, rcv = open_connection(
                sim, net, config=TCPConfig(min_rto=0.5),
                total_bytes=10_000_000, start=0.0, fast=fast,
            )
            sim.schedule_at(1.5000123, snd.stop)
            sim.run(until=5.0)
            return flow_state(snd, rcv)

        assert run(True) == run(False)

        # Two flows, the first stopped at an off-grid instant while both
        # have segments and acks queued for delivery: its deliveries leave
        # the walk for real events, and the other flow's stay queued in
        # order behind them.
        def run_two(fast):
            sim = Simulator()
            net = build_path(
                sim, [LinkSpec(10e6, prop_delay=0.02, buffer_bytes=30_000)]
            )
            flows = [
                open_connection(
                    sim, net, config=TCPConfig(min_rto=0.5),
                    total_bytes=10_000_000, start=start, fast=fast,
                )
                for start in (0.0, 0.2000345)
            ]
            queued = []

            def stop():
                domain = net._flow_domain
                if domain is not None:
                    for dq in (domain._dfwd, domain._drev):
                        queued.append({ev[3].sender.flow_id for ev in dq})
                flows[0][0].stop()

            sim.schedule_at(1.5000123, stop)
            sim.run(until=5.0)
            states = tuple(flow_state(s, r) for s, r in flows)
            stats = tuple(
                lk.stats.snapshot() for lk in (*net.forward_links, *net.reverse_links)
            )
            return states, stats, queued, net._ft_flows

        states, stats, queued, planned = run_two(True)
        assert queued == [{"tcp-0", "tcp-1"}] * 2
        assert planned == 2
        assert (states, stats) == run_two(False)[:2]

    def test_capacity_schedule_install_dissolves_domain(self):
        # Installing a drop hook mid-transfer is a planning chokepoint
        # like rebinding deliver: the domain dissolves onto the
        # per-packet path with an unchanged sample path.
        def mutate(net):
            net.forward_links[0].drop_hook = lambda pkt: None

        kwargs = dict(
            total_bytes=2_000_000, mutate_at=0.2000123, mutate=mutate
        )
        stf, sf, _, netf, _ = run_flow(True, **kwargs)
        sts, ss, _, _, _ = run_flow(False, **kwargs)
        assert stf == sts
        assert sf == ss
        assert netf._ft_flows == 1
        assert netf._ft_fallbacks == {"link-decommission": 1}


# ----------------------------------------------------------------------
# Figure-level regression: the Section VII point run
# ----------------------------------------------------------------------
class TestFigurePointRun:
    @pytest.mark.parametrize("seed", [150, 170])
    @pytest.mark.parametrize("figure", ["fig15_16_btc", "fig17_18_intrusiveness"])
    def test_point_run_bit_identical(self, monkeypatch, figure, seed):
        # The full Section VII testbed — window-limited background flows,
        # pinger, MRTG monitor, with BTC (figs 15-16) or pathload and its
        # 0.1 s pings (figs 17-18) in intervals B and D — must report the
        # same rows in every layout: planned, per-packet, Python merge.
        simulate = importlib.import_module(f"repro.experiments.{figure}")._simulate
        monkeypatch.delenv("REPRO_NO_FAST", raising=False)
        monkeypatch.delenv("REPRO_NO_VECTOR", raising=False)
        rows = simulate(seed=seed, interval=12.0)
        for env in ("REPRO_NO_FAST", "REPRO_NO_VECTOR"):
            monkeypatch.setenv(env, "1")
            assert simulate(seed=seed, interval=12.0) == rows, env
            monkeypatch.delenv(env)
