"""Equivalence tests for the event-elided cross-traffic data path.

The bulk path's contract is *bit identity*: on every eligible
configuration, probe OWD series, link stats, monitor samples, and source
counters must equal — with ``==``, not ``approx`` — what the per-packet
path produces, because the arrival times are the same floating-point sums
over the same RNG draws — including modulated sources, whose arrivals are
batch-generated per rate-factor segment.  Ineligible configurations
(qdisc, drop hooks, taps) must fall back automatically; rebinding a
link's hooks mid-run must decommission bulk sources without perturbing
the sample path.
"""

import itertools

import numpy as np
import pytest

from repro.netsim import (
    LinkMonitor,
    LinkSpec,
    LinkTap,
    Packet,
    PacketKind,
    QueueMonitor,
    REDQueue,
    Simulator,
    attach_cross_traffic,
    build_path,
)
from repro.netsim.crosstraffic import _CHUNK, CrossTrafficSource


def run_experiment(
    bulk,
    model="poisson",
    hops=1,
    buffer_bytes=None,
    stop=None,
    sanitize=False,
    monitors=False,
    seed=42,
    until=4.0,
    capacity=10e6,
    utilization=0.6,
    n_sources=4,
    probe_gap=0.01,
    modulation=None,
    mutate_at=None,
):
    """One seeded run; returns every foreground-observable series.

    ``bulk`` selects the cross-traffic data path; everything else is
    identical between the two runs being compared.  ``mutate_at`` is an
    optional ``(time, fn)`` pair; ``fn(network)`` runs mid-simulation
    (used to trigger bulk decommissioning).
    """
    sim = Simulator(sanitize=sanitize)
    specs = [
        LinkSpec(capacity, prop_delay=0.002, buffer_bytes=buffer_bytes, name=f"hop{i}")
        for i in range(hops)
    ]
    net = build_path(sim, specs)
    rng = np.random.default_rng(seed)
    sources = []
    for link in net.forward_links:
        sources.extend(
            attach_cross_traffic(
                sim,
                net,
                link,
                capacity * utilization,
                rng,
                n_sources=n_sources,
                model=model,
                stop=stop,
                modulation=modulation,
                bulk=bulk,
            )
        )

    owds = []

    def on_probe(pkt):
        owds.append((pkt.seq, pkt.delivered_at - pkt.created_at))

    seq = itertools.count()

    def send_probe():
        pkt = Packet(200, flow_id="probe", seq=next(seq), kind=PacketKind.PROBE)
        net.send_forward(pkt, on_probe)
        sim.schedule(probe_gap, send_probe)

    sim.schedule_at(0.005, send_probe)
    qmon = QueueMonitor(sim, net.forward_links[0], interval=0.05) if monitors else None
    lmon = LinkMonitor(sim, net.forward_links[0], window=0.5) if monitors else None
    if mutate_at is not None:
        t_mut, fn = mutate_at
        sim.schedule_at(t_mut, fn, net)
    sim.run(until=until)
    result = {
        "owds": owds,
        "stats": [link.stats.snapshot() for link in net.forward_links],
        "sent": [(s.packets_sent, s.bytes_sent) for s in sources],
        "backlog": [link.backlog_bytes() for link in net.forward_links],
        "sources": sources,
        "net": net,
    }
    if monitors:
        result["queue"] = list(qmon.samples)
        result["util"] = [
            (s.t_start, s.t_end, s.bytes_forwarded, s.utilization, s.avail_bw_bps)
            for s in lmon.samples
        ]
    if sanitize:
        result["digest"] = sim.digest()
    return result


OBSERVABLES = ("owds", "stats", "sent", "backlog")


def assert_equivalent(kwargs, keys=OBSERVABLES):
    per_packet = run_experiment(False, **kwargs)
    bulk = run_experiment(None, **kwargs)
    assert all(s.is_bulk for s in bulk["sources"]), "bulk path did not engage"
    assert not any(s.is_bulk for s in per_packet["sources"])
    assert bulk["owds"], "probe stream produced no deliveries"
    for key in keys:
        assert bulk[key] == per_packet[key], f"{key} diverged"
    return per_packet, bulk


class TestBitIdentity:
    @pytest.mark.parametrize("model", ["poisson", "pareto", "cbr"])
    def test_single_hop_infinite_buffer(self, model):
        assert_equivalent({"model": model})

    @pytest.mark.parametrize("model", ["poisson", "pareto", "cbr"])
    def test_drop_tail_buffer(self, model):
        """Finite buffer at high load: admission decisions must replay
        identically (drops and all)."""
        pp, bulk = assert_equivalent(
            {"model": model, "buffer_bytes": 6000, "utilization": 0.95}
        )
        assert bulk["stats"][0]["packets_dropped"] > 0, "workload caused no drops"

    @pytest.mark.parametrize("hops", [2, 3])
    def test_multi_hop(self, hops):
        assert_equivalent({"hops": hops, "model": "pareto"})

    def test_monitor_windows(self):
        keys = OBSERVABLES + ("queue", "util")
        assert_equivalent({"monitors": True, "model": "pareto"}, keys=keys)

    def test_source_stop_time(self):
        pp, bulk = assert_equivalent({"model": "poisson", "stop": 1.5})
        # no arrivals after stop: counters frozen from 1.5s on
        assert bulk["sent"] == pp["sent"]

    def test_refill_horizon_crossing(self):
        """Long enough that each source consumes several 4096-sample
        batches — boundary gap/size pairing must survive the refills."""
        assert_equivalent(
            {"model": "cbr", "n_sources": 1, "until": 12.0, "utilization": 0.9}
        )

    @pytest.mark.parametrize("model", ["poisson", "pareto", "cbr"])
    def test_modulated_single_hop(self, model):
        """Segment-planned generation: modulated sources stay bulk and
        stay bit-identical."""
        assert_equivalent({"model": model, "modulation": (0.5, 0.3)})

    def test_modulated_drop_tail_multi_hop(self):
        pp, bulk = assert_equivalent(
            {
                "model": "pareto",
                "modulation": (0.5, 0.3),
                "hops": 2,
                "buffer_bytes": 6000,
                "utilization": 0.95,
            }
        )
        assert bulk["stats"][0]["packets_dropped"] > 0, "workload caused no drops"

    def test_modulated_stop_time(self):
        """The boundary chain dies at ``stop`` on both paths (the frozen
        factor must match through the truncated final batch)."""
        assert_equivalent({"model": "pareto", "modulation": (0.3, 0.4), "stop": 1.7})

    def test_modulated_refill_horizon_crossing(self):
        """Several refills per source with short segments: leftover
        boundary draws must carry across batch edges in RNG order."""
        assert_equivalent(
            {
                "model": "poisson",
                "modulation": (0.1, 0.5),
                "n_sources": 1,
                "until": 12.0,
                "utilization": 0.9,
            }
        )

    def test_bulk_digest_is_reproducible(self):
        """Two equal-seed bulk runs execute the identical event order."""
        a = run_experiment(None, sanitize=True, model="pareto")
        b = run_experiment(None, sanitize=True, model="pareto")
        assert a["digest"] == b["digest"]
        assert a["owds"] == b["owds"]

    def test_per_packet_digest_is_reproducible(self):
        a = run_experiment(False, sanitize=True, model="pareto")
        b = run_experiment(False, sanitize=True, model="pareto")
        assert a["digest"] == b["digest"]


class TestFallback:
    def test_qdisc_forces_per_packet(self):
        sim = Simulator()
        net = build_path(sim, [LinkSpec(10e6)])
        link = net.forward_links[0]
        link.qdisc = REDQueue(5000, 20000, np.random.default_rng(1))
        sources = attach_cross_traffic(
            sim, net, link, 5e6, np.random.default_rng(0), n_sources=2
        )
        assert not any(s.is_bulk for s in sources)
        sim.run(until=1.0)
        assert link.stats.packets_forwarded > 0

    def test_modulation_stays_bulk(self):
        """Modulation is piecewise-constant, so it no longer disqualifies
        the bulk path: arrivals are batch-generated per rate-factor
        segment with boundary draws at their per-packet RNG positions."""
        sim = Simulator()
        net = build_path(sim, [LinkSpec(10e6)])
        sources = attach_cross_traffic(
            sim,
            net,
            net.forward_links[0],
            5e6,
            np.random.default_rng(0),
            n_sources=2,
            modulation=(0.5, 0.3),
        )
        assert all(s.is_bulk for s in sources)
        sim.run(until=2.0)
        assert all(s.is_bulk for s in sources)
        assert net.forward_links[0].stats.packets_forwarded > 0

    def test_drop_hook_forces_per_packet(self):
        sim = Simulator()
        net = build_path(sim, [LinkSpec(10e6, buffer_bytes=5000)])
        link = net.forward_links[0]
        link.drop_hook = lambda pkt: None
        sources = attach_cross_traffic(
            sim, net, link, 5e6, np.random.default_rng(0), n_sources=2
        )
        assert not any(s.is_bulk for s in sources)

    def test_tap_before_attach_forces_per_packet(self):
        sim = Simulator()
        net = build_path(sim, [LinkSpec(10e6)])
        link = net.forward_links[0]
        LinkTap(link, flow_prefix="cross")
        sources = attach_cross_traffic(
            sim, net, link, 5e6, np.random.default_rng(0), n_sources=2
        )
        assert not any(s.is_bulk for s in sources)

    def test_bulk_false_forces_per_packet(self):
        sim = Simulator()
        net = build_path(sim, [LinkSpec(10e6)])
        sources = attach_cross_traffic(
            sim,
            net,
            net.forward_links[0],
            5e6,
            np.random.default_rng(0),
            n_sources=2,
            bulk=False,
        )
        assert not any(s.is_bulk for s in sources)

    def test_clean_link_defaults_to_bulk(self):
        sim = Simulator()
        net = build_path(sim, [LinkSpec(10e6)])
        sources = attach_cross_traffic(
            sim, net, net.forward_links[0], 5e6, np.random.default_rng(0), n_sources=2
        )
        assert all(s.is_bulk for s in sources)


class TestCapacitySchedule:
    """A piecewise-constant capacity schedule is *not* a decommission for
    bulk cross traffic: the folds look the rate up per segment, so the
    sources stay bulk and every observable still matches per-packet."""

    SEGMENTS = ((1.0, 6e6), (2.0, 14e6), (3.0, 9e6))

    @classmethod
    def _install(cls, net):
        net.forward_links[0].set_capacity_segments(cls.SEGMENTS)

    @pytest.mark.parametrize("model", ["poisson", "pareto", "cbr"])
    def test_scheduled_link_bit_identical(self, model):
        kwargs = {"model": model, "mutate_at": (0.5, self._install)}
        pp = run_experiment(False, **kwargs)
        bulk = run_experiment(None, **kwargs)
        assert all(s.is_bulk for s in bulk["sources"]), "bulk dropped out"
        for key in OBSERVABLES:
            assert bulk[key] == pp[key], f"{key} diverged under schedule"

    def test_scheduled_finite_buffer(self):
        # Shrinking the rate to 6 Mb/s under near-saturating load makes
        # the drop-tail replay cross rate boundaries with a hot buffer.
        kwargs = {
            "model": "pareto",
            "buffer_bytes": 9_000,
            "utilization": 0.95,
            "mutate_at": (0.5, self._install),
        }
        pp = run_experiment(False, **kwargs)
        bulk = run_experiment(None, **kwargs)
        assert all(s.is_bulk for s in bulk["sources"])
        assert pp["stats"][0]["packets_dropped"] > 0, "test needs drops"
        for key in OBSERVABLES:
            assert bulk[key] == pp[key], f"{key} diverged under schedule"

    def test_scheduled_modulated_source(self):
        # Non-stationary offered load over a non-stationary link: the
        # segmented generator and the segmented fold compose.
        kwargs = {
            "model": "pareto",
            "modulation": (0.5, 0.3),
            "mutate_at": (0.5, self._install),
        }
        pp = run_experiment(False, **kwargs)
        bulk = run_experiment(None, **kwargs)
        assert all(s.is_bulk for s in bulk["sources"])
        for key in OBSERVABLES:
            assert bulk[key] == pp[key], f"{key} diverged under schedule"

    def test_scheduled_no_vector_layout(self, monkeypatch):
        # The Python merge twin (REPRO_NO_VECTOR) must agree with the
        # NumPy merge bit for bit under a capacity schedule.
        kwargs = {"model": "poisson", "mutate_at": (0.5, self._install)}
        fast = run_experiment(None, **kwargs)
        monkeypatch.setenv("REPRO_NO_VECTOR", "1")
        from repro.netsim import kernels

        kernels._reset_for_tests()
        try:
            scalar = run_experiment(None, **kwargs)
        finally:
            monkeypatch.delenv("REPRO_NO_VECTOR")
            kernels._reset_for_tests()
        for key in OBSERVABLES:
            assert fast[key] == scalar[key], f"{key} diverged across layouts"


class TestDecommission:
    """Rebinding a link hook mid-run reverts bulk sources without
    perturbing the sample path."""

    @staticmethod
    def _attach_drop_hook(net):
        net.forward_links[0].drop_hook = lambda pkt: None

    @staticmethod
    def _attach_tap(net):
        net.tap = LinkTap(net.forward_links[0], flow_prefix="probe")

    @pytest.mark.parametrize("model", ["poisson", "pareto", "cbr"])
    def test_drop_hook_mid_run_preserves_sample_path(self, model):
        kwargs = {"model": model, "mutate_at": (2.0, self._attach_drop_hook)}
        pp = run_experiment(False, **kwargs)
        bulk = run_experiment(None, **kwargs)
        assert not any(s.is_bulk for s in bulk["sources"]), "decommission missed"
        for key in OBSERVABLES:
            assert bulk[key] == pp[key], f"{key} diverged across decommission"

    @pytest.mark.parametrize("model", ["poisson", "pareto", "cbr"])
    def test_modulated_drop_hook_mid_run(self, model):
        """A modulated bulk source must resume per-packet with its
        boundary chain restarted at the right RNG position."""
        kwargs = {
            "model": model,
            "modulation": (0.5, 0.3),
            "mutate_at": (2.0, self._attach_drop_hook),
        }
        pp = run_experiment(False, **kwargs)
        bulk = run_experiment(None, **kwargs)
        assert not any(s.is_bulk for s in bulk["sources"]), "decommission missed"
        for key in OBSERVABLES:
            assert bulk[key] == pp[key], f"{key} diverged across decommission"

    def test_modulated_decommission_before_first_batch(self):
        kwargs = {
            "model": "pareto",
            "modulation": (0.5, 0.3),
            "mutate_at": (0.0, self._attach_drop_hook),
        }
        pp = run_experiment(False, **kwargs)
        bulk = run_experiment(None, **kwargs)
        assert not any(s.is_bulk for s in bulk["sources"])
        for key in OBSERVABLES:
            assert bulk[key] == pp[key], f"{key} diverged across decommission"

    def test_tap_mid_run_preserves_probe_records(self):
        kwargs = {"model": "pareto", "mutate_at": (2.0, self._attach_tap)}
        pp = run_experiment(False, **kwargs)
        bulk = run_experiment(None, **kwargs)
        assert not any(s.is_bulk for s in bulk["sources"])
        for key in OBSERVABLES:
            assert bulk[key] == pp[key], f"{key} diverged across decommission"
        pp_records = [(r.time, r.seq, r.size) for r in pp["net"].tap.records]
        bulk_records = [(r.time, r.seq, r.size) for r in bulk["net"].tap.records]
        assert bulk_records == pp_records

    def test_decommission_before_first_batch(self):
        """Hook attached at t=0 (before the deferred merge ever runs):
        sources must start per-packet exactly as the constructor would."""
        kwargs = {"model": "cbr", "mutate_at": (0.0, self._attach_drop_hook)}
        pp = run_experiment(False, **kwargs)
        bulk = run_experiment(None, **kwargs)
        assert not any(s.is_bulk for s in bulk["sources"])
        for key in OBSERVABLES:
            assert bulk[key] == pp[key], f"{key} diverged across decommission"

    @pytest.mark.parametrize("modulation", [None, (0.5, 0.3)])
    @pytest.mark.parametrize("model", ["poisson", "pareto", "cbr"])
    @pytest.mark.parametrize("t_mut", [0.05, 0.7, 1.6, 3.1])
    def test_resume_from_part_used_buffer(self, t_mut, model, modulation):
        """A decommission at any instant resumes the per-packet path from
        the generator's cursor: a stationary source's sits at a chunk
        edge, a modulated source's inside its 4096-draw batch."""
        cursors = []

        def decommission(net):
            link = net.forward_links[0]
            if link._agg is not None:  # the bulk run
                cursors.extend(
                    (f.source._idx, len(f.source._sizes)) for f in link._agg.feeds
                )
            link.drop_hook = lambda pkt: None

        kwargs = {
            "model": model,
            "modulation": modulation,
            "mutate_at": (t_mut, decommission),
        }
        pp = run_experiment(False, **kwargs)
        bulk = run_experiment(None, **kwargs)
        assert not any(s.is_bulk for s in bulk["sources"]), "decommission missed"
        for key in OBSERVABLES:
            assert bulk[key] == pp[key], f"{key} diverged across decommission"
        if modulation is None:
            assert all(i == n == _CHUNK for i, n in cursors), "not one chunk per refill"
        else:
            assert all(0 < i < n for i, n in cursors), "cursor not inside a batch"

    def test_cbr_decommission_inside_first_chunk(self):
        """The first cbr chunk replaces its first gap with the phase
        offset; a decommission inside it must replay the rest of the
        chunk and continue with the next draw."""
        generated = []

        def decommission(net):
            link = net.forward_links[0]
            if link._agg is not None:  # the bulk run
                generated.extend(f.source._gen_packets for f in link._agg.feeds)
            link.drop_hook = lambda pkt: None

        kwargs = {
            "model": "cbr",
            "n_sources": 1,
            "utilization": 0.3,
            "mutate_at": (0.4, decommission),
        }
        pp = run_experiment(False, **kwargs)
        bulk = run_experiment(None, **kwargs)
        assert generated == [_CHUNK], "decommission not inside the first chunk"
        assert not bulk["sources"][0].is_bulk
        for key in OBSERVABLES:
            assert bulk[key] == pp[key], f"{key} diverged across decommission"

    def test_mid_run_registration_joins_bulk(self):
        """A source attached while the link already carries merged bulk
        traffic must slot into the same sample path, and a reader at the
        registration instant — before the deferred merge runs — must
        still see the arrivals already due."""

        def run(bulk):
            sim = Simulator()
            net = build_path(sim, [LinkSpec(10e6, name="L")])
            link = net.forward_links[0]
            rng = np.random.default_rng(7)
            first = attach_cross_traffic(
                sim, net, link, 4e6, rng, n_sources=2, bulk=bulk
            )
            late = []
            reads = []

            def attach_late():
                late.extend(
                    attach_cross_traffic(
                        sim, net, link, 2e6, rng, n_sources=1, start=1.0, bulk=bulk
                    )
                )

            sim.schedule_at(1.0, attach_late)
            sim.schedule_at(
                1.0, lambda: reads.append((link.stats.snapshot(), link.backlog_bytes()))
            )
            sim.run(until=3.0)
            return reads, link.stats.snapshot(), [
                (s.packets_sent, s.bytes_sent) for s in (*first, *late)
            ]

        bulk, per_packet = run(None), run(False)
        assert bulk[0][0][0]["packets_forwarded"] > 0
        assert bulk == per_packet


class TestPythonScalars:
    @pytest.mark.parametrize(
        "modulation", [None, (0.5, 0.25)], ids=["stationary", "modulated"]
    )
    @pytest.mark.parametrize("bulk", [None, False], ids=["bulk", "per-packet"])
    def test_no_numpy_scalar_reaches_the_simulator(self, bulk, modulation):
        """Arrivals live in NumPy arrays until the merge, but the clock,
        the merged admission queue and the counters hold float and int:
        a NumPy scalar there would slow every fold and could leak into
        reports."""
        sim = Simulator()
        net = build_path(sim, [LinkSpec(10e6, buffer_bytes=20_000, name="L")])
        link = net.forward_links[0]
        src = CrossTrafficSource(
            sim, net, link, 6e6, np.random.default_rng(5),
            stop=3.0, modulation=modulation, bulk=bulk,
        )
        assert src.is_bulk == (bulk is None)
        agg = link._agg
        for until in (1.5, None):
            sim.run(until=until)
            # Mid-run the next event is an arrival, a delivery or a
            # refill; drained, the clock stops at the last of them.
            now = sim.now if until is None else sim.peek_time()
            assert type(now) is float, type(now)
            if agg is not None:
                assert type(agg._horizon) is float
                assert all(type(t) is float for t in agg.times)
                assert all(type(s) is int for s in agg.sizes)
            assert type(src.packets_sent) is int
            assert type(src.bytes_sent) is int
        assert src.packets_sent > 1000


class TestLookAhead:
    @pytest.mark.parametrize("modulation", [None, (2.0, 0.25)])
    def test_generation_stays_about_one_chunk_ahead(self, modulation):
        """Bulk sources generate on demand: at any read point each source
        holds fewer than two chunks of arrivals it has not yet offered
        (a 4096-draw batch per source once left thousands)."""
        sim = Simulator()
        net = build_path(sim, [LinkSpec(12.4e6, name="L")])
        sources = attach_cross_traffic(
            sim, net, net.forward_links[0], 0.6 * 12.4e6,
            np.random.default_rng(11), n_sources=10, modulation=modulation,
        )
        for t in (1.0, 3.0, 6.0, 10.0):
            sim.run(until=t)
            ahead = [s._gen_packets - s.packets_sent for s in sources]
            assert all(s.is_bulk for s in sources)
            assert max(ahead) < 2 * _CHUNK, f"look-ahead {ahead} at t={t}"
        assert min(s.packets_sent for s in sources) > 2 * _CHUNK
