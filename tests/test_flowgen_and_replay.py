"""Tests for the closed-loop flow generator."""

import numpy as np
import pytest

from repro.experiments.base import fast_pathload_config
from repro.netsim import LinkSpec, MRTGMonitor, Simulator, build_path
from repro.netsim.flowgen import ShortFlowGenerator
from repro.transport.probe import run_pathload


def mice_path(sim, seed, capacity=10e6, load=4e6, buffer_bytes=100_000):
    net = build_path(
        sim,
        [LinkSpec(capacity, prop_delay=0.02, buffer_bytes=buffer_bytes, name="t")],
    )
    gen = ShortFlowGenerator(
        sim, net, target_load_bps=load, rng=np.random.default_rng(seed)
    )
    return net, gen


class TestShortFlowGenerator:
    def test_flows_start_and_complete(self):
        sim = Simulator()
        net, gen = mice_path(sim, seed=0)
        sim.run(until=30.0)
        assert gen.flows_started > 10
        assert gen.flows_completed > 0
        assert gen.flows_completed <= gen.flows_started

    def test_offered_load_roughly_matches_target(self):
        """Uncongested: completed goodput tracks the target load."""
        sim = Simulator()
        net, gen = mice_path(sim, seed=1, capacity=100e6, load=4e6)
        sim.run(until=60.0)
        achieved = gen.achieved_load_bps(60.0)
        assert achieved == pytest.approx(4e6, rel=0.5)

    def test_load_responds_to_congestion(self):
        """Closed-loop property: on a too-small link the goodput saturates
        below the offered load instead of overflowing forever."""
        sim = Simulator()
        net, gen = mice_path(sim, seed=2, capacity=2e6, load=8e6)
        sim.run(until=40.0)
        achieved = gen.achieved_load_bps(40.0)
        assert achieved < 2.2e6  # can't exceed the link

    def test_concurrency_cap(self):
        sim = Simulator()
        net = build_path(sim, [LinkSpec(0.5e6, buffer_bytes=20_000)])
        gen = ShortFlowGenerator(
            sim, net, target_load_bps=10e6,
            rng=np.random.default_rng(3), max_concurrent=5,
        )
        sim.run(until=20.0)
        assert gen.active_flows <= 5
        assert gen.flows_rejected > 0

    def test_pathload_vs_mrtg_under_mice(self):
        """No configured truth exists for closed-loop load; validate the
        way the paper did — against the link monitor.

        Subtlety this test guards: closed-loop traffic *yields* to the
        probes (mice back off under the extra queueing), so an aggressive
        probing schedule measures bandwidth it displaced, not bandwidth
        that was spare — the avail-bw definition (Section I: "without
        reducing the rate of the rest of the traffic") demands the
        non-intrusive idle factor here.
        """
        sim = Simulator()
        net, gen = mice_path(sim, seed=4, capacity=10e6, load=5e6)
        monitor = MRTGMonitor(sim, net.forward_links[0], window=30.0, start=5.0)
        report = run_pathload(
            sim,
            net,
            config=fast_pathload_config(idle_factor=9.0),
            start=8.0,
            time_limit=600.0,
        )
        sim.run(until=35.0 + 1e-6)
        mrtg_avail = monitor.samples[0].avail_bw_bps
        # agreement within the grey resolution + one MRTG band of slack
        # (stochastic mice load: the bands are necessarily loose)
        assert report.low_bps - 3e6 <= mrtg_avail <= report.high_bps + 3e6

    def test_validation(self):
        sim = Simulator()
        net = build_path(sim, [LinkSpec(1e6)])
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            ShortFlowGenerator(sim, net, 0.0, rng)
        with pytest.raises(ValueError):
            ShortFlowGenerator(sim, net, 1e6, rng, size_alpha=1.0)
        with pytest.raises(ValueError):
            ShortFlowGenerator(sim, net, 1e6, rng, max_concurrent=0)
