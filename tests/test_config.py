"""Tests for PathloadConfig and the experiment scaffolding."""

import pytest

from repro.core.config import PAPER_EXPERIMENT_CONFIG, PathloadConfig
from repro.experiments.base import (
    FigureResult,
    Scale,
    default_scale,
    fast_pathload_config,
    spawn_seeds,
)


class TestPathloadConfig:
    def test_paper_defaults(self):
        cfg = PathloadConfig()
        assert cfg.n_packets == 100
        assert cfg.n_streams == 12
        assert cfg.fleet_fraction == 0.7
        assert cfg.pct_threshold == 0.55
        assert cfg.pdt_threshold == 0.4
        assert cfg.resolution_bps == 1e6
        assert cfg.grey_resolution_bps == 1.5e6
        assert cfg.classification_rule == "tool"

    def test_max_rate(self):
        cfg = PathloadConfig()
        # MTU-sized packets at the minimum period: 1500*8/100us = 120 Mb/s
        assert cfg.max_rate_bps == pytest.approx(120e6)

    def test_with_changes(self):
        cfg = PathloadConfig().with_(n_streams=24)
        assert cfg.n_streams == 24
        assert cfg.n_packets == 100  # untouched

    def test_experiment_config_thresholds(self):
        assert PAPER_EXPERIMENT_CONFIG.pct_threshold == 0.6
        assert PAPER_EXPERIMENT_CONFIG.pdt_threshold == 0.5

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_packets": 2},
            {"n_streams": 0},
            {"fleet_fraction": 0.4},
            {"fleet_fraction": 1.1},
            {"min_period": 0.0},
            {"min_packet_size": 2000},
            {"use_pct": False, "use_pdt": False},
            {"classification_rule": "magic"},
            {"resolution_bps": 0},
            {"grey_resolution_bps": -1},
            {"moderate_loss": 0.2, "stream_loss_abort": 0.1},
            {"min_period": float("nan")},
            {"min_period": float("inf")},
            {"resolution_bps": float("nan")},
            {"grey_resolution_bps": float("inf")},
            {"gap_deviation_tolerance": 0.0},
            {"gap_deviation_tolerance": float("nan")},
            {"idle_factor": -1.0},
            {"idle_factor": float("nan")},
            {"idle_factor": float("inf")},
            {"min_rate_bps": -1.0},
            {"min_rate_bps": float("nan")},
            {"initial_rate_bps": -1e6},
            {"initial_rate_bps": 0.0},
            {"initial_rate_bps": float("nan")},
            {"initial_rate_bps": float("inf")},
            {"pct_threshold": 1.5},
            {"pdt_threshold": -0.1},
            {"pct_incr_threshold": float("nan")},
            {"pct_nonincr_threshold": 2.0},
            {"pdt_incr_threshold": -1.0},
            {"pdt_nonincr_threshold": float("nan")},
            {"max_fleets": 0},
            {"min_usable_streams": 0},
            {"max_lossy_streams": -1},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            PathloadConfig(**kwargs)


class TestExperimentScaffolding:
    def test_default_scale_reduced(self, monkeypatch):
        monkeypatch.delenv("REPRO_FULL", raising=False)
        scale = default_scale(runs=5, full_runs=50)
        assert scale.runs == 5 and not scale.full

    def test_default_scale_full(self, monkeypatch):
        monkeypatch.setenv("REPRO_FULL", "1")
        scale = default_scale(runs=5, full_runs=50)
        assert scale.runs == 50 and scale.full

    def test_scale_validation(self):
        for runs, interval in (
            (0, 1.0),
            (1, 0.0),
            (1, -1.0),
            (1, float("nan")),
            (1, float("inf")),
            (2.5, 1.0),
            (-3, 1.0),
        ):
            with pytest.raises(ValueError):
                Scale(runs=runs, interval=interval, full=False)

    def test_spawn_seeds_independent_and_deterministic(self):
        a = [g.integers(0, 1 << 30) for g in spawn_seeds(7, 3)]
        b = [g.integers(0, 1 << 30) for g in spawn_seeds(7, 3)]
        assert a == b
        assert len(set(a)) == 3

    def test_fast_config_only_touches_idle(self):
        cfg = fast_pathload_config()
        assert cfg.idle_factor == 1.0
        assert cfg.n_packets == PathloadConfig().n_packets

    def test_figure_result_roundtrip(self):
        fig = FigureResult(
            figure_id="figX", title="test", columns=["a", "b"]
        )
        fig.add_row(a=1, b=2.5)
        fig.add_row(a=2)
        assert fig.column("a") == [1, 2]
        assert fig.column("b") == [2.5, None]
        table = fig.to_table()
        assert "figX" in table and "2.500" in table

    def test_figure_result_rejects_unknown_columns(self):
        fig = FigureResult(figure_id="f", title="t", columns=["a"])
        with pytest.raises(ValueError):
            fig.add_row(zzz=1)

    def test_figure_result_unknown_column_lookup(self):
        fig = FigureResult(figure_id="f", title="t", columns=["a"])
        with pytest.raises(KeyError):
            fig.column("zzz")
