"""Tests for :mod:`repro.parallel`: the sweep executor and its cache.

The contract under test, in order of importance:

1. a process pool reproduces the serial reference bit-for-bit on a real
   figure (fig05 at reduced scale);
2. one crashed worker reports its seed/config without losing siblings;
3. a cache hit returns the stored value without re-simulating;
4. the integer seed-entropy tokens reconstruct exactly the generators
   ``SeedSequence.spawn`` would have produced (serial streams unchanged).
"""

import gc

import numpy as np
import pytest

from repro.experiments import fig05_load, fig15_16_btc
from repro.experiments.base import (
    Scale,
    rng_from_entropy,
    spawn_seed_entropy,
    spawn_seeds,
)
from repro.netsim.topologies import Fig4Config
from repro.parallel import (
    SweepError,
    SweepTask,
    cache_key,
    run_sweep,
    sweep_values,
)

# ----------------------------------------------------------------------
# Module-level workers (process pools pickle them by reference)
# ----------------------------------------------------------------------


def _square(seed_entropy, offset=0):
    return seed_entropy * seed_entropy + offset


def _boom(seed_entropy):
    raise ValueError(f"boom at {seed_entropy}")


_CALLS = {"n": 0}


def _counting(seed_entropy):
    _CALLS["n"] += 1
    return seed_entropy + 1


def _tiny_pathload(seed_entropy):
    """One small single-hop pathload; honors ``REPRO_NO_FAST`` via the
    default ``fast=None`` resolution inside :class:`ProbeChannel`."""
    from repro.core.config import PathloadConfig
    from repro.runner import measure_avail_bw_sim

    report = measure_avail_bw_sim(
        capacity_bps=10e6,
        utilization=0.3,
        seed=seed_entropy,
        config=PathloadConfig(idle_factor=1.0),
    )
    return (
        report.low_bps,
        report.high_bps,
        report.termination,
        report.n_streams_sent,
    )


def _simulators():
    from repro.netsim.engine import Simulator

    return [o for o in gc.get_objects() if isinstance(o, Simulator)]


# ----------------------------------------------------------------------
# Seed entropy tokens
# ----------------------------------------------------------------------


class TestSeedEntropy:
    def test_tokens_pack_master_and_index(self):
        assert spawn_seed_entropy(7, 3) == [(7 << 32) | i for i in range(3)]

    def test_rejects_negative_inputs(self):
        with pytest.raises(ValueError):
            spawn_seed_entropy(-1, 2)
        with pytest.raises(ValueError):
            spawn_seed_entropy(1, -2)

    def test_matches_seedsequence_spawn(self):
        """The streams must equal SeedSequence(master).spawn(n) exactly —
        this is what keeps every pre-existing serial experiment's sample
        path unchanged."""
        master, n = 1234, 5
        reference = [
            np.random.default_rng(child)
            for child in np.random.SeedSequence(master).spawn(n)
        ]
        for ref, got in zip(reference, spawn_seeds(master, n)):
            assert ref.random(8).tolist() == got.random(8).tolist()

    def test_token_reconstructs_stream_across_boundary(self):
        master, n = 99, 4
        reference = [
            np.random.default_rng(child)
            for child in np.random.SeedSequence(master).spawn(n)
        ]
        for token, ref in zip(spawn_seed_entropy(master, n), reference):
            assert rng_from_entropy(token).random(8).tolist() == ref.random(8).tolist()


# ----------------------------------------------------------------------
# Pool-vs-serial equality on a real figure
# ----------------------------------------------------------------------


class TestPoolMatchesSerial:
    def test_fig05_rows_identical(self):
        scale = Scale(runs=1, interval=10.0, full=False)
        serial = fig05_load.run(scale=scale, jobs=1, cache=False)
        pooled = fig05_load.run(scale=scale, jobs=2, cache=False)
        assert pooled.rows == serial.rows


class TestFinishedSimulationsFreed:
    @pytest.mark.parametrize("no_fast", [False, True], ids=["default", "no-fast"])
    def test_no_simulator_outlives_its_task(self, no_fast, monkeypatch):
        # A finished simulation is cyclic garbage.  The executor's
        # young-generation collection after each task must free it, so
        # this test collects before the sweep and never after it.
        if no_fast:
            monkeypatch.setenv("REPRO_NO_FAST", "1")
        else:
            monkeypatch.delenv("REPRO_NO_FAST", raising=False)
        tasks = [
            # A short Section VII schedule with BTC in B and D.
            SweepTask(
                fn=fig15_16_btc._simulate,
                kwargs={"seed": 3, "interval": 6.0},
                experiment="unit-freed",
            ),
            *fig05_load.point_tasks(
                Fig4Config(tight_utilization=0.6),
                runs=1,
                master_seed=5,
                experiment="unit-freed",
            ),
        ]
        gc.collect()
        alive = _simulators()  # held, so that no new one reuses an id
        known = {id(s) for s in alive}
        outcomes = run_sweep(tasks, jobs=1, cache=False)
        assert all(o.ok for o in outcomes), [o.error for o in outcomes]
        left = [s for s in _simulators() if id(s) not in known]
        assert left == []


class TestTaskValidation:
    """fn must be pickle-by-reference friendly, rejected at construction
    (the static side of the same contract is lint rule SIM011)."""

    def test_lambda_rejected(self):
        with pytest.raises(TypeError, match="module-level"):
            SweepTask(fn=lambda e: e, seed_entropy=1)  # simlint: disable=SIM011 -- asserting this is rejected

    def test_nested_def_rejected(self):
        def local_worker(seed_entropy):
            return seed_entropy

        with pytest.raises(TypeError, match="module-level"):
            SweepTask(fn=local_worker, seed_entropy=1)  # simlint: disable=SIM011 -- asserting this is rejected

    def test_module_level_fn_accepted(self):
        task = SweepTask(fn=_square, seed_entropy=1)
        assert task.fn is _square


# ----------------------------------------------------------------------
# Failure capture
# ----------------------------------------------------------------------


class TestFailureCapture:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_crash_keeps_siblings_and_names_offender(self, jobs):
        tasks = [
            SweepTask(fn=_square, seed_entropy=3, experiment="unit"),
            SweepTask(fn=_boom, seed_entropy=7, experiment="unit"),
            SweepTask(fn=_square, seed_entropy=5, experiment="unit"),
        ]
        outcomes = run_sweep(tasks, jobs=jobs, cache=False)
        assert [o.ok for o in outcomes] == [True, False, True]
        assert outcomes[0].value == 9
        assert outcomes[2].value == 25
        assert "boom at 7" in outcomes[1].error
        with pytest.raises(SweepError) as excinfo:
            sweep_values(outcomes)
        message = str(excinfo.value)
        assert "seed_entropy=7" in message
        assert "experiment='unit'" in message

    def test_bad_jobs_rejected(self):
        with pytest.raises(ValueError):
            run_sweep([SweepTask(fn=_square, seed_entropy=1)], jobs=0)


# ----------------------------------------------------------------------
# Result cache
# ----------------------------------------------------------------------


class TestCache:
    def test_hit_skips_execution(self, tmp_path):
        tasks = [
            SweepTask(fn=_counting, seed_entropy=e, experiment="unit")
            for e in (10, 11)
        ]
        _CALLS["n"] = 0
        first = run_sweep(tasks, jobs=1, cache=True, cache_dir=str(tmp_path))
        assert _CALLS["n"] == 2
        assert [o.cached for o in first] == [False, False]

        second = run_sweep(tasks, jobs=1, cache=True, cache_dir=str(tmp_path))
        assert _CALLS["n"] == 2  # nothing re-ran
        assert [o.cached for o in second] == [True, True]
        assert sweep_values(second) == sweep_values(first)

    def test_no_cache_reexecutes(self, tmp_path):
        task = SweepTask(fn=_counting, seed_entropy=20, experiment="unit")
        _CALLS["n"] = 0
        run_sweep([task], jobs=1, cache=True, cache_dir=str(tmp_path))
        run_sweep([task], jobs=1, cache=False, cache_dir=str(tmp_path))
        assert _CALLS["n"] == 2

    def test_key_separates_tasks(self):
        base = SweepTask(fn=_square, seed_entropy=1, experiment="unit")
        assert cache_key(base) == cache_key(
            SweepTask(fn=_square, seed_entropy=1, experiment="unit")
        )
        for other in (
            SweepTask(fn=_square, seed_entropy=2, experiment="unit"),
            SweepTask(fn=_square, seed_entropy=1, experiment="other"),
            SweepTask(
                fn=_square, seed_entropy=1, experiment="unit", kwargs={"offset": 1}
            ),
            SweepTask(fn=_counting, seed_entropy=1, experiment="unit"),
        ):
            assert cache_key(other) != cache_key(base)

    def test_fast_flag_stays_out_of_cache_key(self, tmp_path, monkeypatch):
        """Stream-transit fast path is invisible to the cache.

        The fast path is bit-identical to per-packet transit, so (a) the
        package version — which every cache key folds in — stays at 1.1.0
        and existing ``.repro_cache/`` trees remain valid, and (b) an entry
        written by a fast run must satisfy a per-packet run and vice versa:
        ``REPRO_NO_FAST`` never enters the key.
        """
        import repro

        assert repro.__version__ == "1.1.0"

        task = SweepTask(
            fn=_tiny_pathload, seed_entropy=5, experiment="unit-fast"
        )
        monkeypatch.delenv("REPRO_NO_FAST", raising=False)
        fast = run_sweep([task], jobs=1, cache=True, cache_dir=str(tmp_path))
        assert [o.cached for o in fast] == [False]

        # Same task under forced per-packet transit: must hit the entry the
        # fast run wrote (jobs=1 executes in-process, so the monkeypatched
        # environment is the one any re-simulation would see).
        monkeypatch.setenv("REPRO_NO_FAST", "1")
        hit = run_sweep([task], jobs=1, cache=True, cache_dir=str(tmp_path))
        assert [o.cached for o in hit] == [True]
        assert sweep_values(hit) == sweep_values(fast)

        # The hit is honest, not a stale alias: an uncached per-packet run
        # reproduces the value the fast run stored.
        slow = run_sweep([task], jobs=1, cache=False, cache_dir=str(tmp_path))
        assert [o.cached for o in slow] == [False]
        assert sweep_values(slow) == sweep_values(fast)

    def test_kernel_flag_stays_out_of_cache_key(self, tmp_path, monkeypatch):
        """The NumPy merge kernel is invisible to the cache, exactly like
        ``REPRO_NO_FAST`` above: it is a bit-identity execution strategy,
        so an entry written with or without ``REPRO_NO_VECTOR`` satisfies
        the other setting, and the package version stays at 1.1.0.  The
        uncached ``REPRO_NO_VECTOR`` run reproduces the stored value.
        """
        import repro

        assert repro.__version__ == "1.1.0"

        task = SweepTask(
            fn=_tiny_pathload, seed_entropy=5, experiment="unit-kernel"
        )
        monkeypatch.delenv("REPRO_NO_VECTOR", raising=False)
        base_key = cache_key(task)
        first = run_sweep([task], jobs=1, cache=True, cache_dir=str(tmp_path))
        assert [o.cached for o in first] == [False]

        monkeypatch.setenv("REPRO_NO_VECTOR", "1")
        assert cache_key(task) == base_key
        hit = run_sweep([task], jobs=1, cache=True, cache_dir=str(tmp_path))
        assert [o.cached for o in hit] == [True]
        assert sweep_values(hit) == sweep_values(first)
        fresh = run_sweep([task], jobs=1, cache=False, cache_dir=str(tmp_path))
        assert [o.cached for o in fresh] == [False]
        assert sweep_values(fresh) == sweep_values(first)

    def test_key_rejects_unstable_kwargs(self):
        task = SweepTask(
            fn=_square, seed_entropy=1, kwargs={"bad": object()}, experiment="unit"
        )
        with pytest.raises(TypeError):
            cache_key(task)
