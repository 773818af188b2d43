"""Benchmark harness configuration.

Each benchmark regenerates one figure of the paper at a reduced scale
(``REPRO_FULL=1`` restores paper scale) and prints the regenerated series
— the rows/curves the paper plots — so the run doubles as the data source
for EXPERIMENTS.md.  ``benchmark.pedantic(..., rounds=1)`` is used
throughout: an experiment *is* the measurement; repeating it for timing
statistics would multiply hours of simulation for no extra fidelity.

Under ``REPRO_PERF_GATE=1``, when a ``*_gate`` test *fails* its body is
re-run once under a :class:`repro.obs.Profiler` and the CPU-time
attribution profile is written to ``$REPRO_PROFILE_DIR`` (default
``perf-profiles/``), so a CI regression report ships the "where did the
time go" flamegraph alongside the failing numbers instead of a bare
"1.07x > 1.02x" assertion message.  The timed run itself is never
sampled: the sampler's work perturbs the short fast-path arm of a
paired ratio enough to fail gates that pass unperturbed.

The sweep executor's on-disk cache is keyed by ``__version__``, not by
the code, so a claim test must never read ``.repro_cache/`` in the
working directory: rows an earlier checkout wrote there would stand in
for this tree's.  Every session gets its own throwaway cache root, as in
``tests/conftest.py``.
"""

import os

import pytest

from repro.experiments.base import Scale

#: Directory for failed-gate attribution profiles.
PROFILE_DIR_ENV = "REPRO_PROFILE_DIR"


@pytest.fixture(autouse=True, scope="session")
def _isolated_sweep_cache(tmp_path_factory):
    from repro.parallel import CACHE_DIR_ENV

    root = tmp_path_factory.mktemp("repro_cache")
    mp = pytest.MonkeyPatch()
    mp.setenv(CACHE_DIR_ENV, str(root))
    yield
    mp.undo()


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    # Stash the per-phase report on the item so the gate_profile fixture's
    # teardown (which runs after the call phase) can see pass/fail.
    outcome = yield
    report = outcome.get_result()
    setattr(item, "rep_" + report.when, report)


@pytest.fixture(autouse=True)
def gate_profile(request):
    """When a ``*_gate`` test fails under REPRO_PERF_GATE=1, re-run its
    body under the sampling profiler and write an attribution profile.

    The gate functions are deliberately argument-free, so the re-run is a
    plain second call of the same workload; its (expected) re-failure is
    swallowed — pass/fail was already recorded by the unsampled run.
    """
    yield
    item = request.node
    if (
        os.environ.get("REPRO_PERF_GATE") != "1"
        or not item.name.endswith("_gate")
    ):
        return
    report = getattr(item, "rep_call", None)
    if report is None or not report.failed:
        return
    from repro.obs import Profiler

    profiler = Profiler()
    profiler.start()
    try:
        item.function()
    except Exception:
        pass
    finally:
        profiler.stop()
    out_dir = os.environ.get(PROFILE_DIR_ENV) or "perf-profiles"
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{item.name}.speedscope.json")
    profiler.write(path)
    collapsed = os.path.join(out_dir, f"{item.name}.collapsed.txt")
    profiler.write(collapsed)
    print(
        f"\n[perf-gate] {item.name} failed; CPU-time attribution "
        f"profile -> {path} ({len(profiler.samples)} samples)"
    )


@pytest.fixture
def bench_scale() -> Scale:
    """Scale used by figure benchmarks: tiny by default, paper under
    REPRO_FULL=1."""
    if os.environ.get("REPRO_FULL") == "1":
        return Scale(runs=50, interval=300.0, full=True)
    return Scale(runs=3, interval=45.0, full=False)


def run_figure(benchmark, run_fn, scale, **kwargs):
    """Execute one figure experiment under the benchmark clock and print
    its table."""
    result = benchmark.pedantic(
        run_fn, kwargs={"scale": scale, **kwargs}, rounds=1, iterations=1
    )
    result.print_table()
    return result
