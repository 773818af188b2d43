"""obs v2: cross-process telemetry, run-health audits, sampling profiler.

The contracts under test, in order of importance:

1. a traced sweep's merged event digest is **bit-identical** across
   ``jobs`` values and cache cold/warm replays (child telemetry rides in
   the result envelope and the cache entry, merged in submission order
   onto ``task<i>/`` tracks);
2. tracing never changes results: traced (full or light) sweep values
   equal the untraced reference;
3. light tracers keep every event-elision fast path alive, while full
   tracers dissolve flow transit with reason ``tracer`` and a one-shot
   warning pointing at ``--trace-light``;
4. the health report derives the right audit (and hints) from merged
   metrics, live or re-read from a JSONL trace;
5. the profiler records stacks only while enabled, exports both
   collapsed-stack and speedscope forms, and charges CPU time to the
   Python frame that spends it, NumPy calls included.
"""

import ast
import json
import pathlib
import threading
import time
import warnings

import numpy as np
import pytest

from repro.core.config import PathloadConfig
from repro.netsim import LinkSpec, Simulator, build_path
from repro.netsim import flowtransit
from repro.obs import (
    Profiler,
    Tracer,
    events_digest,
    health_from_snapshot,
    health_from_tracer,
    read_jsonl_full,
)
from repro.obs.cli import main as trace_main
from repro.parallel import SweepTask, run_sweep, set_default_tracer
from repro.runner import measure_avail_bw_sim
from repro.transport.tcp import TCPConfig, open_connection

FAST = PathloadConfig(idle_factor=1.0)


# ----------------------------------------------------------------------
# Module-level sweep worker (process pools pickle it by reference)
# ----------------------------------------------------------------------
def _pathload_value(seed_entropy):
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


def _tasks():
    return [
        SweepTask(experiment="obs-v2", fn=_pathload_value, seed_entropy=e)
        for e in (21, 22)
    ]


# ----------------------------------------------------------------------
# Cross-process capture + merge
# ----------------------------------------------------------------------
class TestMergedSweepDigest:
    def test_digest_identical_across_jobs_and_cache(self, tmp_path):
        # cold serial -> warm pooled -> uncached pooled -> uncached serial:
        # every executor layout and cache state must merge to one stream.
        digests, values = [], []
        for jobs, cache in ((1, True), (4, True), (4, False), (1, False)):
            tracer = Tracer()
            outcomes = run_sweep(
                _tasks(), jobs=jobs, cache=cache,
                cache_dir=str(tmp_path), tracer=tracer,
            )
            assert all(o.ok for o in outcomes)
            digests.append(tracer.event_digest())
            values.append([o.value for o in outcomes])
        assert len(set(digests)) == 1
        assert all(v == values[0] for v in values)

    def test_child_telemetry_is_task_namespaced(self, tmp_path):
        tracer = Tracer()
        run_sweep(_tasks(), jobs=1, cache=False,
                  cache_dir=str(tmp_path), tracer=tracer)
        tracks = {e.track for e in tracer.events}
        assert any(t.startswith("task0/") for t in tracks)
        assert any(t.startswith("task1/") for t in tracks)
        # parent lifecycle events keep the bare sweep track
        assert "sweep/obs-v2" in tracks or any(
            e.cat == "sweep" and not e.track.startswith("task") for e in tracer.events
        )
        # pathload fleet decisions crossed the process/envelope boundary
        assert tracer.decisions
        assert {d.outcome for d in tracer.decisions} <= {"R<A", "R>A", "grey"}
        # per-link series were namespaced like the tracks
        snap = tracer.collect_metrics().snapshot()
        links = {
            s["labels"]["link"]
            for s in snap["repro_link_packets_forwarded"]["samples"]
        }
        assert any(name.startswith("task0/") for name in links)

    def test_capture_mismatch_is_a_miss_then_replays(self, tmp_path):
        tasks = _tasks()
        untraced = run_sweep(tasks, jobs=1, cache=True, cache_dir=str(tmp_path))
        assert all(o.ok for o in untraced)

        cold = Tracer()
        run_sweep(tasks, jobs=1, cache=True, cache_dir=str(tmp_path), tracer=cold)
        snap = cold.collect_metrics().snapshot()
        misses = sum(
            s["value"]
            for s in snap["repro_sweep_cache_misses_total"]["samples"]
        )
        assert misses == len(tasks)  # untraced entries don't satisfy a traced sweep

        warm = Tracer()
        run_sweep(tasks, jobs=1, cache=True, cache_dir=str(tmp_path), tracer=warm)
        wsnap = warm.collect_metrics().snapshot()
        hits = sum(
            s["value"] for s in wsnap["repro_sweep_cache_hits_total"]["samples"]
        )
        assert hits == len(tasks)
        assert warm.event_digest() == cold.event_digest()

    def test_traced_values_match_untraced_reference(self, tmp_path):
        tasks = _tasks()
        reference = [
            o.value for o in run_sweep(tasks, jobs=1, cache=False)
        ]
        for light in (False, True):
            traced = run_sweep(
                tasks, jobs=1, cache=False, tracer=Tracer(light=light)
            )
            assert [o.value for o in traced] == reference


# ----------------------------------------------------------------------
# Light vs full capture
# ----------------------------------------------------------------------
def _run_traced_tcp(light):
    """One small TCP transfer under an attached tracer."""
    sim = Simulator()
    tracer = Tracer(light=light).attach(sim)
    net = build_path(sim, [LinkSpec(10e6, prop_delay=1e-3, name="hop0")])
    tracer.register_network(net)
    open_connection(
        sim, net, config=TCPConfig(), total_bytes=100_000, start=0.0
    )
    sim.run(until=10.0)
    return tracer


class TestTraceLight:
    def test_light_keeps_elision_on_fig05_point(self):
        from repro.experiments import fig05_load
        from repro.experiments.base import Scale

        tracer = Tracer(light=True)
        previous = set_default_tracer(tracer)
        try:
            fig05_load.run(
                scale=Scale(runs=1, interval=10.0, full=False),
                jobs=1, cache=False,
            )
        finally:
            set_default_tracer(previous)
        snap = tracer.collect_metrics().snapshot()
        fast = sum(
            s["value"] for s in snap["repro_fastpath_streams_total"]["samples"]
        )
        assert fast > 0  # elision survived tracing
        elided = {
            s["labels"]["path"]: s["value"]
            for s in snap["repro_probe_packets_total"]["samples"]
        }
        assert elided["elided"] > 0

    def test_full_tracer_dissolves_flows_with_reason_and_warning(
        self, monkeypatch
    ):
        monkeypatch.setattr(flowtransit, "_warned_tracer", False)
        with pytest.warns(RuntimeWarning, match="trace-light"):
            tracer = _run_traced_tcp(light=False)
        snap = tracer.collect_metrics().snapshot()
        fallbacks = {
            s["labels"]["reason"]: s["value"]
            for s in snap["repro_fastpath_flow_fallback_total"]["samples"]
        }
        assert fallbacks["tracer"] >= 1

    def test_tracer_warning_is_one_shot(self, monkeypatch):
        monkeypatch.setattr(flowtransit, "_warned_tracer", False)
        with pytest.warns(RuntimeWarning):
            _run_traced_tcp(light=False)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _run_traced_tcp(light=False)  # second run: silent

    def test_light_tracer_keeps_flows_planned(self, monkeypatch):
        monkeypatch.setattr(flowtransit, "_warned_tracer", False)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tracer = _run_traced_tcp(light=True)
        snap = tracer.collect_metrics().snapshot()
        planned = sum(
            s["value"] for s in snap["repro_fastpath_flows_total"]["samples"]
        )
        assert planned >= 1
        fallbacks = {
            s["labels"]["reason"]: s["value"]
            for s in snap["repro_fastpath_flow_fallback_total"]["samples"]
        }
        assert fallbacks["tracer"] == 0


# ----------------------------------------------------------------------
# Declared-but-zero series in the exposition
# ----------------------------------------------------------------------
class TestDeclaredZeroSeries:
    def test_known_reason_labels_present_at_zero(self):
        from repro.netsim.flowtransit import FLOW_FALLBACK_REASONS
        from repro.netsim.kernels import KERNEL_FALLBACK_REASONS, KERNELS
        from repro.netsim.flowtransit import STREAM_FALLBACK_REASONS

        text = Tracer().collect_metrics().to_prometheus()
        for reason in FLOW_FALLBACK_REASONS:
            assert (
                f'repro_fastpath_flow_fallback_total{{reason="{reason}"}}'
                in text
            )
        for reason in STREAM_FALLBACK_REASONS:
            assert f'repro_fastpath_fallback_total{{reason="{reason}"}}' in text
        for reason in KERNEL_FALLBACK_REASONS:
            assert f'repro_kernel_fallback_total{{reason="{reason}"}}' in text
        for kernel in KERNELS:
            assert f'repro_kernel_calls_total{{kernel="{kernel}"}}' in text
        for path in ("elided", "per-packet"):
            assert f'repro_probe_packets_total{{path="{path}"}}' in text
        assert "repro_fastpath_streams_total 0" in text
        assert "repro_fastpath_flows_total 0" in text


def _emitted_reasons():
    """Every fallback reason literal in ``src/repro``, by the counter it
    feeds: ``stream`` (``ProbeChannel._note_fallback`` and the string
    refusals ``plan_stream`` returns), ``flow`` (``_note_flow_fallback``)
    or ``both`` (``dissolve``, which hands back streams and flows
    alike)."""
    import repro

    kinds = {
        "_note_fallback": "stream",
        "_note_flow_fallback": "flow",
        "dissolve": "both",
    }
    found = {"stream": set(), "flow": set(), "both": set()}
    for path in sorted(pathlib.Path(repro.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call):
                func = node.func
                if isinstance(func, ast.Attribute):
                    kind = kinds.get(func.attr)
                elif isinstance(func, ast.Name) and func.id != "_note_fallback":
                    # kernels has a module-level _note_fallback of its own.
                    kind = kinds.get(func.id)
                else:
                    kind = None
                if kind is None:
                    continue
                for arg in (*node.args, *(kw.value for kw in node.keywords)):
                    if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                        found[kind].add(arg.value)
            elif isinstance(node, ast.FunctionDef) and node.name == "plan_stream":
                for ret in ast.walk(node):
                    if (
                        isinstance(ret, ast.Return)
                        and isinstance(ret.value, ast.Constant)
                        and isinstance(ret.value.value, str)
                    ):
                        found["stream"].add(ret.value.value)
    return found


class TestDeclaredReasons:
    def test_every_emitted_reason_is_declared(self):
        # An undeclared reason is never exported as a declared zero, so a
        # dashboard cannot tell "never happened" from "not instrumented".
        from repro.netsim.flowtransit import FLOW_FALLBACK_REASONS
        from repro.netsim.flowtransit import STREAM_FALLBACK_REASONS

        found = _emitted_reasons()
        assert found["stream"] and found["flow"] and found["both"]
        assert found["stream"] | found["both"] <= set(STREAM_FALLBACK_REASONS)
        assert found["flow"] | found["both"] <= set(FLOW_FALLBACK_REASONS)


# ----------------------------------------------------------------------
# JSONL -> Perfetto -> summarize round trip (decision records included)
# ----------------------------------------------------------------------
class TestRoundTrip:
    @pytest.fixture()
    def trace_file(self, tmp_path):
        tracer = Tracer(light=True)
        measure_avail_bw_sim(
            capacity_bps=10e6, utilization=0.5, seed=2, config=FAST,
            tracer=tracer,
        )
        path = tmp_path / "run.jsonl"
        tracer.write_jsonl(str(path))
        return tracer, str(path)

    def test_jsonl_round_trips_decisions(self, trace_file):
        tracer, path = trace_file
        events, decisions, snapshot = read_jsonl_full(path)
        assert len(events) == len(tracer.events)
        assert events_digest(events) == tracer.event_digest()
        assert len(decisions) == len(tracer.decisions) > 0
        assert decisions[0] == tracer.decisions[0]
        assert snapshot is not None

    def test_perfetto_and_summarize_json(self, trace_file, tmp_path, capsys):
        tracer, path = trace_file
        out = str(tmp_path / "run.perfetto.json")
        assert trace_main(["perfetto", path, "-o", out]) == 0
        with open(out) as fh:
            doc = json.load(fh)
        names = [
            e["args"]["name"] for e in doc["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        ]
        assert "pathload" in names
        capsys.readouterr()

        assert trace_main(["summarize", path, "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["n_events"] == len(tracer.events)
        assert summary["n_decisions"] == len(tracer.decisions)
        assert summary["digest"] == tracer.event_digest()
        health = summary["health"]
        assert health["streams"]["fast"] > 0
        assert health["probe_packets"]["elided"] > 0

    def test_health_subcommand(self, trace_file, capsys):
        _tracer, path = trace_file
        assert trace_main(["health", path]) == 0
        text = capsys.readouterr().out
        assert "probe packets" in text and "fast-path" in text

        assert trace_main(["health", path, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["probe_packets"]["elided_fraction"] == 1.0


# ----------------------------------------------------------------------
# Health report semantics
# ----------------------------------------------------------------------
class TestRunHealth:
    def test_live_tracer_health_matches_snapshot_path(self):
        tracer = Tracer(light=True)
        measure_avail_bw_sim(
            capacity_bps=10e6, utilization=0.5, seed=4, config=FAST,
            tracer=tracer,
        )
        live = health_from_tracer(tracer)
        replay = health_from_snapshot(tracer.collect_metrics().snapshot())
        assert live.to_dict() == replay.to_dict()
        assert live.streams_fast > 0
        assert live.elided_fraction == 1.0
        assert live.links  # per-link table populated
        assert live.hints == []

    def test_tracer_dissolve_hint(self, monkeypatch):
        monkeypatch.setattr(flowtransit, "_warned_tracer", True)  # silence
        tracer = _run_traced_tcp(light=False)
        health = health_from_tracer(tracer)
        assert health.flow_fallbacks["tracer"] >= 1
        assert any("--trace-light" in hint for hint in health.hints)
        assert "--trace-light" in health.render_text()

    def test_empty_snapshot_is_renderable(self):
        health = health_from_snapshot(None)
        assert health.probe_packets_total == 0
        assert health.hints  # points at the missing metrics line
        assert "none observed" in health.render_text()


# ----------------------------------------------------------------------
# Sampling profiler
# ----------------------------------------------------------------------
class TestProfiler:
    def test_samples_only_while_enabled(self, tmp_path):
        profiler = Profiler(interval_s=0.001)
        assert profiler.samples == []  # disabled: zero samples, zero cost
        with profiler:
            deadline = time.perf_counter() + 0.08  # simlint: disable=SIM001 -- host-side busy-wait for the sampler, outside the simulation
            while time.perf_counter() < deadline:  # simlint: disable=SIM001 -- host-side busy-wait for the sampler, outside the simulation
                sum(i * i for i in range(500))
        n = len(profiler.samples)
        assert n > 0
        assert all(sample.stack for sample in profiler.samples)
        time.sleep(0.01)  # simlint: disable=SIM001 -- host-side pause proving the sampler stopped
        assert len(profiler.samples) == n  # stopped: no further samples

        collapsed = tmp_path / "prof.txt"
        profiler.write(str(collapsed))
        lines = collapsed.read_text().splitlines()
        assert lines
        for line in lines:
            stack, count = line.rsplit(" ", 1)
            assert ";" in stack or stack
            assert int(count) >= 1

        scope = tmp_path / "prof.speedscope.json"
        profiler.write(str(scope))
        doc = json.loads(scope.read_text())
        profile = doc["profiles"][0]
        assert profile["type"] == "sampled"
        assert len(profile["samples"]) == n == len(profile["simTimes"])
        assert len(doc["shared"]["frames"]) > 0

    def test_sim_time_correlation_via_ambient_hook(self):
        with Profiler(interval_s=0.001) as profiler:
            sim = Simulator()
            assert profiler._sim is sim  # construction-time ambient hook
            sim.schedule(1.5, lambda: None)
            sim.run()
        from repro.netsim.engine import set_ambient_profiler

        assert set_ambient_profiler(None) is None  # stop() deregistered it

    def test_rejects_bad_interval(self):
        with pytest.raises(ValueError, match="interval"):
            Profiler(interval_s=0.0)

    def test_refuses_to_start_off_the_main_thread(self):
        errors = []

        def start():
            try:
                Profiler().start()
            except RuntimeError as exc:
                errors.append(str(exc))

        worker = threading.Thread(target=start)
        worker.start()
        worker.join()
        assert errors and "main thread" in errors[0]

    def test_speedscope_weights_are_cpu_seconds(self):
        with Profiler(interval_s=0.001) as profiler:
            t_end = time.process_time() + 0.1  # simlint: disable=SIM001 -- host-side CPU budget for the sampler, outside the simulation
            while time.process_time() < t_end:  # simlint: disable=SIM001 -- host-side CPU budget for the sampler, outside the simulation
                sum(i * i for i in range(500))
        weights = profiler.speedscope()["profiles"][0]["weights"]
        assert weights == [sample.cpu_s for sample in profiler.samples]
        assert all(w > 0 for w in weights)
        assert 0.05 < sum(weights) <= 0.2

    def test_cpu_split_matches_process_time(self):
        """Calibration: CPU split between a pure-Python loop and a NumPy
        sort, sampled, against the same split timed with
        ``time.process_time``.  Samples are weighted by their CPU time:
        timer signals that expire inside one C call are handled once,
        after it returns.  About 4 s of CPU keeps the sampling error well
        inside the tolerance."""

        def python_part():
            total = 0
            for i in range(150_000):
                total += i * i
            return total

        def numpy_part(values):
            return np.sort(values)

        values = np.random.default_rng(3).random(600_000)
        timed = {"python": 0.0, "numpy": 0.0}
        clock = time.process_time
        with Profiler(interval_s=0.001) as profiler:
            budget = clock() + 4.0
            while clock() < budget:
                t0 = clock()
                python_part()
                t1 = clock()
                numpy_part(values)
                t2 = clock()
                timed["python"] += t1 - t0
                timed["numpy"] += t2 - t1
        sampled = {"python": 0.0, "numpy": 0.0}
        n = 0
        for sample in profiler.samples:
            names = {label.split(" (", 1)[0] for label in sample.stack}
            for part in ("numpy", "python"):
                if f"{part}_part" in names:
                    sampled[part] += sample.cpu_s
                    n += 1
                    break
        share = sampled["python"] / (sampled["python"] + sampled["numpy"])
        expected = timed["python"] / (timed["python"] + timed["numpy"])
        assert n > 400
        assert abs(share - expected) <= 0.05, (share, expected, sampled, n)
