"""The benchmark's own tests: tiny runs of every workload.

Run from the root of a checkout::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import os

import pytest

from perfbench import compare, hostspeed
from perfbench import run as bench
from perfbench.layers import PATCH_POINTS, PER_LAYER, _lookup
from perfbench.workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCH = json.load(_fh)

#: Per-layer metrics that must repeat exactly for the same seed.
EXACT = {m.name for m in PER_LAYER if m.unit == "count"} | {
    "link.drop_frac",
    "streamtransit.engaged_frac",
    "kernels.engaged_frac",
    "transport.probe_elided_frac",
    "core.sim_s_per_run",
    "failed_frac",
}


def _tiny(name: str):
    return dataclasses.replace(WORKLOADS[name], min_tasks=2, traced_tasks=2, check_tasks=1)


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """One timed and two traced tiny runs of every workload, and the
    timed runs' extra report fields."""
    originals = [_lookup(module, cls, attr) for _n, module, cls, attr in PATCH_POINTS]
    out_dir, bench.OUT_DIR = bench.OUT_DIR, str(tmp_path_factory.mktemp("perfbench"))
    try:
        results, extras = {}, {}
        for name in WORKLOADS:
            workload = _tiny(name)
            timed, extras[name] = bench.timed_run(workload, seed=3, seconds=0.0, setup_s=1.0)
            traced = [bench.traced_run(workload, 3, f"{name}-{k}") for k in range(2)]
            results[name] = (timed, traced)
    finally:
        bench.OUT_DIR = out_dir
    return originals, results, extras


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCH["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in BENCH["per_layer"]] == [
        (m.name, m.unit, m.better) for m in PER_LAYER
    ]


def test_every_metric_is_emitted_with_its_unit(runs):
    _originals, results, _extras = runs
    end_to_end = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    for name, (timed, traced) in results.items():
        assert timed["correct"], name
        assert {k: v["unit"] for k, v in timed["metrics"].items()} == end_to_end
        for result, _extra in traced:
            assert result["correct"], name
            assert {k: v["unit"] for k, v in result["metrics"].items()} == per_layer


def test_counts_repeat_exactly(runs):
    _originals, results, _extras = runs
    for name, (_timed, ((first, _), (second, _))) in results.items():
        for metric in EXACT:
            assert first["metrics"][metric] == second["metrics"][metric], (name, metric)


def test_predicted_zeros(runs):
    _originals, results, _extras = runs

    def value(workload: str, metric: str) -> float:
        return results[workload][1][0][0]["metrics"][metric]["value"]

    assert value("sec7-testbed", "crosstraffic.packets") == 0
    assert value("sec7-testbed", "kernels.calls") == 0
    assert value("fig05-multihop", "flowtransit.flows_planned") == 0
    assert value("fig11-modulated", "flowtransit.flows_planned") == 0
    assert value("sec7-testbed", "flowtransit.flows_planned") > 0
    assert value("fig05-multihop", "crosstraffic.packets") > 0
    for name in WORKLOADS:
        assert value(name, "parallel.cache_hits") == 0


def test_wrappers_are_removed(runs):
    originals, results, _extras = runs
    for (_n, module, cls, attr), before in zip(PATCH_POINTS, originals):
        after = _lookup(module, cls, attr)
        assert before is None or after[1] is before[1]
    for _timed, traced in results.values():
        for _result, extra in traced:
            assert extra["restored"] and extra["traced_equals_untraced"]


def test_times_are_scaled_by_host_speed(runs):
    _originals, results, extras = runs
    nominal = hostspeed.NOMINAL_BLOCK_S
    assert hostspeed.scale([nominal] * 3) == 1.0
    assert hostspeed.scale([nominal * 2] * 3) == 0.5
    # A slow spell halfway through: tasks far from it keep factor 1, a
    # stall in a single block moves no factor.
    blocks = [nominal] * 20 + [nominal * 2] * 20
    blocks[5] = nominal * 10
    factors = hostspeed.scales(blocks)
    assert factors[:14] == [1.0] * 14 and factors[26:] == [0.5] * 14
    for name, (timed, _traced) in results.items():
        extra, metrics = extras[name], timed["metrics"]
        assert extra["host_scale"] > 0, name
        for metric in ("task_s.p50", "task_s.tail"):
            ratio = metrics[metric]["value"] / extra[f"host_{metric}"]
            assert 0.5 < ratio / extra["host_scale"] < 2.0, (name, metric)


def _record(workload: str, seed: int, value: float) -> str:
    result = {"metrics": {"task_s.p50": {"value": value, "unit": "s"}}}
    return json.dumps({"workload": workload, "seed": seed, "trace": 0, "result": result})


def test_compare_verdicts(tmp_path):
    parent, faster, slower = (tmp_path / n for n in ("a.jsonl", "b.jsonl", "c.jsonl"))
    parent.write_text("\n".join(_record("w", s, 1.0 + 0.01 * s) for s in range(10)))
    faster.write_text("\n".join(_record("w", s, 0.5 + 0.01 * s) for s in range(10)))
    slower.write_text("\n".join(_record("w", s, 2.0 + 0.01 * s) for s in range(10)))
    bench_spec = {"end_to_end": [{"name": "task_s.p50", "unit": "s", "better": "lower", "bound": 0.1}]}
    a = compare.load(str(parent))
    better = compare.compare(a, compare.load(str(faster)), bench_spec)
    worse = compare.compare(a, compare.load(str(slower)), bench_spec)
    same = compare.compare(a, a, bench_spec)
    assert better.splitlines()[2].endswith("better")
    assert worse.splitlines()[2].endswith("worse")
    assert same.splitlines()[2].endswith("unchanged")
    noisy, shifted = tmp_path / "d.jsonl", tmp_path / "e.jsonl"
    noisy.write_text("\n".join(_record("w", s, 1.0 + 0.1 * s) for s in range(10)))
    shifted.write_text("\n".join(_record("w", s, 1.3 + 0.1 * s) for s in range(10)))
    unresolved = compare.compare(compare.load(str(noisy)), compare.load(str(shifted)), bench_spec)
    assert unresolved.splitlines()[2].endswith("unresolved")
