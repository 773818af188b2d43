"""Compare benchmark results of two commits.

Usage, from the root of a checkout::

    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl

Each file holds the records ``perfbench/run.py`` appends to
``.perfbench/results.jsonl``.  For every workload and end-to-end metric
the command prints both sides' medians and quartiles, the share of pairs
(same seed on both sides) the change won, and a verdict against the bound
in ``BENCHMARK.json``:

* ``better``: the change won at least 9/10 of the pairs and the medians
  differ by more than the parent's own quartile spread;
* ``worse``: the change's median is worse than the parent's by more than
  the bound;
* ``unresolved``: the parent's runs spread wider than the bound, so the
  bound cannot be checked (unless every run of the change is better, or
  every run worse, than every run of the parent);
* ``unchanged``: none of the above.

Below that it prints each per-layer metric's medians and change, with the
end-to-end metric the layer should move, so a speed-up or slow-down
explains itself.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

from perfbench.layers import PER_LAYER  # noqa: E402

BENCHMARK = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")

#: Share of pairs the change must win to claim a gain.
WIN_SHARE = 0.9


def load(path: str) -> dict:
    """``{(workload, trace): {metric: [(seed, value), ...]}}`` of one file."""
    out: dict = defaultdict(lambda: defaultdict(list))
    with open(path) as fh:
        for line in fh:
            if not line.strip():
                continue
            record = json.loads(line)
            key = (record["workload"], record["trace"])
            for name, metric in record["result"]["metrics"].items():
                out[key][name].append((record["seed"], metric["value"]))
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def pairs(a: list, b: list) -> list[tuple[float, float]]:
    """Runs of both sides paired by seed; by order when no seed matches."""
    by_seed_a, by_seed_b = defaultdict(list), defaultdict(list)
    for seed, value in a:
        by_seed_a[seed].append(value)
    for seed, value in b:
        by_seed_b[seed].append(value)
    common = sorted(set(by_seed_a) & set(by_seed_b))
    if not common:
        return list(zip(sorted(v for _s, v in a), sorted(v for _s, v in b)))
    return [p for seed in common for p in zip(by_seed_a[seed], by_seed_b[seed])]


def verdict(a: list[float], b: list[float], won: float, better: str, bound: float) -> str:
    """Verdict of the change ``b`` against the parent ``a``."""
    sign = 1.0 if better == "higher" else -1.0
    a_q1, a_med, a_q3 = quartiles(a)
    _b_q1, b_med, _b_q3 = quartiles(b)
    gain = sign * (b_med - a_med)
    if won >= WIN_SHARE and gain > a_q3 - a_q1:
        return "better"
    if a_med and (a_q3 - a_q1) / abs(a_med) > bound:
        if all(sign * (x - y) > 0 for x in b for y in a):
            return "unchanged"
        if all(sign * (x - y) < 0 for x in b for y in a):
            return "worse"
        return "unresolved"
    if a_med and -gain / abs(a_med) > bound:
        return "worse"
    return "unchanged"


def _fmt(value: float) -> str:
    return f"{value:.5g}"


def compare(parent: dict, change: dict, bench: dict) -> str:
    lines = [
        "end-to-end: parent -> change (median [q1, q3]); won = share of "
        "same-seed pairs the change won",
        f"{'workload':<17} {'metric':<15} {'unit':<6} {'parent':<30} {'change':<30} "
        f"{'delta':>8} {'won':>5} {'bound':>6}  verdict",
    ]
    workloads = sorted({w for w, trace in parent if trace == 0} | {w for w, trace in change if trace == 0})
    for workload in workloads:
        a_runs, b_runs = parent.get((workload, 0), {}), change.get((workload, 0), {})
        for spec in bench["end_to_end"]:
            name = spec["name"]
            a, b = a_runs.get(name, []), b_runs.get(name, [])
            if not a or not b:
                lines.append(f"{workload:<17} {name:<15} missing on one side")
                continue
            av, bv = [v for _s, v in a], [v for _s, v in b]
            sign = 1.0 if spec["better"] == "higher" else -1.0
            paired = pairs(a, b)
            won = sum(1 for x, y in paired if sign * (y - x) > 0) / len(paired)
            a_q1, a_med, a_q3 = quartiles(av)
            b_q1, b_med, b_q3 = quartiles(bv)
            delta = (b_med - a_med) / a_med if a_med else 0.0
            lines.append(
                f"{workload:<17} {name:<15} {spec['unit']:<6} "
                f"{_fmt(a_med) + ' [' + _fmt(a_q1) + ', ' + _fmt(a_q3) + ']':<30} "
                f"{_fmt(b_med) + ' [' + _fmt(b_q1) + ', ' + _fmt(b_q3) + ']':<30} "
                f"{delta:>+8.1%} {won:>5.0%} {spec['bound']:>6.0%}  "
                f"{verdict(av, bv, won, spec['better'], spec['bound'])}"
            )
    lines += [
        "",
        "per-layer: parent -> change (medians of traced runs)",
        f"{'workload':<17} {'metric':<28} {'unit':<6} {'parent':>11} {'change':>11} "
        f"{'delta':>8}  should move",
    ]
    workloads = sorted({w for w, trace in parent if trace == 1} | {w for w, trace in change if trace == 1})
    for workload in workloads:
        a_runs, b_runs = parent.get((workload, 1), {}), change.get((workload, 1), {})
        for metric in PER_LAYER:
            a, b = a_runs.get(metric.name, []), b_runs.get(metric.name, [])
            if not a or not b:
                continue
            a_med = statistics.median(v for _s, v in a)
            b_med = statistics.median(v for _s, v in b)
            delta = f"{(b_med - a_med) / a_med:>+8.1%}" if a_med else f"{'':>8}"
            lines.append(
                f"{workload:<17} {metric.name:<28} {metric.unit:<6} {_fmt(a_med):>11} "
                f"{_fmt(b_med):>11} {delta}  {metric.moves}"
            )
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Compare two commits' benchmark results.")
    parser.add_argument("parent", help="results.jsonl of the parent commit")
    parser.add_argument("change", help="results.jsonl of the change")
    args = parser.parse_args(argv)
    with open(BENCHMARK) as fh:
        bench = json.load(fh)
    print(compare(load(args.parent), load(args.change), bench))
    return 0


if __name__ == "__main__":
    sys.exit(main())
