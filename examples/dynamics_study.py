#!/usr/bin/env python3
"""Study avail-bw dynamics: variability vs load (the Section VI workflow).

Runs pathload repeatedly on the same path under light, moderate, and heavy
tight-link load, computes the relative-variation metric rho per run
(Eq. 12), and prints an ASCII CDF per condition — a miniature of the
paper's Fig. 11.

Run:  python examples/dynamics_study.py [runs_per_condition]
"""

import sys

import numpy as np

from repro.analysis import cdf_points
from repro.experiments.dynamics import rho_samples

CAPACITY = 12.4e6
#: (label, lo, hi, master seed): each condition's runs draw from a fixed
#: seed, so two runs of this script print the same numbers.
CONDITIONS = (
    ("light 20-30%", 0.20, 0.30, 1),
    ("moderate 40-50%", 0.40, 0.50, 2),
    ("heavy 75-85%", 0.75, 0.85, 3),
)


def ascii_cdf(values, width: int = 48) -> str:
    """Render an empirical CDF as rows of '#' bars."""
    xs, ps = cdf_points(values)
    lines = []
    grid = np.linspace(0, max(xs.max(), 0.1), 9)[1:]
    for x in grid:
        p = float(np.interp(x, xs, ps, left=0.0, right=1.0))
        bar = "#" * int(round(p * width))
        lines.append(f"  rho<= {x:5.2f} |{bar.ljust(width)}| {p:4.0%}")
    return "\n".join(lines)


def main() -> None:
    runs = int(sys.argv[1]) if len(sys.argv) > 1 else 8
    print(
        f"path: single tight link, C = {CAPACITY / 1e6:.1f} Mb/s, Pareto cross "
        f"traffic; {runs} pathload runs per condition\n"
    )
    medians = {}
    for label, lo, hi, seed in CONDITIONS:
        samples = rho_samples(
            runs=runs, master_seed=seed, capacity_bps=CAPACITY, utilization=(lo, hi)
        )
        medians[label] = float(np.median(samples))
        print(f"== {label}:  median rho = {medians[label]:.2f}")
        print(ascii_cdf(samples))
        print()
    print("takeaway: the avail-bw becomes more variable as the tight link's")
    print("load grows — heavily loaded paths give less predictable throughput.")
    ordered = [medians[label] for label, *_rest in CONDITIONS]
    if ordered == sorted(ordered):
        print("(confirmed: median rho is increasing across the conditions)")


if __name__ == "__main__":
    main()
