"""Shared infrastructure for the per-figure experiment modules.

Every experiment module exposes ``run(scale=...) -> FigureResult``.  A
:class:`FigureResult` is a figure id, a list of row dicts (the series the
paper plots), and free-form notes; ``print_table`` renders it for the
benchmark harness and EXPERIMENTS.md.

Scaling: the paper's experiments use 50-110 pathload runs per operating
point and 5-minute wall intervals.  On one CPU core that is hours, so every
experiment accepts a :class:`Scale` that defaults to a reduced-but-faithful
configuration and expands to paper scale when the environment variable
``REPRO_FULL=1`` is set.
"""

from __future__ import annotations

import io
import math
import numbers
import os
from dataclasses import dataclass, field
import numpy as np

from ..core.config import PathloadConfig

__all__ = [
    "Scale",
    "FigureResult",
    "default_scale",
    "rng_from_entropy",
    "spawn_seed_entropy",
    "spawn_seeds",
    "fast_pathload_config",
]


@dataclass(frozen=True)
class Scale:
    """How much repetition/duration an experiment run uses.

    ``runs`` is the number of independent pathload measurements per
    operating point; ``interval`` the duration (seconds) of each Section
    VII-style measurement interval; ``full`` marks paper scale.
    """

    runs: int
    interval: float
    full: bool

    def __post_init__(self) -> None:
        if not isinstance(self.runs, numbers.Integral) or self.runs < 1:
            raise ValueError(f"runs must be an int >= 1, got {self.runs!r}")
        # False for NaN as well as for zero, negative and infinite values.
        if not 0 < self.interval < math.inf:
            raise ValueError(f"interval must be finite and > 0, got {self.interval}")


def default_scale(
    runs: int = 5, interval: float = 60.0, full_runs: int = 50, full_interval: float = 300.0
) -> Scale:
    """The experiment's scale: reduced by default, paper scale under
    ``REPRO_FULL=1``."""
    if os.environ.get("REPRO_FULL") == "1":
        return Scale(runs=full_runs, interval=full_interval, full=True)
    return Scale(runs=runs, interval=interval, full=False)


def spawn_seed_entropy(master_seed: int, n: int) -> list[int]:
    """``n`` integer entropy tokens, one per spawned child stream.

    Token ``i`` encodes ``(master_seed, i)``; :func:`rng_from_entropy`
    rebuilds **exactly** the generator ``spawn_seeds(master_seed, n)[i]``
    (``SeedSequence(master).spawn(n)[i]`` equals ``SeedSequence(master,
    spawn_key=(i,))``).  Use these wherever a seed must cross a process
    boundary — a plain ``int`` pickles in a few bytes, a ``Generator``
    does not travel honestly.
    """
    if master_seed < 0:
        raise ValueError(f"master seed must be >= 0, got {master_seed}")
    if n < 0:
        raise ValueError(f"need n >= 0 streams, got {n}")
    return [(master_seed << 32) | i for i in range(n)]


def rng_from_entropy(token: int) -> np.random.Generator:
    """The generator a :func:`spawn_seed_entropy` token stands for."""
    master_seed, index = token >> 32, token & 0xFFFFFFFF
    return np.random.default_rng(
        np.random.SeedSequence(master_seed, spawn_key=(index,))
    )


def spawn_seeds(master_seed: int, n: int) -> list[np.random.Generator]:
    """``n`` independent generators derived from one master seed.

    Delegates to :func:`spawn_seed_entropy` so the serial seed streams and
    the streams a process-parallel sweep reconstructs are the same streams.
    """
    return [rng_from_entropy(token) for token in spawn_seed_entropy(master_seed, n)]


def fast_pathload_config(**overrides) -> PathloadConfig:
    """Pathload config for the accuracy/dynamics experiments.

    Identical to the released tool's defaults except ``idle_factor=1``:
    the long interstream idle (9 stream durations) only matters for the
    intrusiveness study (Figs. 17-18, which use the real value); accuracy
    is unaffected, and the shorter idle cuts simulated (and therefore
    wall-clock) time by ~5x.
    """
    params = {"idle_factor": 1.0}
    params.update(overrides)
    return PathloadConfig(**params)


@dataclass
class FigureResult:
    """One reproduced figure: identifying metadata plus the plotted rows."""

    figure_id: str
    title: str
    columns: list[str]
    rows: list[dict] = field(default_factory=list)
    notes: str = ""

    def add_row(self, **values) -> None:
        """Append one row (values keyed by column name)."""
        unknown = set(values) - set(self.columns)
        if unknown:
            raise ValueError(f"row has unknown columns: {sorted(unknown)}")
        self.rows.append(values)

    def column(self, name: str) -> list:
        """All values of one column, in row order."""
        if name not in self.columns:
            raise KeyError(name)
        return [row.get(name) for row in self.rows]

    def to_table(self) -> str:
        """Render rows as a fixed-width text table."""
        def fmt(value) -> str:
            if isinstance(value, float):
                return f"{value:.3f}"
            return str(value) if value is not None else ""

        cells = [[fmt(row.get(c)) for c in self.columns] for row in self.rows]
        widths = [
            max(len(c), *(len(r[i]) for r in cells)) if cells else len(c)
            for i, c in enumerate(self.columns)
        ]
        out = io.StringIO()
        header = "  ".join(c.ljust(w) for c, w in zip(self.columns, widths))
        out.write(f"== {self.figure_id}: {self.title} ==\n")
        out.write(header + "\n")
        out.write("-" * len(header) + "\n")
        for row in cells:
            out.write("  ".join(v.ljust(w) for v, w in zip(row, widths)) + "\n")
        if self.notes:
            out.write(f"note: {self.notes}\n")
        return out.getvalue()

    def print_table(self) -> None:
        """Print the table to stdout (benchmark harness hook)."""
        print(self.to_table())  # simlint: disable=SIM007 -- the CLIs' table-rendering hook
