"""Opt-in sampling profiler with sim-time correlation.

A :class:`Profiler` samples the main thread's Python stack on CPU time:
``signal.setitimer(signal.ITIMER_PROF, ...)`` makes the kernel send
``SIGPROF`` after each interval of process CPU time, and Python runs the
handler in the main thread at the next bytecode boundary, with the frame
that was running.  A sample therefore lands on the Python frame that is
using the CPU, or on the frame that called into C: time inside a NumPy
call is charged to the function that made it.  (A helper thread that
snapshots ``sys._current_frames()`` cannot do this: it runs only while it
holds the GIL, which it mostly gets while the main thread is inside a
NumPy call that released it, so its samples pile up on those frames.)

The kernel tick limits resolution: a 1 ms request gives about one sample
per 4 ms on a 250 Hz kernel, and timer expiries inside one long C call
are handled once, after it returns.  Each sample therefore carries the
process CPU time since the previous one (``cpu_s``), and the speedscope
export weights samples by it.  The simulation is never instrumented, so a
stopped profiler costs nothing.

Each sample also records the *simulated* clock of the most recently
constructed :class:`~repro.netsim.engine.Simulator` (registered through
the ambient-profiler hook), so a flamegraph can be cross-referenced with
trace events: "those 40 ms of CPU were spent between sim seconds 12 and
13, inside the per-packet link path".

This module is the *only* place in the repository that is allowed to read
the host clocks outside ``wall``-labeled sweep telemetry — it observes the
host, never the simulation, and nothing it records feeds back into any
simulated quantity (the determinism contract of docs/observability.md is
untouched; every ``time`` call below carries an explicit SIM001 pragma).

Python delivers signals to the main thread only, so :meth:`Profiler.start`
raises :class:`RuntimeError` anywhere else, and only one profiler runs at
a time.

Exports (suffix-dispatched by :meth:`Profiler.write`):

* **collapsed stacks** (``.txt`` / anything unrecognized): one
  ``frame;frame;frame count`` line per distinct stack, the input format
  of every flamegraph renderer since Brendan Gregg's original scripts;
* **speedscope** (``.json``): the ``"sampled"`` profile flavor of
  https://www.speedscope.app — load the file in the web UI.

Enable from the CLIs with ``--profile PATH`` (``repro-pathload``,
``repro-sweep``) or the ``REPRO_PROFILE`` environment variable; the
benchmark harness also attaches one to every ``REPRO_PERF_GATE`` gate
test and ships the profile as an artifact when the gate fails.
"""

from __future__ import annotations

import json
import os
import signal
import threading
import time
from typing import Optional

__all__ = ["Profiler", "ProfileSample", "env_profile_path"]

#: Environment variable naming a profile output path (CLI fallback).
PROFILE_ENV = "REPRO_PROFILE"

#: Default sampling interval of process CPU time (5 ms requested; the
#: kernel rounds it up to whole ticks).
DEFAULT_INTERVAL_S = 0.005


class ProfileSample:
    """One stack snapshot: wall and CPU time, correlated sim time, frames."""

    __slots__ = ("wall_s", "cpu_s", "sim_now", "stack")

    def __init__(
        self, wall_s: float, cpu_s: float, sim_now: Optional[float], stack: tuple
    ):
        self.wall_s = wall_s  #: seconds since Profiler.start()
        self.cpu_s = cpu_s  #: process CPU seconds since the previous sample
        self.sim_now = sim_now  #: simulated seconds, or None before any sim
        self.stack = stack  #: root-first tuple of "func (file:line)" frames


def _frame_label(frame) -> str:
    code = frame.f_code
    filename = os.path.basename(code.co_filename)
    return f"{code.co_name} ({filename}:{code.co_firstlineno})"


class Profiler:
    """CPU-time stack sampler for the main thread.

    Use as a context manager (or call :meth:`start` / :meth:`stop`)::

        with Profiler() as prof:
            run_figure(...)
        prof.write("run.speedscope.json")

    ``samples`` is empty until :meth:`start` runs — a disabled profiler
    records nothing and costs nothing.
    """

    def __init__(self, interval_s: float = DEFAULT_INTERVAL_S):
        if interval_s <= 0:
            raise ValueError(f"interval must be positive, got {interval_s}")
        self.interval_s = float(interval_s)
        self.samples: list[ProfileSample] = []
        self._running = False
        self._t0 = 0.0
        self._cpu = 0.0
        self._prev_handler = None
        # Most recently constructed simulator (ambient hook); read by the
        # signal handler for sim-time correlation.
        self._sim = None
        self._prev_ambient = None

    # -- ambient hook ---------------------------------------------------
    def _watch(self, sim) -> None:
        """Called by ``Simulator.__init__`` while this profiler is ambient."""
        self._sim = sim

    # -- lifecycle ------------------------------------------------------
    def start(self) -> "Profiler":
        """Begin sampling the main thread; returns ``self``."""
        if self._running:
            raise RuntimeError("profiler already started")
        if threading.current_thread() is not threading.main_thread():
            raise RuntimeError(
                "Profiler samples on SIGPROF, which Python handles in the "
                "main thread only; start it from the main thread"
            )
        # SIGPROF has one handler per process.
        handler = signal.getsignal(signal.SIGPROF)
        if isinstance(getattr(handler, "__self__", None), Profiler):
            raise RuntimeError("another Profiler is already sampling this process")
        from ..netsim.engine import set_ambient_profiler

        self._prev_ambient = set_ambient_profiler(self)
        self._t0 = time.perf_counter()  # simlint: disable=SIM001 -- host-side profiler timestamps, outside the simulation
        self._cpu = time.process_time()  # simlint: disable=SIM001 -- host-side profiler timestamps, outside the simulation
        self._prev_handler = signal.signal(signal.SIGPROF, self._on_sigprof)
        signal.setitimer(signal.ITIMER_PROF, self.interval_s, self.interval_s)
        self._running = True
        return self

    def stop(self) -> None:
        """Stop sampling (idempotent)."""
        if not self._running:
            return
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        prev = self._prev_handler
        signal.signal(signal.SIGPROF, prev if prev is not None else signal.SIG_DFL)
        self._prev_handler = None
        self._running = False
        from ..netsim.engine import set_ambient_profiler

        set_ambient_profiler(self._prev_ambient)
        self._prev_ambient = None

    def __enter__(self) -> "Profiler":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- signal handler -------------------------------------------------
    def _on_sigprof(self, _signum, frame) -> None:
        cpu = time.process_time()  # simlint: disable=SIM001 -- host-side profiler timestamps, outside the simulation
        cpu_s = cpu - self._cpu
        self._cpu = cpu
        stack = []
        while frame is not None:
            stack.append(_frame_label(frame))
            frame = frame.f_back
        stack.reverse()
        sim = self._sim
        sim_now = sim._now if sim is not None else None
        wall = time.perf_counter() - self._t0  # simlint: disable=SIM001 -- host-side profiler timestamps, outside the simulation
        self.samples.append(ProfileSample(wall, cpu_s, sim_now, tuple(stack)))

    # -- aggregation + export -------------------------------------------
    def collapsed(self) -> str:
        """Aggregated collapsed-stack text (flamegraph.pl input)."""
        counts: dict[tuple, int] = {}
        for sample in self.samples:
            counts[sample.stack] = counts.get(sample.stack, 0) + 1
        lines = [
            ";".join(stack) + f" {n}"
            for stack, n in sorted(counts.items())
        ]
        return "\n".join(lines) + ("\n" if lines else "")

    def speedscope(self, name: str = "repro-profile") -> dict:
        """The https://www.speedscope.app ``sampled`` JSON document.

        Each sample is weighted by the process CPU seconds it stands for.
        Sim-time correlation rides along: each sample's simulated clock is
        exported as ``simTimes`` (same indexing as ``samples``), a
        documented extension field viewers simply ignore.
        """
        frame_index: dict[str, int] = {}
        frames: list[dict] = []
        sample_stacks: list[list[int]] = []
        weights: list[float] = []
        sim_times: list[Optional[float]] = []
        for sample in self.samples:
            indexed = []
            for label in sample.stack:
                idx = frame_index.get(label)
                if idx is None:
                    idx = frame_index[label] = len(frames)
                    frames.append({"name": label})
                indexed.append(idx)
            sample_stacks.append(indexed)
            weights.append(sample.cpu_s)
            sim_times.append(sample.sim_now)
        return {
            "$schema": "https://www.speedscope.app/file-format-schema.json",
            "shared": {"frames": frames},
            "profiles": [
                {
                    "type": "sampled",
                    "name": name,
                    "unit": "seconds",
                    "startValue": 0.0,
                    "endValue": sum(weights),
                    "samples": sample_stacks,
                    "weights": weights,
                    "simTimes": sim_times,
                }
            ],
            "name": name,
            "exporter": "repro.obs.profiler",
        }

    def write(self, path: str) -> None:
        """Suffix-dispatched export: ``.json`` → speedscope, anything else
        → collapsed-stack text."""
        if path.endswith(".json"):
            with open(path, "w") as fh:
                json.dump(self.speedscope(), fh)
        else:
            with open(path, "w") as fh:
                fh.write(self.collapsed())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "running" if self._running else "stopped"
        return f"<Profiler {len(self.samples)} samples ({state})>"


def env_profile_path() -> Optional[str]:
    """Profile output path from ``REPRO_PROFILE``, or ``None``."""
    return os.environ.get(PROFILE_ENV) or None
