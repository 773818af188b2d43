"""Process-parallel experiment sweeps with a deterministic result cache.

The paper's evaluation needs 50-110 independent pathload runs per operating
point (Sections V-VII).  Each run is a self-contained seeded simulation, so
the sweep over ``(experiment, operating point, seed)`` is embarrassingly
parallel — yet must stay *bit-identical* to the serial order, because the
whole repository's promise is replayability from a master seed.

This module provides the fan-out layer:

* :class:`SweepTask` — a picklable description of one run.  Seeds cross the
  process boundary as **integer entropy tokens** (see
  :func:`repro.experiments.base.spawn_seed_entropy`), never as
  ``numpy.random.Generator`` objects, so tasks are cheap to ship.
* :func:`run_sweep` — executes tasks with a process pool (``jobs > 1``) or
  in-process (``jobs=1``, the reference order), collates results **in task
  order** regardless of completion order, and captures per-task failures:
  a crashed worker reports the offending seed/config instead of killing the
  sibling runs.
* An on-disk result cache under ``.repro_cache/`` keyed by
  ``(experiment id, worker function, task kwargs, seed entropy, repro
  version)``; re-running a figure after an unrelated edit is a cache hit.
  ``cache=False`` (CLI: ``--no-cache``) bypasses it.

Because every task re-derives its generator from the same entropy token in
either mode, ``run_sweep(tasks, jobs=N)`` returns exactly the values of
``run_sweep(tasks, jobs=1)`` — the property ``tests/test_parallel.py``
asserts row-for-row on a real figure.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import os
import pickle
import shutil
import tempfile
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping, Optional

from . import __version__

__all__ = [
    "SweepTask",
    "SweepOutcome",
    "SweepError",
    "run_sweep",
    "sweep_values",
    "cache_key",
    "cache_path",
    "default_cache_dir",
    "clear_cache",
    "set_default_tracer",
]

#: Environment variable overriding the cache location.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

_DEFAULT_CACHE_DIR = ".repro_cache"


@dataclass(frozen=True)
class SweepTask:
    """One unit of sweep work: a worker function plus plain-data arguments.

    ``fn`` must be a **module-level** function (process pools pickle it by
    reference) and is invoked as ``fn(seed_entropy, **kwargs)`` when
    ``seed_entropy`` is set, else ``fn(**kwargs)``.  ``kwargs`` must be
    plain picklable data — dataclass configs, numbers, strings — never live
    simulator state or ``Generator`` objects.

    ``experiment`` names the figure/study the task belongs to; it prefixes
    the cache layout and failure reports.
    """

    fn: Callable[..., Any]
    kwargs: Mapping[str, Any] = field(default_factory=dict)
    experiment: str = "sweep"
    seed_entropy: Optional[int] = None

    def __post_init__(self) -> None:
        # Process pools pickle workers by reference, so a lambda or nested
        # def would fail at submit time with an opaque PicklingError deep
        # inside concurrent.futures; reject it at construction instead.
        # (The same hazard is flagged statically at the call site by lint
        # rule SIM011.)
        qualname = getattr(self.fn, "__qualname__", "")
        if "<lambda>" in qualname or "<locals>" in qualname:
            raise TypeError(
                f"SweepTask.fn must be a module-level function, got "
                f"{qualname!r}: process pools pickle workers by reference, "
                "and the cache key uses the fn's qualified name"
            )

    def describe(self) -> str:
        """Human-readable identity used in failure reports."""
        parts = [f"experiment={self.experiment!r}"]
        if self.seed_entropy is not None:
            parts.append(f"seed_entropy={self.seed_entropy}")
        parts.append(f"fn={self.fn.__module__}.{self.fn.__qualname__}")
        if self.kwargs:
            rendered = ", ".join(f"{k}={v!r}" for k, v in sorted(self.kwargs.items()))
            parts.append(f"kwargs({rendered})")
        return " ".join(parts)


@dataclass
class SweepOutcome:
    """Result slot for one task, in the original submission order."""

    task: SweepTask
    value: Any = None
    #: formatted traceback when the worker raised; ``None`` on success
    error: Optional[str] = None
    #: True when the value came from the on-disk cache (no simulation ran)
    cached: bool = False
    #: host wall-clock seconds the worker spent (``None`` for cache hits).
    #: Explicitly wall-labeled telemetry — never a simulated quantity.
    wall_s: Optional[float] = None
    #: child-tracer telemetry (``Tracer.dump_state()``) captured while the
    #: task ran, or replayed from the cache entry; ``None`` untraced.
    telemetry: Optional[dict] = field(default=None, repr=False)

    @property
    def ok(self) -> bool:
        """True when the task produced a value (fresh or cached)."""
        return self.error is None


class SweepError(RuntimeError):
    """One or more sweep tasks failed; carries every captured failure."""

    def __init__(self, failures: list[tuple[int, SweepOutcome]]):
        self.failures = failures
        lines = [f"{len(failures)} sweep task(s) failed:"]
        for index, outcome in failures:
            lines.append(f"  task {index}: {outcome.task.describe()}")
            last = (outcome.error or "").strip().splitlines()
            if last:
                lines.append(f"    {last[-1]}")
        super().__init__("\n".join(lines))


# ----------------------------------------------------------------------
# Cache keying
# ----------------------------------------------------------------------
def _stable(value: Any) -> str:
    """Deterministic, content-only encoding of a task argument.

    Restricted on purpose: anything whose repr embeds memory addresses or
    iteration order would silently poison the cache key, so unknown types
    are rejected instead of guessed at.
    """
    if value is None or isinstance(value, (bool, int, str, bytes)):
        return repr(value)
    if isinstance(value, float):
        return repr(value)  # round-trippable shortest repr
    if isinstance(value, (list, tuple)):
        inner = ",".join(_stable(v) for v in value)
        return f"[{inner}]" if isinstance(value, list) else f"({inner})"
    if isinstance(value, dict):
        items = sorted((repr(k), _stable(v)) for k, v in value.items())
        return "{" + ",".join(f"{k}:{v}" for k, v in items) + "}"
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = ",".join(
            f"{f.name}={_stable(getattr(value, f.name))}"
            for f in dataclasses.fields(value)
        )
        return f"{type(value).__qualname__}({fields})"
    raise TypeError(
        f"cannot build a deterministic cache key from {type(value).__qualname__}: "
        "sweep task kwargs must be plain data (numbers, strings, containers, "
        "dataclass configs)"
    )


def cache_key(task: SweepTask) -> str:
    """Hex digest identifying one task's result.

    Folds in the experiment id, the worker function's qualified name, the
    seed entropy token, every kwarg, and the ``repro`` package version — so
    a release that changes simulation behavior invalidates old entries
    wholesale.
    """
    hasher = hashlib.blake2b(digest_size=16)
    for part in (
        __version__,
        task.experiment,
        f"{task.fn.__module__}.{task.fn.__qualname__}",
        repr(task.seed_entropy),
        _stable(dict(task.kwargs)),
    ):
        hasher.update(part.encode())
        hasher.update(b"\x00")
    return hasher.hexdigest()


def default_cache_dir() -> str:
    """Cache root: ``$REPRO_CACHE_DIR`` or ``.repro_cache/`` in the cwd."""
    return os.environ.get(CACHE_DIR_ENV) or _DEFAULT_CACHE_DIR


def cache_path(task: SweepTask, cache_dir: Optional[str] = None) -> str:
    """On-disk location of one task's cached result."""
    root = cache_dir if cache_dir is not None else default_cache_dir()
    return os.path.join(root, task.experiment, cache_key(task) + ".pkl")


def clear_cache(cache_dir: Optional[str] = None) -> bool:
    """Delete the whole cache tree.  Returns True if anything was removed."""
    root = cache_dir if cache_dir is not None else default_cache_dir()
    if not os.path.isdir(root):
        return False
    shutil.rmtree(root)
    return True


@dataclass
class _CacheEnvelope:
    """On-disk cache record: the task value plus captured telemetry.

    ``capture`` records how the telemetry was collected (``None`` for an
    untraced run, ``"light"`` / ``"full"`` otherwise) so a traced sweep
    only replays entries whose telemetry matches its own capture mode —
    cache hits then reproduce a cold traced run bit-identically.
    """

    value: Any
    capture: Optional[str] = None
    telemetry: Optional[dict] = None


def _cache_load(path: str) -> tuple[bool, Any, Optional[str], Optional[dict]]:
    """(hit, value, capture, telemetry); corrupt entries count as misses.

    Pre-envelope entries (bare pickled values) still load, reported as
    ``capture=None``.
    """
    try:
        with open(path, "rb") as fh:
            entry = pickle.load(fh)
    except (OSError, pickle.PickleError, EOFError, AttributeError):
        return False, None, None, None
    if isinstance(entry, _CacheEnvelope):
        return True, entry.value, entry.capture, entry.telemetry
    return True, entry, None, None


def _cache_store(path: str, value: Any) -> None:
    """Atomic write (tmp + rename) so concurrent sweeps never see torn files."""
    directory = os.path.dirname(path)
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            pickle.dump(value, fh, protocol=pickle.HIGHEST_PROTOCOL)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------
#: Tracer used when ``run_sweep`` is called without an explicit one — set
#: by the CLI ``--trace`` flags so figure modules need no signature change.
_default_tracer = None


def set_default_tracer(tracer) -> Any:
    """Install the process-wide default sweep tracer; returns the previous
    one so callers can restore it."""
    global _default_tracer
    previous = _default_tracer
    _default_tracer = tracer
    return previous


def _invoke(
    item: tuple[SweepTask, Optional[str]],
) -> tuple[bool, Any, float, Optional[dict]]:
    """Run one ``(task, capture)`` item, capturing exceptions as tracebacks.

    Module-level so process pools can pickle it by reference; the
    ``(ok, payload, wall_s, telemetry)`` protocol keeps worker crashes from
    poisoning the pool and carries host wall time plus (when ``capture``
    is ``"light"``/``"full"``) the child tracer's serialized telemetry
    back to the parent.  The child tracer is installed as the process
    *ambient* tracer for the duration of the call, so every simulator the
    task function builds internally adopts it at construction.

    A finished simulation is cyclic garbage: its event queue holds bound
    methods of links and sources, which hold the simulator.  Left to the
    automatic collector it waits for a full collection, so a worker's
    memory would climb with the tasks it has run.  The simulator keeps no
    GC-tracked object per event (its logs are columns), so few
    collections run during a task and its simulation normally ends in the
    young generations: one generation-1 collection when the task returns
    or raises frees it.  That collection is timed with the task.  It is
    skipped while automatic collection is off, where the caller manages
    collection itself.
    """
    task, capture = item
    child = previous = None
    if capture is not None:
        from .netsim.engine import set_ambient_tracer
        from .obs import Tracer

        child = Tracer(light=(capture == "light"))
        previous = set_ambient_tracer(child)
    # Wall-clock here times the *worker process* running one simulation —
    # sweep telemetry, never a simulated quantity.
    t0 = time.perf_counter()  # simlint: disable=SIM001 -- host-side task timing, outside the simulation
    try:
        if task.seed_entropy is not None:
            value = task.fn(task.seed_entropy, **dict(task.kwargs))
        else:
            value = task.fn(**dict(task.kwargs))
        ok, payload = True, value
    except Exception:
        ok, payload = False, traceback.format_exc()
    finally:
        if gc.isenabled():
            gc.collect(1)
        wall_s = time.perf_counter() - t0  # simlint: disable=SIM001 -- host-side task timing, outside the simulation
        if capture is not None:
            from .netsim.engine import set_ambient_tracer

            set_ambient_tracer(previous)
    telemetry = child.dump_state() if child is not None else None
    return ok, payload, wall_s, telemetry


def run_sweep(
    tasks: Iterable[SweepTask],
    jobs: int = 1,
    cache: bool = True,
    cache_dir: Optional[str] = None,
    tracer=None,
) -> list[SweepOutcome]:
    """Execute ``tasks``, fanning out across ``jobs`` worker processes.

    Returns one :class:`SweepOutcome` per task **in submission order**, so
    downstream collation (row building, averaging) is independent of worker
    scheduling: ``jobs=N`` reproduces ``jobs=1`` bit-for-bit.

    ``jobs=1`` runs everything in the calling process — the reference
    executor (no pickling round-trip) that tests compare the pool against.
    A worker exception is captured into the task's outcome (``.error``)
    without disturbing sibling tasks; use :func:`sweep_values` to turn any
    failure into a :class:`SweepError` naming the offending seed/config.

    ``tracer`` (or the process default from :func:`set_default_tracer`)
    receives sweep telemetry at two levels.  The parent level is cache
    hit/miss counters, per-task wall-time histograms, and one lifecycle
    event per task.  Below that, every executed task runs under a *child*
    tracer (light when the parent is light) installed as the worker's
    ambient tracer; its events, metrics, and fleet decision records come
    back in the result envelope — and in the cache entry, so hits replay
    them bit-identically — and are merged in submission order onto
    task-namespaced tracks (``task<i>/...``).  The merged event digest is
    therefore identical across ``jobs`` values and cache hit/miss mixes.
    Sweep event timestamps are submission indices (there is no simulated
    clock here); host-varying quantities live only in ``wall``/``host``-
    prefixed args and metrics, which trace digests ignore.
    """
    tasks = list(tasks)
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if tracer is None:
        tracer = _default_tracer
    capture: Optional[str] = None
    if tracer is not None:
        capture = "light" if getattr(tracer, "light", False) else "full"
    outcomes: list[Optional[SweepOutcome]] = [None] * len(tasks)

    pending: list[int] = []
    if cache:
        for i, task in enumerate(tasks):
            hit, value, entry_capture, telemetry = _cache_load(
                cache_path(task, cache_dir)
            )
            # A traced sweep only accepts entries carrying telemetry of its
            # own capture mode: replaying them reproduces a cold traced run
            # bit-identically, and anything else re-runs (and re-stores).
            if hit and (capture is None or entry_capture == capture):
                outcomes[i] = SweepOutcome(
                    task=task,
                    value=value,
                    cached=True,
                    telemetry=telemetry if capture is not None else None,
                )
            else:
                pending.append(i)
    else:
        pending = list(range(len(tasks)))

    if pending:
        items = [(tasks[i], capture) for i in pending]
        if jobs == 1 or len(pending) == 1:
            results = [_invoke(item) for item in items]
        else:
            workers = min(jobs, len(pending))
            with ProcessPoolExecutor(max_workers=workers) as pool:
                # Executor.map preserves input order, which is all the
                # determinism the collation step needs.
                results = list(pool.map(_invoke, items))
        for i, (ok, payload, wall_s, telemetry) in zip(pending, results):
            task = tasks[i]
            if ok:
                outcomes[i] = SweepOutcome(
                    task=task, value=payload, wall_s=wall_s, telemetry=telemetry
                )
                if cache:
                    _cache_store(
                        cache_path(task, cache_dir),
                        _CacheEnvelope(
                            value=payload, capture=capture, telemetry=telemetry
                        ),
                    )
            else:
                outcomes[i] = SweepOutcome(
                    task=task, error=payload, wall_s=wall_s, telemetry=telemetry
                )

    if tracer is not None:
        # Fold child telemetry in submission order — before the parent's
        # own lifecycle events — so the merged stream (and its digest) is
        # identical across jobs values and cache hit/miss mixes.
        for i, outcome in enumerate(outcomes):
            tracer.merge_child(outcome.telemetry, i)
        # Tasks executed serially ran *in this process*, advancing the
        # process-wide kernel counters the child tracers already reported;
        # re-baseline so the parent's own delta doesn't double-count them.
        from .netsim import kernels as _kernels

        tracer._kernel_base = _kernels.counts()
        _record_sweep_telemetry(tracer, outcomes, jobs=jobs, cache=cache)
    return outcomes  # type: ignore[return-value]


def _record_sweep_telemetry(
    tracer, outcomes: list, jobs: int, cache: bool
) -> None:
    """Fold one completed sweep into the tracer (events + metrics)."""
    metrics = tracer.metrics
    for index, outcome in enumerate(outcomes):
        task = outcome.task
        labels = {"experiment": task.experiment}
        if outcome.cached:
            metrics.counter(
                "repro_sweep_cache_hits_total",
                labels=labels,
                help="sweep tasks answered from the on-disk result cache",
            ).inc()
        else:
            metrics.counter(
                "repro_sweep_cache_misses_total",
                labels=labels,
                help="sweep tasks that ran a fresh simulation",
            ).inc()
        if outcome.error is not None:
            metrics.counter(
                "repro_sweep_task_failures_total",
                labels=labels,
                help="sweep tasks whose worker raised",
            ).inc()
        if outcome.wall_s is not None:
            metrics.histogram(
                "repro_sweep_task_wall_seconds",
                labels=labels,
                help="host wall-clock time per executed sweep task",
            ).observe(outcome.wall_s)
        # Event timestamps on the sweep track are submission indices —
        # the executor's only deterministic "clock".  Executor facts that
        # vary across runs of the same sweep (cache hit vs fresh, worker
        # count) are ``host``-prefixed: the event digest drops them, so
        # merged traces diff clean across jobs values and cache states.
        args = {
            "experiment": task.experiment,
            "index": index,
            "host_cached": outcome.cached,
            "ok": outcome.ok,
            "host_jobs": jobs,
            "host_cache": cache,
        }
        if task.seed_entropy is not None:
            args["seed_entropy"] = task.seed_entropy
        if outcome.wall_s is not None:
            args["wall_s"] = outcome.wall_s
        tracer.instant(float(index), "sweep", "task", track="sweep", args=args)


def sweep_values(outcomes: list[SweepOutcome]) -> list[Any]:
    """Values of a completed sweep, or :class:`SweepError` listing failures."""
    failures = [(i, o) for i, o in enumerate(outcomes) if not o.ok]
    if failures:
        raise SweepError(failures)
    return [o.value for o in outcomes]
