"""The NumPy merge kernel and its selection counters.

One kernel is left here: :func:`merge_parts`, the stable k-way merge of
the per-source cross-traffic feeds behind
:class:`~repro.netsim.bulkarrivals.CrossAggregator`.  The feeds arrive as
NumPy arrays (float64 times, int64 sizes), and the merge is where they
become the Python lists the folds walk.  Its NumPy path is a stable
argsort over the concatenated feeds; its twin, a stable Python sort, is
the ``REPRO_NO_VECTOR`` reference (resolved through
:func:`repro.netsim.fastpath.resolve_vector`, CLI flag ``--no-vector``).
Both take and return the same types and only reorder, so they return
``==`` results.  The FIFO folds (``Link.sync``, the stream and flow
planners) are plain scalar loops in :mod:`repro.netsim.hopfold`: their
NumPy twins never paid end to end (``docs/performance.md``).

Selection is observable: ``kernel_calls`` / ``kernel_fallbacks`` are
process-wide counters, published into every tracer's registry as
``repro_kernel_calls_total{kernel}`` and
``repro_kernel_fallback_total{reason}`` (docs/observability.md).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .fastpath import resolve_vector

__all__ = [
    "KERNELS",
    "KERNEL_FALLBACK_REASONS",
    "ONE_SHOT_REASONS",
    "enabled",
    "merge_parts",
    "kernel_calls",
    "kernel_fallbacks",
    "counts",
    "publish",
]

#: Every kernel name the selection counter may carry, for declared-but-
#: zero metric export (dashboards see stable series before the first
#: increment; see docs/observability.md).
KERNELS: tuple[str, ...] = ("merge",)

#: Every decline reason the fallback counter may carry, same purpose.
KERNEL_FALLBACK_REASONS: tuple[str, ...] = ("disabled",)

#: Reasons noted at most once per process (availability facts, not
#: per-call declines).  Cross-process merges fold these by max — summing
#: would make the total depend on how tasks were packed onto workers.
ONE_SHOT_REASONS: frozenset = frozenset({"disabled"})

#: Successful kernel selections, by kernel name.
kernel_calls: dict[str, int] = {}

#: Degradation events, by reason: "disabled" once per process when
#: ``REPRO_NO_VECTOR`` routes the merge to its Python twin.
kernel_fallbacks: dict[str, int] = {}

_noted_disabled = False


def _count(kernel: str) -> None:
    kernel_calls[kernel] = kernel_calls.get(kernel, 0) + 1


def _note_fallback(reason: str) -> None:
    kernel_fallbacks[reason] = kernel_fallbacks.get(reason, 0) + 1


def counts() -> tuple[dict[str, int], dict[str, int]]:
    """Snapshot of ``(kernel_calls, kernel_fallbacks)`` as plain dicts.

    Used by sweep workers to take a *baseline* before running a task, so
    the task's published counts are deltas rather than whatever the
    (possibly reused, possibly forked) worker process accumulated before.
    """
    return dict(kernel_calls), dict(kernel_fallbacks)


def publish(registry, base=None, merged=None) -> None:
    """Fold the process-wide selection counters into a metrics registry.

    Values are *set*, not accumulated, so repeated collection is
    idempotent (the same convention ``Tracer.collect_metrics`` uses for
    the cumulative link counters).  With ``base`` (a :func:`counts`
    snapshot) the published values are deltas since that snapshot —
    pool workers publish per-task deltas so merged sweep telemetry is
    independent of how tasks were packed onto processes.  ``merged`` (a
    second dict pair) adds counts folded in from child tracers (one-shot
    reasons fold by max, see :data:`ONE_SHOT_REASONS`).  Every known
    kernel name and decline reason is declared even at zero so the
    exposition carries stable series.
    """
    base_calls, base_fallbacks = base if base is not None else ({}, {})
    extra_calls, extra_fallbacks = merged if merged is not None else ({}, {})
    names = set(kernel_calls) | set(extra_calls) | set(KERNELS)
    for kernel in sorted(names):
        n = max(0, kernel_calls.get(kernel, 0) - base_calls.get(kernel, 0))
        n += extra_calls.get(kernel, 0)
        registry.gauge(
            "repro_kernel_calls_total",
            labels={"kernel": kernel},
            help="NumPy kernel selections, by kernel",
        ).set(n)
    reasons = set(kernel_fallbacks) | set(extra_fallbacks) | set(
        KERNEL_FALLBACK_REASONS
    )
    for reason in sorted(reasons):
        n = max(0, kernel_fallbacks.get(reason, 0) - base_fallbacks.get(reason, 0))
        extra = extra_fallbacks.get(reason, 0)
        if reason in ONE_SHOT_REASONS:
            n = max(n, extra)
        else:
            n += extra
        registry.gauge(
            "repro_kernel_fallback_total",
            labels={"reason": reason},
            help="Python-twin fallbacks, by reason",
        ).set(n)


def enabled() -> bool:
    """True when the NumPy merge may be used for this call.

    Resolves the ``REPRO_NO_VECTOR`` opt-out (via
    :func:`~repro.netsim.fastpath.resolve_vector`); the first opt-out in
    a process is counted under the ``disabled`` reason.
    """
    global _noted_disabled
    if resolve_vector():
        return True
    if not _noted_disabled:
        _noted_disabled = True
        _note_fallback("disabled")
    return False


def merge_parts(parts_t: Sequence[np.ndarray], parts_s: Sequence[np.ndarray]):
    """Stable k-way merge of per-feed arrival arrays.

    ``parts_t`` holds one sorted float64 array of arrival times per part,
    ``parts_s`` the matching int64 size arrays.  Returns ``(times, sizes,
    part_idx)``: the merged times and sizes as Python lists (the
    admission queue the folds walk element by element), ordered by time
    with exact-time ties broken by part order (then within-part order) —
    the order a ``(time, part, index)``-keyed heap would produce — and
    ``part_idx``, an int array naming each entry's part, or ``None`` for
    a single part (the order is the part itself).  The NumPy path is a
    stable argsort over the concatenation; the ``REPRO_NO_VECTOR`` twin
    is a stable Python sort taking and returning the same types.  Pure
    reordering, no arithmetic, so both paths are bit-exact.
    """
    if enabled():
        _count("merge")
        if len(parts_t) == 1:
            return parts_t[0].tolist(), parts_s[0].tolist(), None
        cat_t = np.concatenate(parts_t)
        order = np.argsort(cat_t, kind="stable")
        part_idx = np.repeat(
            np.arange(len(parts_t)), [len(p) for p in parts_t]
        )
        return (
            cat_t[order].tolist(),
            np.concatenate(parts_s)[order].tolist(),
            part_idx[order],
        )
    if len(parts_t) == 1:
        return parts_t[0].tolist(), parts_s[0].tolist(), None
    entries = []
    for k, (ts, ss) in enumerate(zip(parts_t, parts_s)):
        entries.extend(zip(ts.tolist(), [k] * len(ts), ss.tolist()))
    entries.sort(key=lambda e: e[0])  # stable: ties keep (part, index) order
    return (
        [e[0] for e in entries],
        [e[2] for e in entries],
        np.array([e[1] for e in entries], dtype=np.intp),
    )


def _reset_for_tests() -> None:
    """Clear the opt-out note and counters (test hook; not part of the API)."""
    global _noted_disabled
    _noted_disabled = False
    kernel_calls.clear()
    kernel_fallbacks.clear()
