"""The NumPy kernels behind the bulk cross-traffic merge, and their
selection counters.

Two kernels run at each :class:`~repro.netsim.bulkarrivals.CrossAggregator`
merge, over the arrays the per-source feeds already hold (float64 times,
int64 sizes):

* :func:`merge_parts`, the stable k-way merge of the feeds.  Its NumPy
  path is a stable argsort over the concatenated feeds; its twin, a
  stable Python sort, is the ``REPRO_NO_VECTOR`` reference (resolved
  through :func:`repro.netsim.fastpath.resolve_vector`, CLI flag
  ``--no-vector``).  Both take and return the same types and only
  reorder, so they return ``==`` results.
* :func:`idle_marks`, one byte per merged arrival on an infinite-buffer
  hop: set only when a rigorous upper bound on the cross-only hop state
  just before that arrival is at or below the arrival's time, so the
  arrival provably finds that hop idle.
  :func:`repro.netsim.hopfold.fold` uses the marks to skip the cross
  arrivals of a call that cannot change any output.  It has no twin:
  under ``REPRO_NO_VECTOR`` no marks are made and the fold walks every
  arrival, which is the reference the marks are checked against.

The FIFO folds themselves (``Link.sync``, the stream and flow planners)
are plain scalar loops in :mod:`repro.netsim.hopfold`: their NumPy twins
never paid end to end (``docs/performance.md``).

Selection is observable: ``kernel_calls`` / ``kernel_fallbacks`` are
process-wide counters, published into every tracer's registry as
``repro_kernel_calls_total{kernel}`` and
``repro_kernel_fallback_total{reason}`` (docs/observability.md).
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .fastpath import resolve_vector

__all__ = [
    "KERNELS",
    "KERNEL_FALLBACK_REASONS",
    "ONE_SHOT_REASONS",
    "enabled",
    "idle_marks",
    "merge_parts",
    "kernel_calls",
    "kernel_fallbacks",
    "counts",
    "publish",
]

#: Every kernel name the selection counter may carry, for declared-but-
#: zero metric export (dashboards see stable series before the first
#: increment; see docs/observability.md).
KERNELS: tuple[str, ...] = ("merge", "idle_marks")

#: Every decline reason the fallback counter may carry, same purpose.
KERNEL_FALLBACK_REASONS: tuple[str, ...] = ("disabled",)

#: Reasons noted at most once per process (availability facts, not
#: per-call declines).  Cross-process merges fold these by max — summing
#: would make the total depend on how tasks were packed onto workers.
ONE_SHOT_REASONS: frozenset = frozenset({"disabled"})

#: Successful kernel selections, by kernel name.
kernel_calls: dict[str, int] = {}

#: Degradation events, by reason: "disabled" once per process when
#: ``REPRO_NO_VECTOR`` routes the merge to its Python twin and turns the
#: idle marks off.
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
    """True when the NumPy kernels may be used for this call.

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
    part_idx)``: the merged float64 times and int64 sizes, ordered by
    time with exact-time ties broken by part order (then within-part
    order) -- the order a ``(time, part, index)``-keyed heap would
    produce -- and ``part_idx``, an int array naming each entry's part,
    or ``None`` for a single part (the order is the part itself).  The
    NumPy path is a stable argsort over the concatenation; the
    ``REPRO_NO_VECTOR`` twin orders the same concatenation by a stable
    Python sort.  Pure reordering, no arithmetic, so both paths are
    bit-exact.
    """
    vector = enabled()
    if vector:
        _count("merge")
    if len(parts_t) == 1:
        return parts_t[0], parts_s[0], None
    cat_t = np.concatenate(parts_t)
    if vector:
        order = np.argsort(cat_t, kind="stable")
    else:
        keys = cat_t.tolist()
        order = sorted(range(len(keys)), key=keys.__getitem__)  # stable
    part_idx = np.repeat(np.arange(len(parts_t)), [len(p) for p in parts_t])
    return cat_t[order], np.concatenate(parts_s)[order], part_idx[order]


def idle_marks(
    times: np.ndarray, sizes: np.ndarray, capacity_bps: float, bound: float
) -> tuple[bytes, float]:
    """Idle marks of one merge on an infinite-buffer hop.

    ``times``/``sizes`` are the merged arrivals (float64, int64), and
    ``bound`` is an upper bound on the cross-only hop's ``free_at`` just
    before the first of them: ``-inf`` where the chain of merges starts,
    the value this function returned for the previous merge after it,
    ``+inf`` to mark nothing.  Returns ``(marks, bound)``: one byte per
    arrival, 1 where the arrival provably finds the cross-only hop idle,
    and the bound after the last arrival, to carry into the next merge.

    With ``s_i = size_i*8/C`` (the fold's own float), ``S_i`` the sum of
    ``s_0 .. s_i`` and ``A_i = t_i - S_{i-1}``, the exact cross-only
    recursion leaves the hop free at ``S_i + max(bound, A_0, ..., A_i)``
    after arrival ``i``.  So arrival ``i > 0`` finds it idle when
    ``A_i >= max(bound, A_0, ..., A_{i-1})``, and arrival 0 when
    ``bound <= t_0``.  A mark asks for that with a slack of
    ``(3n + 8) * 2**-52 * T``, ``T = t_{n-1} + S_{n-1} + |bound|`` (no
    ``|bound|`` term where a chain starts): the
    sequential float recursion exceeds the exact one by at most
    ``(i+1) * 2**-53 * T`` after ``i + 1`` arrivals, and the rounding of
    the cumulative sum, the differences and the test adds at most
    ``(2i + 4) * 2**-53 * T``; the slack covers both twice over.
    """
    _count("idle_marks")
    n = len(times)
    cum = np.cumsum(sizes * 8.0 / capacity_bps)
    lead = times.copy()
    lead[1:] -= cum[:-1]
    peak = np.maximum.accumulate(lead)
    np.maximum(peak, bound, out=peak)
    span = float(times[-1] + cum[-1]) + (abs(bound) if bound > -math.inf else 0.0)
    slack = (3 * n + 8) * 2.0**-52 * span
    marks = np.empty(n, dtype=np.bool_)
    marks[0] = bound + slack <= times[0]
    np.greater_equal(lead[1:] - slack, peak[:-1], out=marks[1:])
    return marks.tobytes(), float(peak[-1] + cum[-1]) + slack


def _reset_for_tests() -> None:
    """Clear the opt-out note and counters (test hook; not part of the API)."""
    global _noted_disabled
    _noted_disabled = False
    kernel_calls.clear()
    kernel_fallbacks.clear()
