"""Shared fast-path / NumPy-merge opt-out resolution.

The event-elided foreground path (the flow-transit walk that carries
probe streams and TCP flows) honors a three-level opt-out:

1. an explicit ``fast=`` argument on the component (``ProbeChannel``,
   ``TCPSender``, ``Pinger``, ``run_pathload``, ...) wins outright;
2. otherwise the ``REPRO_NO_FAST`` environment variable disables the
   fast path (the hook the CLIs' ``--no-fast`` flags and the sweep
   workers use, since worker processes only inherit the environment);
3. otherwise the fast path is on.

The NumPy kernels of the bulk cross-traffic merge
(:mod:`repro.netsim.kernels`) honor the same precedence under their own
switch, ``REPRO_NO_VECTOR`` (CLI flag ``--no-vector``).  It selects the
stable-sort Python twin of the merge and makes no idle marks, so every
fold walks every cross arrival instead of skipping those the marks prove
idle: the reference the idle skip is checked against.  The two axes are
independent; every fold is a scalar loop under either setting.

Bulk cross traffic honors neither switch.  A cross-traffic source goes
per packet only when built with ``bulk=False`` or when its link is
ineligible (a qdisc, a drop hook or a rebound delivery callback; see
:mod:`repro.netsim.crosstraffic`); under ``REPRO_NO_FAST=1`` it stays
bulk.

Results are bit-identical either way; the switches exist for A/B timing
and for debugging with per-packet event granularity.  This helper is the
single resolution point so the probe and flow paths, the merge kernel,
and the CLIs cannot drift apart.
"""

from __future__ import annotations

import os
from typing import Optional

__all__ = ["resolve_fast", "resolve_vector", "NO_FAST_ENV", "NO_VECTOR_ENV"]

#: Environment variable that disables every analytic fast path.
NO_FAST_ENV = "REPRO_NO_FAST"

#: Environment variable that routes the NumPy merge to its Python twin and
#: turns the idle marks off, so the folds walk every cross arrival.
NO_VECTOR_ENV = "REPRO_NO_VECTOR"


def _resolve(flag: Optional[bool], env_var: str) -> bool:
    """Shared precedence: explicit flag wins, else env opt-out, else on."""
    if flag is not None:
        return bool(flag)
    return not os.environ.get(env_var)


def resolve_fast(fast: Optional[bool] = None) -> bool:
    """Resolve an optional ``fast=`` argument against ``REPRO_NO_FAST``.

    ``True``/``False`` are taken as-is; ``None`` (the default everywhere)
    means "on unless the environment opts out".
    """
    return _resolve(fast, NO_FAST_ENV)


def resolve_vector(vector: Optional[bool] = None) -> bool:
    """Resolve an optional ``vector=`` argument against ``REPRO_NO_VECTOR``.

    Same precedence as :func:`resolve_fast`.  A ``False`` result routes
    :func:`~repro.netsim.kernels.merge_parts` to its stable-sort twin and
    makes no :func:`~repro.netsim.kernels.idle_marks`, so the folds walk
    every cross arrival.
    """
    return _resolve(vector, NO_VECTOR_ENV)
