"""Increasing-trend detection for one-way delays (paper Section IV).

Pathload does not expect the strict per-packet ordering of Proposition 1 to
hold under real (non-fluid) cross traffic.  Instead it looks for an *overall*
increasing OWD trend across a stream:

1. The ``K`` relative OWDs are partitioned into ``Gamma = floor(sqrt(K))``
   groups of consecutive measurements, and the **median** of each group is
   taken — robust to outliers and timestamping errors.
2. Two complementary statistics are computed on the medians
   ``D_1 .. D_Gamma``:

   * **PCT** (pairwise comparison test), Eq. (8)::

         S_PCT = (1 / (Gamma-1)) * sum_{k=2}^{Gamma} I(D_k > D_{k-1})

     the fraction of consecutive increasing pairs — 0.5 in expectation for
     independent OWDs, → 1 under a strong trend.

   * **PDT** (pairwise difference test), Eq. (9)::

         S_PDT = (D_Gamma - D_1) / sum_{k=2}^{Gamma} |D_k - D_{k-1}|

     the start-to-end variation relative to total absolute variation — 0 in
     expectation for independent OWDs, → 1 under a strong trend, and bounded
     in [-1, 1].

3. The stream is **type I** (increasing) if *either* metric exceeds its
   threshold (defaults: PCT 0.55, PDT 0.4 — the released tool's values), and
   **type N** otherwise.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

__all__ = [
    "StreamType",
    "StreamClassification",
    "median_groups",
    "pct_metric",
    "pdt_metric",
    "classify_owds",
    "classify_owds_two_sided",
]


class StreamType(enum.Enum):
    """Pathload's per-stream verdict."""

    INCREASING = "I"  # rate above avail-bw during the stream
    NONINCREASING = "N"  # rate below avail-bw during the stream
    AMBIGUOUS = "A"  # metrics inconclusive or contradictory (tool rule)
    UNUSABLE = "U"  # discarded: losses or send-rate deviations


@dataclass(frozen=True)
class StreamClassification:
    """Verdict plus the raw trend statistics behind it."""

    stream_type: StreamType
    pct: float
    pdt: float
    n_groups: int

    @property
    def is_increasing(self) -> bool:
        """True when the stream is type I."""
        return self.stream_type is StreamType.INCREASING


def median_groups(owds: Sequence[float], n_groups: Optional[int] = None) -> np.ndarray:
    """Group-median preprocessing of a stream's relative OWDs.

    Splits ``owds`` into ``n_groups`` (default ``floor(sqrt(K))``) groups of
    consecutive measurements and returns the per-group medians.  Trailing
    measurements that do not fill a complete group are folded into the last
    group, so no data is discarded.

    The equal-size groups are sorted as rows of one array, and their
    medians are read off the middle columns exactly as ``np.median``
    computes them: ``+ 0.0`` turns a sorted ``-0.0`` into the ``+0.0``
    that ``np.median`` returns, and a row holding NaN has median NaN.
    Only a last group enlarged by trailing measurements goes through
    ``np.median``.
    """
    owds = np.asarray(owds, dtype=np.float64)
    k = len(owds)
    if k < 2:
        raise ValueError(f"need at least 2 OWDs, got {k}")
    if n_groups is None:
        n_groups = max(2, int(math.isqrt(k)))
    if n_groups < 2:
        raise ValueError(f"need at least 2 groups, got {n_groups}")
    if n_groups > k:
        n_groups = k
    group_size = k // n_groups
    n_rows = n_groups if n_groups * group_size == k else n_groups - 1
    rows = np.sort(owds[: n_rows * group_size].reshape(n_rows, group_size), axis=1)
    m = group_size // 2
    if group_size % 2:
        medians = rows[:, m] + 0.0
    else:
        medians = ((rows[:, m - 1] + 0.0) + rows[:, m]) / 2.0
    nan_rows = np.isnan(rows[:, -1])  # sorting puts NaN last
    if nan_rows.any():
        medians[nan_rows] = rows[nan_rows, -1]
    if n_rows < n_groups:
        medians = np.append(medians, np.median(owds[n_rows * group_size :]))
    return medians


def pct_metric(medians: Sequence[float]) -> float:
    """Pairwise comparison test statistic (Eq. 8) over group medians."""
    medians = np.asarray(medians, dtype=np.float64)
    if len(medians) < 2:
        raise ValueError(f"need at least 2 group medians, got {len(medians)}")
    increases = medians[1:] - medians[:-1] > 0
    return float(np.count_nonzero(increases)) / (len(medians) - 1)


def pdt_metric(medians: Sequence[float]) -> float:
    """Pairwise difference test statistic (Eq. 9) over group medians.

    Returns 0 when the OWDs show no variation at all (a stream through an
    idle fluid-like path), since there is then no trend to speak of.
    """
    medians = np.asarray(medians, dtype=np.float64)
    if len(medians) < 2:
        raise ValueError(f"need at least 2 group medians, got {len(medians)}")
    total_variation = float(np.abs(medians[1:] - medians[:-1]).sum())
    if total_variation == 0.0:
        return 0.0
    return float(medians[-1] - medians[0]) / total_variation


def classify_owds(
    owds: Sequence[float],
    pct_threshold: float = 0.55,
    pdt_threshold: float = 0.4,
    use_pct: bool = True,
    use_pdt: bool = True,
    n_groups: Optional[int] = None,
) -> StreamClassification:
    """Classify a stream's OWD sequence as type I or type N.

    The stream is type I if any *enabled* metric exceeds its threshold
    (the tool's "either metric shows an increasing trend" rule).  Disabling
    one metric reproduces the paper's single-metric sensitivity studies
    (Fig. 9 uses PDT only).
    """
    if not (use_pct or use_pdt):
        raise ValueError("at least one of PCT/PDT must be enabled")
    medians = median_groups(owds, n_groups=n_groups)
    pct = pct_metric(medians)
    pdt = pdt_metric(medians)
    increasing = (use_pct and pct > pct_threshold) or (use_pdt and pdt > pdt_threshold)
    return StreamClassification(
        stream_type=StreamType.INCREASING if increasing else StreamType.NONINCREASING,
        pct=pct,
        pdt=pdt,
        n_groups=len(medians),
    )


def _three_way(value: float, incr_threshold: float, nonincr_threshold: float) -> StreamType:
    """One metric's three-way verdict."""
    if value > incr_threshold:
        return StreamType.INCREASING
    if value < nonincr_threshold:
        return StreamType.NONINCREASING
    return StreamType.AMBIGUOUS


def classify_owds_two_sided(
    owds: Sequence[float],
    pct_incr: float = 0.66,
    pct_nonincr: float = 0.54,
    pdt_incr: float = 0.55,
    pdt_nonincr: float = 0.45,
    use_pct: bool = True,
    use_pdt: bool = True,
    n_groups: Optional[int] = None,
) -> StreamClassification:
    """Classify a stream with the *released tool's* two-sided rule.

    The ToN paper describes a simplified one-sided rule ("type I if either
    metric exceeds its threshold"); the actual pathload implementation is
    stricter, and the difference matters: under the one-sided rule, a stream
    with *no* trend at all still lands type I with probability ≈ 0.25
    (PCT of independent OWDs is Binomial(Gamma-1, 0.5)/(Gamma-1), which
    exceeds 0.55 that often).  That noise floor prevents fleets below the
    avail-bw from ever reaching the ``f`` agreement needed for an ``R < A``
    verdict, collapsing the search's lower bound.

    The tool rule gives each metric three outcomes

    * PCT: increasing if > ``pct_incr`` (0.66), non-increasing if
      < ``pct_nonincr`` (0.54), else ambiguous;
    * PDT: increasing if > ``pdt_incr`` (0.55), non-increasing if
      < ``pdt_nonincr`` (0.45), else ambiguous;

    and combines them: agreement (or one metric ambiguous) yields the
    non-ambiguous verdict, contradiction yields
    :attr:`StreamType.AMBIGUOUS`.  Ambiguous streams count toward neither
    fleet fraction, feeding the grey region instead — which is precisely the
    role Section IV assigns to it.
    """
    if not (use_pct or use_pdt):
        raise ValueError("at least one of PCT/PDT must be enabled")
    if pct_nonincr > pct_incr or pdt_nonincr > pdt_incr:
        raise ValueError("non-increasing thresholds must not exceed increasing ones")
    medians = median_groups(owds, n_groups=n_groups)
    pct = pct_metric(medians)
    pdt = pdt_metric(medians)
    verdicts = []
    if use_pct:
        verdicts.append(_three_way(pct, pct_incr, pct_nonincr))
    if use_pdt:
        verdicts.append(_three_way(pdt, pdt_incr, pdt_nonincr))
    informative = [v for v in verdicts if v is not StreamType.AMBIGUOUS]
    if not informative:
        combined = StreamType.AMBIGUOUS
    elif all(v is informative[0] for v in informative):
        combined = informative[0]
    else:  # PCT and PDT contradict each other
        combined = StreamType.AMBIGUOUS
    return StreamClassification(
        stream_type=combined, pct=pct, pdt=pdt, n_groups=len(medians)
    )
