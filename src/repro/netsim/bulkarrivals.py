"""Batched cross-traffic arrivals: the event-elided data path.

Open-loop background traffic dominates the event budget of every
experiment: at the paper's operating points (ten Pareto sources per hop,
441 B mean packets) cross packets outnumber probe packets by well over an
order of magnitude, yet each one used to pay two heap operations and two
Python callback dispatches just to nudge a FIFO backlog that only
probe/TCP packets and monitors ever read.

This module removes those per-packet events.  Each bulk-eligible
:class:`~repro.netsim.crosstraffic.CrossTrafficSource` converts its gap
draws, one RNG chunk (512 arrivals) at a time, into absolute
arrival-time/size arrays (a cumulative sum over the very same draws, RNG
order untouched) and appends them to its feed at its link's
:class:`CrossAggregator`.  At every merge the aggregator tops up each feed
holding less than a chunk, k-way merges the link's sources in time order
into one flat admission queue, and keeps exactly **one scheduled event
per refill horizon** — the instant the first source's buffer runs out —
instead of one per packet.  Generation thus stays about one chunk per
source ahead of the fold.  The
owning :class:`~repro.netsim.link.Link` folds merged arrivals into its
transmitter/backlog ledger lazily, at its sync points (foreground
``send()``, backlog/queueing-delay reads, stats access), so foreground
packets observe exactly the queue state the per-packet path would have
produced.

Arrivals stay in NumPy arrays from the RNG draw through the merge: the
feeds hold float64 times and int64 sizes, and
:func:`~repro.netsim.kernels.merge_parts` turns the merged prefix into
the Python lists ``times`` and ``sizes`` that the folds read element by
element.  Beside them, ``owners`` is an int array of each entry's feed
``order``; only the rare paths read it (a source's counters, a mid-run
registration, a decommission), each with one NumPy comparison per feed.

Determinism contract
--------------------
The merged arrival sequence is byte-for-byte the sequence the per-packet
path generates: arrival times are the identical floating-point sums
(``t += gap`` mirrors ``Simulator.schedule(gap, ...)``), sizes come from
the same RNG draws in the same chunk order, and same-timestamp arrivals
merge in source-registration order (the per-packet path orders exact ties
by event insertion; with continuous interarrival draws such ties have
probability zero).

Modulated sources (``modulation=(interval, sigma)``) feed the aggregator
in *segment-planned* batches: generation runs one rate-factor segment at
a time, dividing each gap by the factor in force at the previous
arrival's instant and consuming each boundary's lognormal factor draw at
exactly the RNG position the per-packet ``_modulate`` timer would, so
every floating-point expression matches.  An arrival landing exactly on
a segment boundary is a measure-zero tie of the same kind: the bulk
generator applies the boundary first (the next gap uses the
post-boundary factor) while the per-packet ordering depends on event
insertion — continuous draws never produce the collision.  See the
``crosstraffic`` module docstring and ``docs/performance.md`` for the
full contract and the fallback conditions.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Optional

import numpy as np

from . import kernels

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from .crosstraffic import CrossTrafficSource
    from .engine import Simulator
    from .link import Link

__all__ = ["CrossAggregator"]

#: Consumed-prefix length beyond which the merged arrays are compacted.
#: Small enough that a finished simulation, which waits for a full garbage
#: collection (its event queue and links form cycles), holds little of its
#: consumed prefix; compaction drops folded entries only.
_COMPACT_THRESHOLD = 2048

# Empty starting arrays; never written in place, so they can be shared.
_NO_TIMES = np.empty(0, dtype=np.float64)
_NO_SIZES = np.empty(0, dtype=np.int64)
_NO_OWNERS = np.empty(0, dtype=np.intp)


class _Feed:
    """One source's buffered future arrivals (absolute times, sizes).

    Both are NumPy arrays (float64, int64), replaced, never written in
    place: a merge cuts them at the safe horizon, a top-up concatenates.
    """

    __slots__ = ("source", "times", "sizes", "done", "order")

    def __init__(self, source: "CrossTrafficSource", order: int):
        self.source = source
        self.times: np.ndarray = _NO_TIMES
        self.sizes: np.ndarray = _NO_SIZES
        self.done = False  # True once the source's stop time truncated a batch
        self.order = order  # registration order, breaks exact-time ties


class CrossAggregator:
    """Per-link k-way merger of bulk cross-traffic sources.

    The aggregator owns the link's flat admission queue (``times`` /
    ``sizes`` / ``owners``, consumed by :meth:`Link.sync` via ``idx``) and
    the single refill-horizon event that extends it.  ``times`` and
    ``sizes`` are Python lists, which the folds read element by element;
    ``owners`` is an int array holding each entry's feed ``order``, read
    only by the rare paths that route entries back to their sources.
    Entries are merged only up to the *safe horizon* — the earliest
    last-buffered time over all still-active sources — so a source
    refilling later can never insert an arrival behind one already
    merged.
    """

    __slots__ = (
        "sim",
        "link",
        "feeds",
        "times",
        "sizes",
        "owners",
        "idx",
        "_event",
        "_merge_pending",
        "_horizon",
    )

    def __init__(self, sim: "Simulator", link: "Link"):
        self.sim = sim
        self.link = link
        self.feeds: list[_Feed] = []
        #: merged admission queue; ``idx`` is the first not-yet-admitted entry
        self.times: list[float] = []
        self.sizes: list[int] = []
        self.owners: np.ndarray = _NO_OWNERS
        self.idx = 0
        self._event = None  # pending refill-horizon ScheduledCall
        self._merge_pending = False  # a coalescing merge event is queued
        # Merged coverage: every arrival ≤ _horizon is final (safe-horizon
        # invariant).  -inf until the first merge, +inf once all feeds end.
        self._horizon = -math.inf

    @classmethod
    def attach(cls, sim: "Simulator", link: "Link") -> "CrossAggregator":
        """Get or create the aggregator bound to ``link``."""
        agg = link._agg
        if agg is None:
            agg = cls(sim, link)
            link._agg = agg
        return agg

    # ------------------------------------------------------------------
    # Source registration
    # ------------------------------------------------------------------
    def register(self, source: "CrossTrafficSource") -> _Feed:
        """Add a bulk source and fold it into the merged queue.

        Arrivals already due are folded into the link first, so a reader
        at this instant still sees them.  The unadmitted merged entries
        left are rolled back into their feeds so that a source registered
        mid-run cannot see its early arrivals ordered behind other
        sources' already-merged later ones.  The actual merge is deferred
        to a zero-delay event so the paper's "ten sources per link"
        attach pattern merges once, not ten times (every source's first
        arrival lies strictly after registration, so no arrival can come
        due before that event runs).
        """
        self.link.sync()
        self._unmerge()
        feed = _Feed(source, order=len(self.feeds))
        self.feeds.append(feed)
        if not self._merge_pending:
            self._merge_pending = True
            self.sim.schedule(0.0, self._deferred_merge)
        return feed

    def _deferred_merge(self) -> None:
        self._merge_pending = False
        self._merge()

    def _unmerge(self) -> None:
        """Return unadmitted merged entries to their feeds (rare path)."""
        times, sizes, idx = self.times, self.sizes, self.idx
        self._horizon = -math.inf  # a new source invalidates merged coverage
        if idx < len(times):
            owners = self.owners[idx:]
            tail_t = np.array(times[idx:], dtype=np.float64)
            tail_s = np.array(sizes[idx:], dtype=np.int64)
            for feed in self.feeds:
                mine = owners == feed.order
                if mine.any():
                    feed.times = np.concatenate((tail_t[mine], feed.times))
                    feed.sizes = np.concatenate((tail_s[mine], feed.sizes))
        del times[:], sizes[:]
        self.owners = _NO_OWNERS
        self.idx = 0

    # ------------------------------------------------------------------
    # Merge machinery
    # ------------------------------------------------------------------
    def _merge(self) -> None:
        """Merge feed entries up to the safe horizon; reschedule the event.

        The merge is a stable argsort over the feeds' due prefixes,
        concatenated in registration order: sort stability then orders
        exact-time ties by registration, the same tie-break a (time,
        order)-keyed heap would apply — and the vectorized sort is an
        order of magnitude cheaper than per-entry heap operations.
        """
        # Top up every low feed, not only empty ones: otherwise the safe
        # horizon creeps forward one source at a time.
        for feed in self.feeds:
            if not feed.done:
                feed.source._bulk_fill(feed)
        horizons = [feed.times[-1] for feed in self.feeds if not feed.done]
        safe = float(min(horizons)) if horizons else math.inf
        self._horizon = safe
        parts_t: list[np.ndarray] = []
        parts_s: list[np.ndarray] = []
        orders: list[int] = []
        for feed in self.feeds:
            cut = int(feed.times.searchsorted(safe, "right"))
            if cut:
                parts_t.append(feed.times[:cut])
                parts_s.append(feed.sizes[:cut])
                orders.append(feed.order)
                feed.times = feed.times[cut:]
                feed.sizes = feed.sizes[cut:]
        if parts_t:
            mt, ms, part_idx = kernels.merge_parts(parts_t, parts_s)
            self.times.extend(mt)
            self.sizes.extend(ms)
            if part_idx is None:
                # Single contributing source (single-source links, and
                # every horizon where only the binding feed refilled past
                # the others' heads): its due prefix spliced wholesale.
                new = np.full(len(mt), orders[0], dtype=np.intp)
            else:
                new = np.array(orders, dtype=np.intp)[part_idx]
            self.owners = np.concatenate((self.owners, new))
        self._reschedule(safe if horizons else None)

    def _reschedule(self, safe: Optional[float]) -> None:
        """Point the single refill-horizon event at ``safe`` (None: none)."""
        if self._event is not None:
            self._event.cancel()
            self._event = None
        if safe is not None:
            self._event = self.sim.schedule_at(safe, self._extend)

    def _extend(self) -> None:
        """Refill-horizon event: top up the low feeds and re-merge."""
        self._event = None
        self._merge()

    def extend_until(self, t: float) -> None:
        """Force merged coverage of every arrival with timestamp ≤ ``t``.

        Used by the flow-transit walk
        (:mod:`repro.netsim.flowtransit`), which needs the cross-arrival
        sequence up to its next admission *now* rather than at the
        refill events.  Each :meth:`_merge` drains the binding feed and
        tops it up by a chunk on the next pass, so the safe horizon
        strictly advances until it covers ``t`` (or every feed ends); a
        long horizon costs one merge per chunk span.  RNG draw order per
        source is untouched — chunks are generated in the same sequence,
        only earlier in host time.
        """
        while self._horizon < t:
            prev = self._horizon
            self._merge()
            if self._horizon <= prev:  # pragma: no cover - invariant guard
                from .engine import SimulationError

                raise SimulationError(
                    f"cross-traffic merge horizon stalled at {prev!r} while "
                    f"extending {self.link.name!r} to {t!r}"
                )

    # ------------------------------------------------------------------
    # Fold support / teardown
    # ------------------------------------------------------------------
    def compact(self) -> None:
        """Trim the consumed prefix of the merged arrays (amortized O(1))."""
        idx = self.idx
        if idx > _COMPACT_THRESHOLD:
            del self.times[:idx]
            del self.sizes[:idx]
            self.owners = self.owners[idx:]
            self.idx = 0

    def release(self) -> None:
        """Hand every source back to the per-packet path.

        Called by the link when it stops being bulk-eligible (a qdisc,
        drop hook, or delivery callback was installed mid-run).  Due
        arrivals must already have been folded by the caller; the
        remaining future arrivals — the unadmitted merged tail plus each
        feed's unmerged buffer — are returned to their sources, which
        replay them as ordinary scheduled events.  The sample path is
        unchanged: times and sizes are exactly the ones the per-packet
        path would have produced.
        """
        if self._event is not None:
            self._event.cancel()
            self._event = None
        self._unmerge()
        feeds, self.feeds = self.feeds, []
        for feed in feeds:
            feed.source._resume_per_packet(
                feed.times.tolist(), feed.sizes.tolist(), feed.done
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<CrossAggregator link={self.link.name} sources={len(self.feeds)} "
            f"pending={len(self.times) - self.idx}>"
        )
