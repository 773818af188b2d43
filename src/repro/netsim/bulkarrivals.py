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
:class:`CrossAggregator`.  Nothing is scheduled: the traffic is open loop,
so no arrival depends on the foreground, and arrivals are generated when
a reader needs them.  Every reader of a link's cross arrivals pulls them
through :meth:`CrossAggregator.extend_until`, whose merges top up each
feed holding less than a chunk and k-way merge the link's sources in
time order into one flat admission queue.  Generation thus stays about
one chunk per source ahead of the fold.  The owning
:class:`~repro.netsim.link.Link` folds merged arrivals into its
transmitter/backlog ledger lazily, at its sync points (foreground
``send()``, backlog/queueing-delay reads, stats access), so foreground
packets observe exactly the queue state the per-packet path would have
produced.

Arrivals stay in NumPy arrays from the RNG draw until a fold walks
them: the feeds hold float64 times and int64 sizes,
:func:`~repro.netsim.kernels.merge_parts` merges them into arrays, and
each merge concatenates those onto the aggregator's ``times`` and
``sizes`` arrays.  :func:`~repro.netsim.hopfold.fold` turns into Python
floats and ints only the slices it walks; the arrivals its idle skip
jumps over never become Python objects.  Beside them, ``owners`` is an
int array of each entry's feed ``order``; only the rare paths read it (a
source's counters, a mid-run registration, a decommission), each with
one NumPy comparison per feed.

Idle marks
----------
On a link with an infinite buffer, each merge also appends one byte per
arrival to ``marks`` (:func:`~repro.netsim.kernels.idle_marks`): 1 where
an upper bound on the state of the hop fed only these cross arrivals,
carried from merge to merge in ``_bound``, shows that the arrival finds
that hop idle.  The real hop also carries foreground packets, and extra
work never makes a FIFO hop free earlier, so at the first cross arrival
that finds the real hop idle both are idle and compute the same floats
from there until the next foreground packet: a marked arrival in
between finds the real hop idle too.
:func:`~repro.netsim.hopfold.fold` skips on that ground.  A merge that
cannot mark (a finite buffer, or ``REPRO_NO_VECTOR``, which selects the
Python merge) appends zeros and sets the bound to +inf, so no later
merge marks across the gap; :meth:`CrossAggregator._unmerge` starts a
new chain.

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
from typing import TYPE_CHECKING

import numpy as np

from . import kernels

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from .crosstraffic import CrossTrafficSource
    from .engine import Simulator
    from .link import Link

__all__ = ["CrossAggregator"]

#: Consumed-prefix length beyond which the merged arrays are compacted.
#: Small enough that a simulation holds little of its consumed prefix
#: while it runs, and after it: the sweep executor frees a finished
#: simulation when its task ends, but one run outside the executor is
#: cyclic garbage (its event queue and links form cycles) that waits for
#: the automatic collector.  Compaction drops folded entries only; the
#: sliced arrays keep their base until the next merge's concatenation.
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
    ``sizes`` / ``owners``, consumed from the cursor ``idx`` by
    :func:`~repro.netsim.hopfold.fold_link`), which readers extend on
    demand with :meth:`extend_until`; it schedules no event.  ``times``
    and ``sizes`` are float64 and int64 arrays, replaced, never written
    in place: a merge concatenates, compaction slices.  ``owners`` is an
    int array holding each entry's feed ``order``, read only by the rare
    paths that route entries back to their sources, and ``marks`` is a
    ``bytearray`` of each entry's idle mark (module docstring).  Entries
    are merged only up to the *safe horizon* — the earliest
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
        "marks",
        "idx",
        "_horizon",
        "_bound",
    )

    def __init__(self, sim: "Simulator", link: "Link"):
        self.sim = sim
        self.link = link
        self.feeds: list[_Feed] = []
        #: merged admission queue; ``idx`` is the first not-yet-admitted entry
        self.times: np.ndarray = _NO_TIMES
        self.sizes: np.ndarray = _NO_SIZES
        self.owners: np.ndarray = _NO_OWNERS
        self.marks = bytearray()
        self.idx = 0
        # Merged coverage: every arrival ≤ _horizon is final (safe-horizon
        # invariant).  +inf while no feed is active.
        self._horizon = math.inf
        # Upper bound on the cross-only hop's free_at after the last
        # merged arrival (kernels.idle_marks); -inf starts a chain.
        self._bound = -math.inf

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
        """Add a bulk source; its arrivals merge when a reader pulls them.

        Arrivals already due are folded into the link first, so a reader
        at this instant still sees them.  The unadmitted merged entries
        left are rolled back into their feeds so that a source registered
        mid-run cannot see its early arrivals ordered behind other
        sources' already-merged later ones.  The merge waits for the next
        reader's pull, so the paper's "ten sources per link" attach
        pattern merges once, not ten times.
        """
        self.link.sync()
        self._unmerge()
        feed = _Feed(source, order=len(self.feeds))
        self.feeds.append(feed)
        return feed

    def _unmerge(self) -> None:
        """Return unadmitted merged entries to their feeds (rare path).

        The caller has folded every arrival due, so the feeds now hold
        only later ones and merged coverage stands at ``now``.  A source
        registering next does not lower it: its first arrival lies
        strictly after its registration.  The marks go with the entries,
        and the next merge starts a new chain of them.
        """
        idx = self.idx
        self._horizon = self.sim.now
        if idx < len(self.times):
            owners = self.owners[idx:]
            tail_t = self.times[idx:]
            tail_s = self.sizes[idx:]
            for feed in self.feeds:
                mine = owners == feed.order
                if mine.any():
                    feed.times = np.concatenate((tail_t[mine], feed.times))
                    feed.sizes = np.concatenate((tail_s[mine], feed.sizes))
        self.times, self.sizes, self.owners = _NO_TIMES, _NO_SIZES, _NO_OWNERS
        del self.marks[:]
        self.idx = 0
        self._bound = -math.inf

    # ------------------------------------------------------------------
    # Merge machinery
    # ------------------------------------------------------------------
    def _merge(self) -> None:
        """Merge feed entries up to the safe horizon.

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
            link = self.link
            if link.buffer_bytes is None and kernels.enabled():
                marks, self._bound = kernels.idle_marks(
                    mt, ms, link.capacity_bps, self._bound
                )
                self.marks.extend(marks)
            else:
                self.marks.extend(bytes(len(mt)))
                self._bound = math.inf
            self.times = np.concatenate((self.times, mt))
            self.sizes = np.concatenate((self.sizes, ms))
            if part_idx is None:
                # Single contributing source (single-source links, and
                # every horizon where only the binding feed refilled past
                # the others' heads): its due prefix spliced wholesale.
                new = np.full(len(mt), orders[0], dtype=np.intp)
            else:
                new = np.array(orders, dtype=np.intp)[part_idx]
            self.owners = np.concatenate((self.owners, new))

    def extend_until(self, t: float) -> None:
        """Merge every arrival with timestamp ≤ ``t`` (the pull).

        The only place cross arrivals are generated and merged: every
        reader of the link's arrivals reaches it through
        :func:`~repro.netsim.hopfold.fold_link` before folding up to
        ``t``.  Each :meth:`_merge` drains the binding feed and tops it up
        by a chunk on the next pass, so the safe horizon strictly advances
        until it covers ``t`` (or every feed ends); a long horizon costs
        one merge per chunk span.  RNG draw order per source is untouched
        — each source draws from its own generator, in the same chunk
        sequence whenever in host time it runs.
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
            self.times = self.times[idx:]
            self.sizes = self.sizes[idx:]
            self.owners = self.owners[idx:]
            del self.marks[:idx]
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
