"""Store-and-forward link model.

Each :class:`Link` is a FIFO transmission queue with:

* a fixed capacity ``C`` in bits per second,
* a propagation delay,
* an optional finite drop-tail buffer (in bytes).

The paper's path model (Section III-A) is exactly this: a sequence of
store-and-forward FIFO links, each with capacity ``C_i``, adequately buffered
in the verification simulations, finitely buffered in the TCP experiments of
Section VII.

Implementation
--------------
A *foreground* packet (probe, TCP, ping, per-packet cross traffic) costs
**one scheduled event**: the delivery callback at ``transmission_complete +
propagation_delay``.  Queueing is tracked analytically with a "transmitter
free at" clock (``_free_at``) plus a lazy deque of in-flight transmissions
used for byte-accurate backlog accounting (needed for drop-tail decisions
and queue-size monitoring).

Bulk-eligible cross traffic costs **no events at all**: its sources
register with the link's
:class:`~repro.netsim.bulkarrivals.CrossAggregator`, which generates and
merges their arrivals when a reader pulls them, and :meth:`Link.sync`
folds every arrival with timestamp ≤ now into ``_free_at``, the backlog
ledger, and :class:`LinkStats` — in arrival order, through
:func:`~repro.netsim.hopfold.fold_link`, the one entry into a live
link's cross arrivals — before any foreground ``send()``, any
``backlog_bytes()``/``queueing_delay()`` read, and any ``stats`` access.
Foreground packets therefore observe exactly the queue state the
per-packet path would have produced.  :meth:`Link.send` keeps its own
copy of the recursion: it is the per-packet reference the fold is
tested against.

Planned foreground traffic — TCP flows and probe streams — enters that
state through the flow-transit walk
(:class:`~repro.netsim.flowtransit.FlowTransitDomain`), which never runs
ahead of a real reader: it admits straight into the live state
(:func:`~repro.netsim.hopfold.admit`, or one
:func:`~repro.netsim.hopfold.fold_link` per hop for a batched stream) and
leaves nothing pending, so :meth:`sync` only ever folds cross traffic.

Installing a ``qdisc``, a ``drop_hook``, or a new ``deliver`` callback
on a link that carries bulk traffic automatically reverts its sources
to the per-packet path, and dissolves the walk over it, which hands
planned streams and flows back to the per-packet path too (the future
sample path is unchanged; see ``docs/performance.md``).
"""

from __future__ import annotations

import math
from collections import deque
from typing import Callable, Optional

from .engine import Simulator
from .hopfold import fold_link
from .packet import Packet

__all__ = ["Link", "LinkStats"]


class LinkStats:
    """Cumulative per-link counters, read by monitors.

    ``bytes_forwarded`` counts bytes *accepted for transmission* (the
    quantity an SNMP interface counter — and therefore MRTG — reports).
    """

    __slots__ = ("bytes_forwarded", "packets_forwarded", "bytes_dropped", "packets_dropped")

    def __init__(self) -> None:
        self.bytes_forwarded = 0
        self.packets_forwarded = 0
        self.bytes_dropped = 0
        self.packets_dropped = 0

    def snapshot(self) -> dict:
        """Plain-dict copy of the counters."""
        return {
            "bytes_forwarded": self.bytes_forwarded,
            "packets_forwarded": self.packets_forwarded,
            "bytes_dropped": self.bytes_dropped,
            "packets_dropped": self.packets_dropped,
        }


class Link:
    """One store-and-forward hop.

    Parameters
    ----------
    sim:
        The simulation kernel.
    capacity_bps:
        Transmission rate in bits per second (the paper's ``C_i``).
    prop_delay:
        Propagation delay in seconds appended after transmission completes.
        It is fixed at construction (the attribute is read-only): every
        path through the link, batched stream folds and the flow-transit
        walk's FIFO delivery queues included, relies on exits leaving in
        the order their transmissions complete.
    buffer_bytes:
        Drop-tail buffer size in bytes, or ``None`` for an infinite buffer
        (the paper's "adequately buffered to avoid losses" setting).
    name:
        Human-readable label used in monitors and error messages.
    deliver:
        Callback invoked as ``deliver(packet)`` when a packet exits the link
        (i.e., after transmission + propagation).  Wired by the owning
        network; may also be set after construction.
    qdisc:
        Optional active queue management policy (e.g.
        :class:`~repro.netsim.qdisc.REDQueue`) consulted *before* the
        drop-tail check; any object with a
        ``should_drop(backlog_bytes, pkt_size, now, capacity_bps)`` method.
    """

    __slots__ = (
        "sim",
        "capacity_bps",
        "_prop_delay",
        "buffer_bytes",
        "name",
        "_deliver",
        "_stats",
        "_drop_hook",
        "_qdisc",
        "_agg",
        "_domain",
        "_free_at",
        "_in_flight",
        "_backlog_bytes",
        "_tracer",
    )

    def __init__(
        self,
        sim: Simulator,
        capacity_bps: float,
        prop_delay: float = 0.0,
        buffer_bytes: Optional[int] = None,
        name: str = "link",
        deliver: Optional[Callable[[Packet], None]] = None,
        qdisc=None,
    ):
        # Chained comparisons are False for NaN, so each check also rejects
        # NaN; a NaN or infinite rate would poison every completion time.
        if not 0 < capacity_bps < math.inf:
            raise ValueError(
                f"capacity_bps must be positive and finite, got {capacity_bps}"
            )
        if not 0 <= prop_delay < math.inf:
            raise ValueError(
                f"prop_delay must be finite and >= 0, got {prop_delay}"
            )
        if buffer_bytes is not None and not 0 < buffer_bytes < math.inf:
            raise ValueError(
                "buffer_bytes must be positive and finite (None for an "
                f"infinite buffer), got {buffer_bytes}"
            )
        self.sim = sim
        self.capacity_bps = float(capacity_bps)
        self._prop_delay = float(prop_delay)
        self.buffer_bytes = buffer_bytes
        self.name = name
        self._deliver = deliver
        self._stats = LinkStats()
        self._drop_hook: Optional[Callable[[Packet], None]] = None
        self._qdisc = qdisc
        self._agg = None  # CrossAggregator once bulk sources attach
        self._domain = None  # FlowTransitDomain while its walk crosses this hop
        self._free_at = 0.0  # when the transmitter becomes idle
        self._in_flight: deque = deque()  # (tx_done_time, size_bytes)
        self._backlog_bytes = 0
        # Cached so the nil-tracer cost in send() is one slot None-check;
        # Tracer.register_link retrofits links built before attach and
        # leaves the slot None for light tracers (per-packet callbacks off,
        # elision stays eligible — see docs/observability.md).
        self._tracer = None
        tracer = sim.tracer
        if tracer is not None:
            tracer.register_link(self)

    @property
    def prop_delay(self) -> float:
        """Propagation delay in seconds, fixed at construction."""
        return self._prop_delay

    # ------------------------------------------------------------------
    # Wired callbacks and policies (rebinding reverts bulk traffic)
    # ------------------------------------------------------------------
    @property
    def deliver(self) -> Optional[Callable[[Packet], None]]:
        """Delivery callback; installing one decommissions the bulk path
        (elided cross packets never reach ``deliver``)."""
        return self._deliver

    @deliver.setter
    def deliver(self, fn: Optional[Callable[[Packet], None]]) -> None:
        if self._domain is not None:
            self._domain.dissolve("link-decommission")
        if self._agg is not None:
            self._decommission()
        self._deliver = fn

    @property
    def drop_hook(self) -> Optional[Callable[[Packet], None]]:
        """Optional hook called with each dropped packet (used by taps and
        loss-sensitive experiments); installing one decommissions the bulk
        path so every subsequent drop materializes a packet."""
        return self._drop_hook

    @drop_hook.setter
    def drop_hook(self, fn: Optional[Callable[[Packet], None]]) -> None:
        if self._domain is not None:
            self._domain.dissolve("link-decommission")
        if self._agg is not None:
            self._decommission()
        self._drop_hook = fn

    @property
    def qdisc(self):
        """Active queue management policy; installing one decommissions the
        bulk path (AQM decisions must see every packet)."""
        return self._qdisc

    @qdisc.setter
    def qdisc(self, policy) -> None:
        if self._domain is not None:
            self._domain.dissolve("link-decommission")
        if self._agg is not None:
            self._decommission()
        self._qdisc = policy

    @property
    def stats(self) -> LinkStats:
        """Cumulative counters, with pending bulk arrivals folded in first."""
        if self._agg is not None:
            self.sync()
        return self._stats

    # ------------------------------------------------------------------
    # Bulk cross-traffic admission (the event-elided data path)
    # ------------------------------------------------------------------
    def sync(self) -> None:
        """Fold pending bulk cross-traffic arrivals into the queue state.

        Pulls the arrivals up to the current simulated time from the
        aggregator, generating and merging the ones not yet merged, then
        replays in arrival order every one with timestamp ≤ now through
        exactly the accounting ``send()`` performs — transmitter clock,
        in-flight deque, backlog, drop-tail decision, stats — without
        creating packets or scheduler events
        (:func:`~repro.netsim.hopfold.fold_link`).  Idempotent and cheap
        when nothing is pending; called automatically at every foreground
        sync point.  The flow-transit walk leaves nothing to fold here:
        its admissions are already in the live state, and any cross
        arrivals after the last one fold like any others.
        """
        agg = self._agg
        if agg is not None:
            fold_link(self, self.sim.now)
            agg.compact()

    def _decommission(self) -> None:
        """Flush due bulk arrivals, then revert every source to per-packet."""
        agg = self._agg
        if agg is None:
            return
        self.sync()
        self._agg = None
        agg.release()

    # ------------------------------------------------------------------
    # Queue accounting
    # ------------------------------------------------------------------
    def _purge(self, now: float) -> None:
        """Drop bookkeeping entries whose transmission has completed."""
        in_flight = self._in_flight
        while in_flight and in_flight[0][0] <= now:
            self._backlog_bytes -= in_flight.popleft()[1]

    def backlog_bytes(self) -> int:
        """Bytes queued or in transmission at the current simulated time.

        Only the present can be read: purging the in-flight ledger up to
        a later instant would drop packets still in transmission from the
        backlog that the next drop-tail decision tests.
        """
        if self._agg is not None:
            self.sync()
        self._purge(self.sim.now)
        return self._backlog_bytes

    def queueing_delay(self) -> float:
        """Time a zero-size arrival now would wait before service."""
        if self._agg is not None:
            self.sync()
        return max(0.0, self._free_at - self.sim.now)

    def transmission_time(self, size_bytes: int) -> float:
        """Serialization delay of a packet of ``size_bytes`` on this link."""
        return size_bytes * 8.0 / self.capacity_bps

    # ------------------------------------------------------------------
    # Data path
    # ------------------------------------------------------------------
    def send(self, pkt: Packet) -> bool:
        """Accept ``pkt`` for transmission at the current simulated time.

        Returns ``True`` if the packet was enqueued, ``False`` if it was
        dropped by the drop-tail buffer.  On acceptance, the delivery
        callback fires at ``max(now, transmitter_free) + tx_time +
        prop_delay``.  Pending bulk cross-traffic arrivals (timestamp ≤
        now) are folded in first, so this packet queues behind them —
        the FIFO order the per-packet path produces.
        """
        sim = self.sim
        now = sim.now
        # A flow-transit walk needs no check here: its admissions are
        # already in the live state, so this packet queues behind them.
        if self._agg is not None:
            self.sync()
        # Hot attributes bound once: this method runs once per foreground
        # packet, and slot loads dominated its profile.
        size = pkt.size
        in_flight = self._in_flight
        backlog = self._backlog_bytes
        while in_flight and in_flight[0][0] <= now:
            backlog -= in_flight.popleft()[1]
        buffer_bytes = self.buffer_bytes
        drop = buffer_bytes is not None and backlog + size > buffer_bytes
        if not drop:
            qdisc = self._qdisc
            if qdisc is not None:
                drop = qdisc.should_drop(backlog, size, now, self.capacity_bps)
        stats = self._stats
        if drop:
            self._backlog_bytes = backlog
            stats.bytes_dropped += size
            stats.packets_dropped += 1
            if self._tracer is not None:
                self._tracer.on_link_drop(self, pkt, now)
            drop_hook = self._drop_hook
            if drop_hook is not None:
                drop_hook(pkt)
            return False

        free_at = self._free_at
        start = free_at if free_at > now else now
        done = start + size * 8.0 / self.capacity_bps
        self._free_at = done
        in_flight.append((done, size))
        backlog += size
        self._backlog_bytes = backlog
        stats.bytes_forwarded += size
        stats.packets_forwarded += 1
        if self._tracer is not None:
            self._tracer.on_link_enqueue(self.name, backlog)
        sim.schedule_at(done + self._prop_delay, self._exit, pkt)
        return True

    def _exit(self, pkt: Packet) -> None:
        if self._deliver is None:
            raise RuntimeError(f"link {self.name!r} has no delivery callback wired")
        self._deliver(pkt)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def utilization_of(self, bytes_forwarded: int, interval: float) -> float:
        """Average utilization implied by ``bytes_forwarded`` over ``interval``."""
        if interval <= 0:
            raise ValueError("interval must be positive")
        return (bytes_forwarded * 8.0 / interval) / self.capacity_bps

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        cap_mbps = self.capacity_bps / 1e6
        return f"<Link {self.name} {cap_mbps:.2f}Mb/s prop={self.prop_delay * 1e3:.2f}ms>"
