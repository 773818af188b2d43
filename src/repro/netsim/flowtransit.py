"""Event-elided foreground traffic: the flow-transit walk.

Bulk cross traffic (:mod:`repro.netsim.bulkarrivals`) costs no event per
packet; the foreground does.  A SLoPS probe stream costs K send events
plus K x H per-hop delivery events, and every segment of a Section VII
(fig15-18) TCP transfer two link events and two endpoint callbacks.

This module carries that foreground traffic in a *domain*: a per-network
virtual event loop, *the walk*, that simulates every attached TCP flow
and every probe stream with cheap tuples instead of engine events.
Each hop admission is :func:`~repro.netsim.hopfold.admit`, the per-hop
recursion ``start = max(arrival, free_at); done = start + size*8/C``,
merged against each hop's
:class:`~repro.netsim.bulkarrivals.CrossAggregator` arrays, priced by the
link's capacity schedule if it has one, with exact drop-tail replay on
finite buffers.  The walk interleaves *feedback* traffic (data -> ack ->
cwnd growth -> more data) by taking its virtual events in ``(time,
sequence)`` order.  Deliveries -- exits from the last hop of the forward
or the reverse chain -- wait in two FIFO deques, one per chain, in
admission order: a hop's completion times never decrease and its
propagation delay is fixed, so each deque is already sorted, and the
walk merges their heads with the head of a private heap that holds
everything else (timers, stream sends, arrivals at later hops).
A probe stream alone in the domain is *batched* instead: each round folds
its arrivals hop by hop with one :func:`~repro.netsim.hopfold.fold_link`
call per hop.  Any other stream is admitted per packet, interleaved with
the flows.

Streams (:func:`plan_stream`) and flows (:func:`try_attach_flow`) enter
through one gate, :func:`_domain_for`, which refuses a path whose links
carry a qdisc, a drop hook or a rebound ``deliver`` callback.  Per-packet
traffic on the same path (ping, a ``fast=False`` flow or stream,
per-packet cross traffic) keeps nothing out: each of its sends is a real
engine event, and by the invariant below a real ``Link.send`` finds
every earlier admission already in the link's state.

Correctness rests on one invariant — the **cap-bounded walk**:

* Virtual events are processed only up to ``cap = min(next real engine
  event, the active ``run(until=...)`` bound, now + horizon)``.  No real
  callback can therefore observe — or interfere with — virtual state
  that lies in its own future; there is no speculation and no rollback.
* Every segment, ack and probe packet is admitted straight into the
  real link's state: queue, backlog and ``LinkStats``, with due cross
  arrivals folded first.  Since no real
  callback runs inside a walk and every admission lies before the next
  real event, a real reader — a foreign ``Link.send`` (ping, per-packet
  cross), a monitor's ``stats`` read, a backlog query — sees exactly the
  per-packet state at its own instant, with nothing left to replay; a
  ping simply queues behind the flow's packets.
* Flow state (cwnd, RTT estimators, receiver buffers) is mutated
  directly on the real ``TCPSender``/``TCPReceiver`` objects, by their
  own methods; because of the cap invariant, any real read at a run
  boundary sees exactly the per-packet values.

The TCP endpoints are sans-IO (:mod:`repro.transport.tcp`): they take
the time and plain ints and do all I/O through a port.  While the walk
carries a flow, both endpoints hold its :class:`_FlowPort`, which turns
each segment and ACK into a hop admission and keeps the RTO timer off
the heap until it can fire.  The walk hands deliveries straight to
``on_segment`` and ``on_ack``, so Reno, Vegas, delayed ACKs, recovery
and the RTO run the one implementation in ``tcp.py`` on both paths.

Determinism contract
--------------------
Every observable is bit-identical to the per-packet path: the folds use
the same floating-point expressions in the same order as
``Link.send()``, ``LinkStats`` and monitor samples agree at every read
instant, and clock/jitter RNG draw *order* is unchanged.  Engine digests
are reproducible within a mode; across modes they necessarily differ
(events are elided), exactly as for bulk cross traffic.  See
``docs/performance.md``.

Fallback
--------
A stream takes the per-packet path (same sample path) when its channel
is disabled, when a clock carries an RNG (draw timing would move), or on
``link-config``; a flow when disabled, under a full tracer, or on
``link-config``.  A mid-flight ineligibility (link decommission, full
tracer attached while flows are carried) *dissolves* the domain — every
in-flight virtual packet materializes as an ordinary engine event at its
already-committed time, flows return to the per-packet path, streams
resume their unsent suffix per-packet — so the sample path equals a
never-planned run.  Nothing else is ever taken back: every admission is
final when it is made.
``Simulator(sanitize=True)`` shadow-replays every round's admissions per
hop, batched ones included, and raises on any divergence.
"""

from __future__ import annotations

import heapq
import warnings
from bisect import bisect_left, bisect_right
from collections import deque
from typing import TYPE_CHECKING, Optional

import numpy as np

from .engine import SimulationError
from .fastpath import resolve_fast
from .hopfold import admit, fold_link
from .packet import Packet, PacketKind

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from ..transport.probe import ProbeChannel, _StreamRun
    from ..transport.tcp import TCPSender

__all__ = [
    "FlowTransitDomain",
    "FLOW_FALLBACK_REASONS",
    "STREAM_FALLBACK_REASONS",
    "plan_stream",
    "try_attach_flow",
]

#: Every reason ``repro_fastpath_flow_fallback_total`` may carry, for
#: declared-but-zero metric export (docs/observability.md).
FLOW_FALLBACK_REASONS: tuple[str, ...] = (
    "disabled",
    "tracer",
    "link-config",
    "link-decommission",
)

#: Every reason ``repro_fastpath_fallback_total`` may carry — refusals at
#: send time plus walk dissolves — for declared-but-zero metric export
#: (docs/observability.md).
STREAM_FALLBACK_REASONS: tuple[str, ...] = (
    "disabled",
    "impure-clock",
    "link-config",
    "link-decommission",
    "tracer",
)

_INF = float("inf")

# One warning per process: a full tracer silently costing the flow-transit
# fast path is the single most surprising perf cliff in a traced run.
_warned_tracer = False


def _warn_tracer_fallback() -> None:
    global _warned_tracer
    if not _warned_tracer:
        _warned_tracer = True
        warnings.warn(
            "a full tracer forces TCP flows onto the per-packet path "
            "(reason 'tracer' in repro_fastpath_flow_fallback_total); use a "
            "light tracer (--trace-light / Tracer(light=True)) to keep the "
            "flow-transit fast path while collecting aggregate telemetry",
            RuntimeWarning,
            stacklevel=3,
        )

#: Maximum virtual lookahead per round when no real event bounds the walk.
#: A persistent (BTC) flow is self-sustaining — data begets acks begets
#: data — so an unbounded walk would never return; per-packet ``run()``
#: with such a flow never terminates either, and the horizon preserves
#: that equivalence round by round instead of hanging inside one round.
_HORIZON = 64.0

# Virtual event kinds (tuple tag at index 2; index 1 is a unique sequence
# so event comparisons never reach the payload).  Deliveries -- K_DATA,
# K_ACK and K_SDELIV -- wait in the domain's two delivery deques, all
# other kinds on its heap.
K_ADMIT = 0  # (t, q, K_ADMIT, links, hop, size, tail): arrival at links[hop]
K_DATA = 1  # (t, q, K_DATA, fs, seq, length): segment delivery at receiver
K_ACK = 2  # (t, q, K_ACK, fs, ack): cumulative-ACK delivery at sender
K_TIMER = 3  # (t, q, K_TIMER, vt): RTO or delayed-ACK timer of a flow
K_SSEND = 4  # (t, q, K_SSEND, ss, i): probe-stream send of schedule index i
K_SDELIV = 5  # (t, q, K_SDELIV, ss, i): probe packet i delivery at receiver


class _VTimer:
    """Virtual-heap stand-in for a :class:`ScheduledCall` (lazy cancel).

    ``fn`` receives the deadline as its time, as an engine timer of the
    per-packet port does.
    """

    __slots__ = ("time", "fn", "cancelled", "q", "pending")

    def __init__(self, time, fn):
        self.time = time
        self.fn = fn
        self.cancelled = False
        # RTO timers armed inside a walk stay off the heap (pending=True,
        # with their would-have-been heap tiebreak in ``q``) until either
        # the walk clock reaches them or the walk ends; almost all are
        # restarted or cancelled by the next ack before ever touching the
        # heap.
        self.q = 0
        self.pending = False

    def cancel(self) -> None:
        self.cancelled = True


class _FlowPort:
    """The walk's port for one attached TCP connection, plus its
    domain-side bookkeeping.

    While the walk carries the flow, both endpoints hold this object as
    their ``port`` (see :mod:`repro.transport.tcp`): a segment or an ACK
    becomes a hop admission, the RTO timer stays off the heap, and a
    delayed-ACK timer goes on it.  ``pp`` is the connection's per-packet
    port, which the endpoints get back at detach.
    """

    __slots__ = (
        "domain",
        "pp",
        "sender",
        "receiver",
        "fwd",
        "rev",
        "hdr",
        "ack_size",
        "completing",
        "detached",
        "t0",
        "seg0",
    )

    def send_data(self, t: float, seq: int, length: int) -> None:
        d = self.domain
        tail = (K_DATA, self, seq, length)
        if d._walking:
            d._hop_admit(self.fwd, 0, t, length + self.hdr, tail)
        else:
            d._send(self.fwd, length + self.hdr, tail)

    def send_ack(self, t: float, ack: int) -> None:
        # Only the delayed-ACK timer sends through the port, and it fires
        # inside a walk; _round sends the ACKs on_segment returns.
        self.domain._hop_admit(self.rev, 0, t, self.ack_size, (K_ACK, self, ack))

    def rto(self, vt: Optional[_VTimer], deadline: float) -> _VTimer:
        """Cancel ``vt`` (if any) and arm the RTO for ``deadline``.

        Inside a walk the timer is postponed: it takes its heap tiebreak
        now but joins the heap only when the walk reaches its time or
        ends (:meth:`FlowTransitDomain._flush_pending`).  A timer still
        postponed from the previous ack is restarted in place.
        Cancel-then-replace would allocate a timer per ack for one that
        almost never fires; mutating time and tiebreak is
        indistinguishable, since the ``q`` taken here is the one a
        replacement would get.
        """
        d = self.domain
        if not d._walking:
            if vt is not None:
                vt.cancel()
            return d._vtimer(deadline, self.sender._on_rto)
        d._vseq = q = d._vseq + 1
        if vt is not None and vt.pending and not vt.cancelled:
            vt.time = deadline
        else:
            if vt is not None:
                vt.cancel()
            vt = _VTimer(deadline, self.sender._on_rto)
            vt.pending = True
        vt.q = q
        if deadline < d._pmin:
            d._pmin = deadline
        return vt

    def delack(self, deadline: float) -> _VTimer:
        return self.domain._vtimer(deadline, self.receiver._on_delack)

    def complete(self) -> None:
        """The transfer is acknowledged, always inside a walk: detach
        and run the user's callback as a real event at this instant."""
        self.completing = True
        d = self.domain
        d._defer(d._complete_flow, self)

    def stop(self) -> None:
        """``TCPSender.stop()``: hand the flow back to the real path."""
        if not (self.detached or self.completing):
            self.domain._detach(self)


class _StreamState:
    """Domain-side bookkeeping for one probe stream.

    A batched stream keeps its pending hop arrivals in ``bt`` (times) and
    ``bi`` (schedule indices), one pair of lists per forward hop; hop 0
    starts with the whole send schedule.  A stream admitted per packet
    has ``bt = bi = None`` and lives on the walk's heap and forward
    delivery deque instead.

    Each delivery appends its schedule index to ``idx`` and its time to
    ``rec_times``; the first ``committed`` of them are in the live
    ``_StreamRun`` (see :meth:`commit`).  ``complete_call`` is the real
    event of the stream-closing delivery once the walk has reached it.
    """

    __slots__ = (
        "channel",
        "run",
        "done",
        "sched",
        "n",
        "size",
        "fwd",
        "bt",
        "bi",
        "idx",
        "rec_times",
        "committed",
        "complete_call",
    )

    def commit(self, limit: float, inclusive: bool) -> None:
        """Append the deliveries with time up to ``limit`` to the run, at
        finalize time or at a dissolve, so straggler accounting matches
        the per-packet path exactly.

        ``inclusive`` matches the per-packet event order at the boundary:
        the stream-closing arrival commits itself (<=), while the
        deadline event — inserted at stream start, hence popped first on
        an exact tie — cuts strictly (<).  Each host clock is read once
        on the slice's array: the walk only carries pure clocks, whose
        ``read`` is elementwise.
        """
        times = self.rec_times
        p = self.committed
        if inclusive:
            q = bisect_right(times, limit, p)
        else:
            q = bisect_left(times, limit, p)
        if q > p:
            run = self.run
            sched = self.sched
            channel = self.channel
            sent = [sched[i] for i in self.idx[p:q]]
            run.seq += [seq for _s, seq in sent]
            send_times = np.array([s for s, _seq in sent])
            run.sender_stamp += channel.sender_clock.read(send_times).tolist()
            run.recv_stamp += channel.receiver_clock.read(np.array(times[p:q])).tolist()
            self.committed = q


class FlowTransitDomain:
    """The per-network virtual event loop carrying flows and streams."""

    __slots__ = (
        "sim",
        "network",
        "links",
        "alive",
        "flows",
        "streams",
        "_vheap",
        "_dfwd",
        "_drev",
        "_rev",
        "_vseq",
        "_vnow",
        "_limit",
        "_walking",
        "_round_call",
        "_pmin",
        "_rec",
        "_batch",
    )

    def __init__(self, sim, network):
        self.sim = sim
        self.network = network
        self.alive = True
        self.flows: list[_FlowPort] = []
        self.streams: list[_StreamState] = []
        self._vheap: list = []
        # Deliveries, one FIFO per chain in admission order at its last
        # hop, hence in (t, q) order (see the module docstring).
        self._dfwd: deque = deque()
        self._drev: deque = deque()
        self._rev = network.reverse_links
        self._vseq = 0
        self._vnow = sim._now
        self._limit = 0.0
        self._walking = False
        self._round_call = None
        self._pmin = _INF
        # Sanitize mode: this round's admissions, (link, t, size, done).
        self._rec = None
        # The batched stream, while one has hop arrivals pending.
        self._batch: _StreamState | None = None
        # Each distinct link (forward and reverse may share hops in exotic
        # topologies; dedupe preserves order) names the domain, so its
        # configuration chokepoints can dissolve it.
        links = tuple(dict.fromkeys((*network.forward_links, *network.reverse_links)))
        self.links = links
        for link in links:
            link._domain = self

    # ------------------------------------------------------------------
    # Virtual scheduling
    # ------------------------------------------------------------------
    def _vtimer(self, time, fn) -> _VTimer:
        vt = _VTimer(time, fn)
        self._vseq = q = self._vseq + 1
        heapq.heappush(self._vheap, (time, q, K_TIMER, vt))
        if not self._walking:
            self._kick(time)
        return vt

    def _send(self, links, size, tail) -> None:
        """Out-of-walk send (e.g. the initial burst from ``start()``):
        defer admission into a round at the same instant, so the walk's
        cap invariant covers it like every other admission."""
        t = self.sim._now
        self._vseq = q = self._vseq + 1
        heapq.heappush(self._vheap, (t, q, K_ADMIT, links, 0, size, tail))
        self._kick(t)

    def _defer(self, fn, *args):
        """Schedule ``fn`` as a *real* event at the walk's current instant
        and lower the walk limit so it runs before any later virtual work."""
        t = self._vnow
        call = self.sim.schedule_at(t, fn, *args)
        if t < self._limit:
            self._limit = t
        return call

    def _kick(self, t: float) -> None:
        if not self.alive or self._walking:
            return
        rc = self._round_call
        if rc is not None and not rc.cancelled:
            if rc.time <= t:
                return
            rc.cancel()
        self._round_call = self.sim.schedule_at(t, self._round)

    # ------------------------------------------------------------------
    # Hop admission (the recursion itself is hopfold.admit)
    # ------------------------------------------------------------------
    def _hop_admit(self, links, hop: int, t: float, size: int, tail) -> None:
        """Admit ``size`` bytes into ``links[hop]`` at ``t`` and queue the
        packet's next virtual event.

        The admission goes straight into the real link's state; the cap
        invariant keeps it at or before the next real event, so no reader
        can see it early.  Under sanitize it is also recorded for
        :meth:`_verify_round`.  A link with a full tracer gets the
        enqueue and drop callbacks ``Link.send`` would make.
        """
        link = links[hop]
        done = admit(link, t, size)
        rec = self._rec
        if rec is not None:
            rec.append((link, t, size, done))
        tracer = link._tracer
        if tracer is not None:
            if done is None:
                tracer.on_link_drop(link, self._pkt_from_tail(tail)[0], t)
            else:
                tracer.on_link_enqueue(link.name, link._backlog_bytes)
        if done is None:
            return  # dropped: the packet silently vanishes, as on a real path
        t_out = done + link._prop_delay
        self._vseq = q = self._vseq + 1
        hop += 1
        if hop < len(links):
            heapq.heappush(self._vheap, (t_out, q, K_ADMIT, links, hop, size, tail))
        elif links is self._rev:
            self._drev.append((t_out, q) + tail)
        else:
            self._dfwd.append((t_out, q) + tail)

    # ------------------------------------------------------------------
    # The round: walk up to the cap, reschedule
    # ------------------------------------------------------------------
    def _next_time(self) -> float | None:
        """Time of the earliest pending virtual work, or None when idle."""
        vheap = self._vheap
        while vheap and vheap[0][2] == K_TIMER and vheap[0][3].cancelled:
            heapq.heappop(vheap)
        t = vheap[0][0] if vheap else None
        for dq in (self._dfwd, self._drev):
            if dq and (t is None or dq[0][0] < t):
                t = dq[0][0]
        ss = self._batch
        if ss is not None:
            for ts in ss.bt:
                if ts and (t is None or ts[0] < t):
                    t = ts[0]
        return t

    def _round(self) -> None:
        self._round_call = None
        if not self.alive:
            return
        sim = self.sim
        tracer = sim.tracer
        if tracer is not None and not tracer.light and self.flows:
            # A full tracer wants per-event visibility of TCP; hand
            # everything back.  Light tracers only buffer aggregate
            # counters, so the domain keeps walking, and streams need
            # only the link callbacks _hop_admit makes
            # (docs/observability.md).
            _warn_tracer_fallback()
            self.dissolve("tracer")
            return
        bs = self._batch
        if bs is not None and any(link._tracer is not None for link in bs.fwd):
            self._unbatch()
        vheap = self._vheap
        heappop = heapq.heappop
        dfwd = self._dfwd
        drev = self._drev
        pop_fwd = dfwd.popleft
        pop_rev = drev.popleft
        if self.streams:
            live = [ss for ss in self.streams if not ss.run.done]
            if len(live) != len(self.streams):
                self.streams = live
        t0 = self._next_time()
        if t0 is None:
            return
        now = sim._now
        head = sim.peek_time()
        cap = head if head is not None else _INF
        until = sim._until
        if until is not None and until < cap:
            cap = until
        h = now + _HORIZON
        if h < cap:
            cap = h
        if t0 > now and t0 >= cap:
            self._round_call = sim.schedule_at(t0, self._round)
            return
        for link in self.links:
            # The walk folds cross arrivals through the aggregator cursor
            # and never compacts; trim the consumed prefix between walks.
            agg = link._agg
            if agg is not None:
                agg.compact()
        snaps = None
        if sim._sanitize:
            snaps = [
                (
                    link, link._free_at, link._backlog_bytes,
                    tuple(link._in_flight),
                    link._agg.idx if link._agg is not None else 0,
                    link._stats.snapshot(),
                )
                for link in self.links
            ]
            self._rec = []
        self._walking = True
        self._vnow = now
        self._limit = cap
        try:
            while True:
                # The earliest of the heap head and the two delivery
                # heads; (t, q) tuples compare on t, then the unique q.
                ev = vheap[0] if vheap else None
                pop = heappop
                if dfwd:
                    e = dfwd[0]
                    if ev is None or e < ev:
                        ev = e
                        pop = pop_fwd
                if drev:
                    e = drev[0]
                    if ev is None or e < ev:
                        ev = e
                        pop = pop_rev
                t = _INF if ev is None else ev[0]
                if self._pmin <= t:
                    if self._pmin == _INF:
                        break  # nothing queued, no timers postponed
                    # A postponed RTO timer is due at or before the head
                    # event; surface it with its original tiebreak so the
                    # heap restores exact eager-push dispatch order.
                    self._flush_pending()
                    continue
                if ev is None or (t > now and t >= self._limit):
                    break
                if pop is heappop:
                    heappop(vheap)
                else:
                    pop()
                k = ev[2]
                self._vnow = t
                if k == K_ACK:
                    ev[3].sender.on_ack(t, ev[4])
                elif k == K_DATA:
                    fs = ev[3]
                    ack = fs.receiver.on_segment(t, ev[4], ev[5])
                    if ack is not None:
                        self._hop_admit(fs.rev, 0, t, fs.ack_size, (K_ACK, fs, ack))
                elif k == K_TIMER:
                    vt = ev[3]
                    if not vt.cancelled:
                        vt.fn(t)
                elif k == K_ADMIT:
                    self._hop_admit(ev[3], ev[4], t, ev[5], ev[6])
                elif k == K_SSEND:
                    self._ev_ssend(t, ev[3], ev[4])
                else:  # K_SDELIV
                    self._ev_sdeliv(t, ev[3], ev[4])
            # The batched stream goes last: the heap above holds no
            # admissions while it is batched, and any real event deferred
            # there has already lowered the limit.
            bs = self._batch
            if bs is not None:
                self._fold_batch(bs, now)
        finally:
            if self._pmin < _INF:
                self._flush_pending()
            self._walking = False
        if snaps is not None:
            recs = self._rec
            self._rec = None
            self._verify_round(snaps, recs)
        if not self.alive:
            return
        t0 = self._next_time()
        if t0 is not None:
            self._round_call = sim.schedule_at(t0, self._round)

    def _flush_pending(self) -> None:
        """Move live postponed RTO timers onto the virtual heap.

        Each carries the tiebreak ``q`` it was assigned at creation, so
        once pushed the heap pops it exactly where an eager push would
        have; cancelled ones (the overwhelmingly common case — the next
        ack kills them) are simply dropped without ever touching the heap.
        The ``_pmin`` watermark is stale-low: it may name a cancelled
        timer, in which case this flush is a no-op that resets it.
        """
        vheap = self._vheap
        for fs in self.flows:
            vt = fs.sender._rto_timer
            if vt is not None and vt.pending:
                vt.pending = False
                if not vt.cancelled:
                    heapq.heappush(vheap, (vt.time, vt.q, K_TIMER, vt))
        self._pmin = _INF

    # ------------------------------------------------------------------
    # Probe streams
    # ------------------------------------------------------------------
    def adopt_stream(
        self, channel: "ProbeChannel", run: "_StreamRun", done_event
    ) -> _StreamState:
        """Carry one probe stream inside the domain walk; return its state.

        Called from :func:`plan_stream`.  The stream is batched when it
        is the only foreground traffic the walk carries (no flow, no
        other stream's admission pending) and its closing packet is last
        in send order, so no admission of it follows its completion
        event.  Any other stream is admitted per packet, and so is a
        batched one once :meth:`_round` finds a full tracer on its hops.
        """
        ss = _StreamState()
        ss.channel = channel
        ss.run = run
        ss.done = done_event
        sched = run.schedule
        ss.sched = sched
        n = ss.n = run.spec.n_packets
        ss.size = run.spec.packet_size
        ss.fwd = self.network.forward_links
        ss.bt = ss.bi = None
        ss.idx = []
        ss.rec_times = []
        ss.committed = 0
        ss.complete_call = None
        self.streams.append(ss)
        run.plan = ss
        run.n_sent = n
        channel.packets_sent += n
        channel.bytes_sent += n * ss.size
        if (
            self.flows
            or self._batch is not None
            or sched[-1][1] != n - 1
            or any(ev[2] == K_SSEND or ev[2] == K_ADMIT for ev in self._vheap)
        ):
            self._unbatch()
            self._vseq = q = self._vseq + 1
            heapq.heappush(self._vheap, (sched[0][0], q, K_SSEND, ss, 0))
        else:
            rest = range(1, len(ss.fwd))
            ss.bt = [[t for t, _seq in sched]] + [[] for _ in rest]
            ss.bi = [list(range(len(sched)))] + [[] for _ in rest]
            self._batch = ss
        self._kick(sched[0][0])
        return ss

    def _unbatch(self) -> None:
        """Move the batched stream's pending arrivals onto per-packet
        virtual events: the hop-0 remainder becomes one send chain, and
        each arrival at a later hop one admission.  Their times are
        unchanged, so the round already scheduled still covers them."""
        ss = self._batch
        if ss is None:
            return
        self._batch = None
        vheap = self._vheap
        fwd = ss.fwd
        size = ss.size
        for h, (ts, ix) in enumerate(zip(ss.bt, ss.bi)):
            if not ts:
                continue
            if h == 0:
                self._vseq = q = self._vseq + 1
                heapq.heappush(vheap, (ts[0], q, K_SSEND, ss, ix[0]))
                continue
            for t, i in zip(ts, ix):
                self._vseq = q = self._vseq + 1
                heapq.heappush(vheap, (t, q, K_ADMIT, fwd, h, size, (K_SDELIV, ss, i)))
        ss.bt = ss.bi = None

    def _fold_batch(self, ss: _StreamState, now: float) -> None:
        """Fold the batched stream's arrivals before the limit, hop by hop.

        One :func:`~repro.netsim.hopfold.fold_link` per hop admits the
        due arrivals into the live link, with the due cross arrivals folded
        first, exactly as :func:`~repro.netsim.hopfold.admit` would one by
        one.  Exits before the limit feed the next hop in this round;
        later ones wait for the next round.  Exits from the last hop are
        deliveries (:meth:`_deliver_batch`).
        """
        limit = self._limit
        rec = self._rec
        size = ss.size
        bt = ss.bt
        bi = ss.bi
        links = ss.fwd
        last = len(links) - 1
        for h, link in enumerate(links):
            ts = bt[h]
            k = bisect_right(ts, now) if limit <= now else bisect_left(ts, limit)
            if not k:
                continue
            fg = ts[:k]
            ix = bi[h][:k]
            del ts[:k], bi[h][:k]
            dones, accepts = fold_link(link, fg[-1], fg, size)
            if rec is not None:
                rec.extend(
                    (link, t, size, d if accepts is None or accepts[j] else None)
                    for j, (t, d) in enumerate(zip(fg, dones))
                )
            prop = link._prop_delay
            if accepts is None:
                xs = [d + prop for d in dones]
                xi = ix
            else:
                xs = [d + prop for d, ok in zip(dones, accepts) if ok]
                xi = [i for i, ok in zip(ix, accepts) if ok]
            if h < last:
                bt[h + 1] += xs
                bi[h + 1] += xi
            else:
                self._deliver_batch(ss, xs, xi)
        if not any(bt):
            self._batch = None

    def _deliver_batch(self, ss: _StreamState, xs, xi) -> None:
        """Record deliveries as soon as the last hop yields them: they
        touch no link, and deliveries are committed only by time, so
        recording ahead of the cap is safe.  So is scheduling the closing
        ``_fast_complete``, a real event later rounds stop short of.  The
        closing packet of a batched stream is last in send order, and
        every hop is FIFO, so it can only be the last delivery of a
        batch."""
        run = ss.run
        if run.done or not xs:
            return  # stragglers after deadline finalization: lost
        ss.idx += xi
        ss.rec_times += xs
        if xi[-1] == ss.n - 1:
            ss.complete_call = self.sim.schedule_at(
                xs[-1], ss.channel._fast_complete, run, ss.done
            )

    def _ev_ssend(self, t: float, ss: _StreamState, i: int) -> None:
        # Sends go on after the stream finalizes, as the per-packet
        # sender's do: the stragglers are lost but still load the links.
        j = i + 1
        if j < ss.n:
            # Push the next send before admitting this packet, mirroring
            # the per-packet sender's reschedule-before-inject tie order.
            self._vseq = q = self._vseq + 1
            heapq.heappush(self._vheap, (ss.sched[j][0], q, K_SSEND, ss, j))
        self._hop_admit(ss.fwd, 0, t, ss.size, (K_SDELIV, ss, i))

    def _ev_sdeliv(self, t: float, ss: _StreamState, i: int) -> None:
        run = ss.run
        if run.done:
            return  # straggler after deadline finalization: lost
        ss.idx.append(i)
        ss.rec_times.append(t)
        if ss.sched[i][1] == ss.n - 1:
            ss.complete_call = self._defer(
                ss.channel._fast_complete, run, ss.done
            )

    # ------------------------------------------------------------------
    # Flow lifecycle
    # ------------------------------------------------------------------
    def attach_flow(self, sender: "TCPSender") -> None:
        """Carry ``sender``'s connection in the walk: both endpoints take
        this flow's port in place of their per-packet one."""
        self._unbatch()
        fs = _FlowPort()
        receiver = sender.receiver
        network = self.network
        fs.domain = self
        fs.pp = sender.port
        fs.sender = sender
        fs.receiver = receiver
        fs.fwd = network.forward_links
        fs.rev = network.reverse_links
        fs.hdr = sender.config.header_bytes
        fs.ack_size = receiver.config.header_bytes
        fs.completing = False
        fs.detached = False
        fs.t0 = self.sim._now
        fs.seg0 = sender.segments_sent
        sender.port = receiver.port = fs
        self.flows.append(fs)
        _note_flow_planned(network, self.sim)

    def _complete_flow(self, fs: _FlowPort) -> None:
        fs.completing = False
        if not fs.detached:
            self._detach(fs)
        fs.pp.complete()

    def _detach(self, fs: _FlowPort) -> None:
        if fs.detached:
            return
        fs.detached = True
        try:
            self.flows.remove(fs)
        except ValueError:  # pragma: no cover - dissolve already removed it
            pass
        self._drain_flow_events(fs)
        snd = fs.sender
        rcv = fs.receiver
        snd.port = rcv.port = fs.pp
        snd._rto_timer = self._to_real(snd._rto_timer)
        rcv._delack_timer = self._to_real(rcv._delack_timer)
        sim = self.sim
        if sim.tracer is not None:
            sim.tracer.span(
                fs.t0,
                sim._now,
                "flow",
                "planned",
                track=snd.flow_id,
                args={"segments": snd.segments_sent - fs.seg0},
            )
        else:
            self.network._ft_spans.append(
                (fs.t0, sim._now, snd.flow_id, snd.segments_sent - fs.seg0)
            )

    def _to_real(self, vt):
        """Convert a live :class:`_VTimer` into a real scheduled call."""
        if vt is None or vt.cancelled:
            return vt
        vt.cancelled = True  # its heap entry is skipped from now on
        return self.sim.schedule_at(vt.time, vt.fn, vt.time)

    def _drain_flow_events(self, fs: _FlowPort) -> None:
        """Materialize this flow's pending virtual events as real ones."""
        queues = (self._vheap, self._dfwd, self._drev)
        kept: list = [[] for _ in queues]
        owned: list = []
        for queue, rest in zip(queues, kept):
            for ev in queue:
                k = ev[2]
                if k == K_DATA or k == K_ACK:
                    (owned if ev[3] is fs else rest).append(ev)
                elif k == K_ADMIT:
                    tail = ev[6]
                    (owned if tail[0] != K_SDELIV and tail[1] is fs else rest).append(ev)
                else:
                    rest.append(ev)
        if not owned:
            return
        owned.sort()
        for ev in owned:
            self._materialize(ev)
        # In place: _round's walk loop (and a mid-walk completion path
        # reaching here through _complete_flow) hold aliases to the heap
        # and the deques.  The deques keep the order of what remains.
        for queue, rest in zip(queues, kept):
            queue.clear()
            queue.extend(rest)
        heapq.heapify(self._vheap)

    def _pkt_from_tail(self, tail):
        k = tail[0]
        if k == K_DATA:
            _, fs, seq, length = tail
            return fs.pp.data_packet(seq, length), fs.pp.on_data
        if k == K_ACK:
            _, fs, ack = tail
            return fs.pp.ack_packet(ack), fs.pp.on_ack
        # K_SDELIV
        _, ss, i = tail
        s, seq = ss.sched[i]
        run = ss.run
        done = ss.done
        channel = ss.channel
        pkt = Packet(
            ss.size,
            flow_id=run.flow_id,
            seq=seq,
            kind=PacketKind.PROBE,
            created_at=s,
            sender_stamp=channel.sender_clock.read(s),
        )
        handler = lambda p, run=run, done=done: channel._on_arrival(run, p, done)
        return pkt, handler

    def _materialize(self, ev) -> None:
        t = ev[0]
        k = ev[2]
        sim = self.sim
        if k == K_DATA or k == K_ACK or k == K_SDELIV:
            pkt, target = self._pkt_from_tail(ev[2:])
            if k == K_SDELIV:
                pkt.delivered_at = t
            sim.schedule_at(t, target, pkt)
        elif k == K_ADMIT:
            hop = ev[4]
            links = ev[3]
            pkt, target = self._pkt_from_tail(ev[6])
            pkt.route = links
            pkt.hop = hop
            pkt.handler = target
            sim.schedule_at(t, links[hop].send, pkt)
        # K_TIMER: live timers are converted by _to_real at detach;
        # anything else on the heap is logically cancelled.  K_SSEND is
        # resumed by dissolve.

    # ------------------------------------------------------------------
    # Dissolution (mid-flight ineligibility)
    # ------------------------------------------------------------------
    def dissolve(self, reason: str) -> None:
        """Hand every flow and stream back to the per-packet machinery.

        All committed virtual state is at or before now (cap invariant),
        and every admission is already in the real links' state, so
        in-flight virtual packets materialize as ordinary events at
        their already-exact times and the future replays per-packet: the
        sample path equals a never-planned run.
        """
        if not self.alive:
            return
        self._unbatch()
        self.alive = False
        sim = self.sim
        network = self.network
        if network._flow_domain is self:
            network._flow_domain = None
        rc = self._round_call
        if rc is not None:
            rc.cancel()
            self._round_call = None
        for link in self.links:
            if link._domain is self:
                link._domain = None
        queues = (self._vheap, self._dfwd, self._drev)
        drained = sorted(ev for queue in queues for ev in queue)
        for queue in queues:
            queue.clear()  # in place: walk-loop aliases must observe the drain
        sends = []
        for ev in drained:
            k = ev[2]
            if k == K_SSEND:
                sends.append(ev)
            elif k != K_TIMER:
                self._materialize(ev)
        now = sim._now
        for ss in self.streams:
            run = ss.run
            if run.done:
                continue
            if ss.complete_call is not None:
                # Virtually complete: the pending _fast_complete event
                # will commit and finalize; nothing to rewind.
                continue
            ss.commit(now, inclusive=True)
            # Deliveries a batched fold recorded past now arrive per-packet.
            p = ss.committed
            channel = ss.channel
            for i, x in zip(ss.idx[p:], ss.rec_times[p:]):
                s, seq = ss.sched[i]
                pkt = Packet(
                    ss.size,
                    flow_id=run.flow_id,
                    seq=seq,
                    kind=PacketKind.PROBE,
                    sender_stamp=channel.sender_clock.read(s),
                )
                sim.schedule_at(x, channel._on_arrival, run, pkt, ss.done)
            run.plan = None
            channel._note_fallback(reason)
        self.streams = []
        # Every stream with a pending send resumes its unsent suffix on
        # the per-packet sender, finalized or not, as per-packet sends on.
        for t, _q, _k, ss, i0 in sends:
            unsent = ss.n - i0
            ss.run.n_sent -= unsent
            ss.channel.packets_sent -= unsent
            ss.channel.bytes_sent -= unsent * ss.size
            sim.schedule_at(t, ss.channel._send_next, ss.run, i0, ss.done)
        for fs in list(self.flows):
            if fs.completing:
                continue
            self._detach(fs)
            _note_flow_fallback(network, sim, reason)
        self.flows = [fs for fs in self.flows if fs.completing]

    # ------------------------------------------------------------------
    # Sanitize-mode shadow verification
    # ------------------------------------------------------------------
    def _verify_round(self, snaps, recs) -> None:
        """Independently replay this round on every hop and raise
        :class:`SimulationError` on any divergence.

        ``snaps`` holds each link's state at the start of the round (free
        time, backlog, in-flight deque, aggregator cursor, stats); ``recs``
        every admission the walk made, per packet or batched, as ``(link,
        t, size, done or None)``.  The replay merges the cross arrivals the walk folded
        with the recorded admissions (cross traffic wins exact-time ties)
        and runs its own copy of the hop recursion -- one arrival at a
        time, no deferred purge -- so a bug in the shared fold cannot hide
        in its own mirror image.  It checks every verdict and done, the
        end ``_free_at`` and the ``LinkStats`` deltas.
        """
        for link, free_at, backlog, infl0, ci0, stats0 in snaps:
            fg = [
                (t, 1, i, size, done)
                for i, (lk, t, size, done) in enumerate(recs)
                if lk is link
            ]
            agg = link._agg
            ci1 = agg.idx if agg is not None else 0
            if not fg and ci1 == ci0:
                continue
            cross = (
                [(agg.times[ci], 0, ci, agg.sizes[ci], None) for ci in range(ci0, ci1)]
                if agg is not None
                else []
            )
            infl = deque(infl0)
            cap = link.capacity_bps
            sched = link._cap_sched
            buffer_bytes = link.buffer_bytes
            name = link.name
            fwd_bytes = fwd_pkts = drop_bytes = drop_pkts = 0
            for t, tag, i, sz, done in heapq.merge(cross, fg):
                while infl and infl[0][0] <= t:
                    backlog -= infl.popleft()[1]
                if buffer_bytes is not None and backlog + sz > buffer_bytes:
                    drop_bytes += sz
                    drop_pkts += 1
                    if tag == 1 and done is not None:
                        raise SimulationError(
                            f"flow-transit shadow check: hop {name!r} dropped "
                            f"admission {i} but the walk accepted it"
                        )
                    continue
                start = free_at if free_at > t else t
                if sched is not None:
                    cap = sched[1][bisect_right(sched[0], start)]
                free_at = start + sz * 8.0 / cap
                infl.append((free_at, sz))
                backlog += sz
                fwd_bytes += sz
                fwd_pkts += 1
                if tag == 1:
                    if done is None:
                        raise SimulationError(
                            f"flow-transit shadow check: hop {name!r} accepted "
                            f"admission {i} but the walk dropped it"
                        )
                    if done != free_at:  # simlint: disable=SIM003 -- bit-identity shadow check
                        raise SimulationError(
                            f"flow-transit shadow check: hop {name!r} "
                            f"admission {i} done {free_at!r} != walked {done!r}"
                        )
            if free_at != link._free_at:  # simlint: disable=SIM003 -- bit-identity shadow check
                raise SimulationError(
                    f"flow-transit shadow check: hop {name!r} end "
                    f"free_at {free_at!r} != walked {link._free_at!r}"
                )
            stats = link._stats.snapshot()
            rose = {key: stats[key] - stats0[key] for key in stats}
            replay = {
                "bytes_forwarded": fwd_bytes,
                "packets_forwarded": fwd_pkts,
                "bytes_dropped": drop_bytes,
                "packets_dropped": drop_pkts,
            }
            if rose != replay:
                raise SimulationError(
                    f"flow-transit shadow check: hop {name!r} stats rose by "
                    f"{rose}, replay counts {replay}"
                )


# ----------------------------------------------------------------------
# Module-level seams
# ----------------------------------------------------------------------
def _domain_for(network, sim) -> Optional[FlowTransitDomain]:
    """The one gate into the walk: ``network``'s domain, created on first
    use, or None when a forward or reverse link has a qdisc, a drop hook
    or a rebound ``deliver`` callback.  A live domain is trusted without a
    re-check: it names itself on every link it crosses, and every hook
    setter and ``set_capacity_segments`` dissolve it."""
    domain = network._flow_domain
    if domain is not None:
        return domain
    advance = network._advance
    for link in (*network.forward_links, *network.reverse_links):
        if (
            link._deliver != advance
            or link._qdisc is not None
            or link._drop_hook is not None
        ):
            return None
    domain = network._flow_domain = FlowTransitDomain(sim, network)
    return domain


def _impure(clock) -> bool:
    """A clock that consumes an RNG per read cannot be batch-read."""
    return (
        getattr(clock, "_rng", None) is not None
        or getattr(clock, "rng", None) is not None
    )


def plan_stream(
    channel: "ProbeChannel", run: "_StreamRun", done_event
) -> tuple[Optional[_StreamState], Optional[str]]:
    """``ProbeChannel.send_stream`` seam: hand ``run`` to the network's
    walk and return ``(state, None)``, or ``(None, reason)`` when the
    caller must take the per-packet path (same sample path).  A walk
    carrying flows under a full tracer is dissolved first, and the stream
    rides a fresh walk without them."""
    if _impure(channel.sender_clock) or _impure(channel.receiver_clock):
        return None, "impure-clock"
    network = channel.network
    sim = channel.sim
    domain = _domain_for(network, sim)
    if domain is not None and domain.flows:
        tracer = sim.tracer
        if tracer is not None and not tracer.light:
            _warn_tracer_fallback()
            domain.dissolve("tracer")
            domain = _domain_for(network, sim)
    if domain is None:
        return None, "link-config"
    return domain.adopt_stream(channel, run, done_event), None


def try_attach_flow(sender: "TCPSender") -> bool:
    """``TCPSender._begin`` seam: attach to (or create) this network's
    flow-transit domain.  Returns True when attached; on False the caller
    takes the per-packet path.  The flow's own eligibility is checked
    before the gate, since a probe stream may have created the domain."""
    network = sender.network
    sim = sender.sim
    if not resolve_fast(sender._fast):
        _note_flow_fallback(network, sim, "disabled")
        return False
    tracer = sim.tracer
    if tracer is not None and not tracer.light:
        _warn_tracer_fallback()
        _note_flow_fallback(network, sim, "tracer")
        return False
    domain = _domain_for(network, sim)
    if domain is None:
        _note_flow_fallback(network, sim, "link-config")
        return False
    domain.attach_flow(sender)
    return True


def _note_flow_planned(network, sim) -> None:
    network._ft_flows += 1
    tracer = sim.tracer
    if tracer is not None:  # light tracers keep flows planned
        tracer.metrics.counter(
            "repro_fastpath_flows_total",
            help="TCP flows carried by the flow-transit fast path",
        ).inc()


def _note_flow_fallback(network, sim, reason: str) -> None:
    counts = network._ft_fallbacks
    counts[reason] = counts.get(reason, 0) + 1
    tracer = sim.tracer
    if tracer is not None:
        tracer.metrics.counter(
            "repro_fastpath_flow_fallback_total",
            labels={"reason": reason},
            help="TCP flows that took the per-packet path, by reason",
        ).inc()
