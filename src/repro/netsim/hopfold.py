"""The FIFO hop recursion, written once for every event-elided path.

The paper's path model (Section III-A) is a chain of FIFO
store-and-forward hops.  A hop serves each arrival at ``start =
max(arrival, free_at)`` and is free again at ``start + size*8/C``, where
``C`` is the link's capacity.  A finite drop-tail buffer refuses an
arrival that would push the backlog (bytes queued or in transmission)
past the buffer size.

Two functions carry that recursion for the event-elided paths:

* :func:`fold` walks a slice of a link's cross-traffic arrivals, merged
  with an optional sorted foreground sequence.
* :func:`admit` is the same step for one foreground arrival.  The walk
  needs it for TCP and for streams that share it: acks and cwnd changes
  come between their admissions, so there is no slice to hand over.

:func:`fold_link` is the one entry into a live link's cross arrivals.
It pulls them from the link's
:class:`~repro.netsim.bulkarrivals.CrossAggregator`, folds them from the
cursor (with a foreground slice, if any) and writes the link's state and
:class:`~repro.netsim.link.LinkStats` back.  ``Link.sync`` calls it to
fold cross traffic alone, :func:`admit` before each admission, and the
flow-transit walk once per hop per round with a batched probe stream's
arrivals, which takes back each packet's exit time from the hop.  The
walk never runs ahead of a real reader, so its admissions go straight
into the link's state.  ``Link.send()`` keeps its own copy
of the recursion, because it is the per-packet reference every equality
suite compares against.  So does the sanitize shadow
(``FlowTransitDomain._verify_round``), so that a bug here cannot hide
in its own mirror image.

Contract (bit-identity with ``Link.send()``):

* Cross arrivals win exact-time ties: each one at or before ``t`` is
  folded before a foreground admission at ``t``, as ``send()`` folds
  pending bulk arrivals before admitting its packet.
* The floating-point expressions and their order are those of
  ``send()``.
* ``in_flight`` (a deque of ``(done, size)``, oldest first) is mutated
  in place.
* With an infinite buffer nothing can drop, so the per-arrival purge is
  deferred, and a transmission that finishes by ``until`` never enters
  ``in_flight``: completion times are monotone on a FIFO hop, so the
  purge at ``until`` would remove it anyway.

Skipping idle arrivals
----------------------
On an infinite-buffer hop, an arrival that finds the hop idle restarts
the recursion (``start = t``), so only the last busy period before a
foreground packet, or before ``until``, can change an output.  The
aggregator's *idle marks* (:mod:`repro.netsim.bulkarrivals`) flag the
cross arrivals that provably find the hop fed only the cross arrivals
idle.  :func:`fold` uses them on the *leading run* of a call: its cross
arrivals up to the first foreground packet (ties included), or up to
``until`` when there is none.  It walks that run exactly until the first
arrival that finds the real hop idle, then jumps to the run's last
marked arrival and walks exactly from there.  The jump is exact:

* The real hop carries the same cross arrivals plus foreground packets,
  and extra work never makes a FIFO hop free earlier; float rounding is
  monotone, so the float recursions keep that order.  At the first
  arrival that finds the real hop idle, the cross-only hop is idle too,
  both compute ``t + size*8/C``, and they stay the same floats until the
  next foreground packet.
* So the marked arrival finds the real hop idle, and its ``start`` is its
  own time whatever came before it.  The arrivals skipped all finish by
  then, no later than ``until``, so none of them enters ``in_flight``;
  they only add to the forwarded byte and packet sums.

Nothing skips past a foreground packet.  Finite buffers and
``REPRO_NO_VECTOR`` have no marks and walk every arrival, and the
sanitize shadow replays every arrival one at a time.

Arrays in, Python scalars out
-----------------------------
The aggregator keeps its merged arrivals as float64 and int64 arrays,
and :func:`fold` converts only what it walks: the leading run in
windows that double, up to the first arrival that finds the hop idle,
then ``[m, j)`` after the jump.  ``searchsorted`` finds the cursor
bounds.  The arrivals jumped over never become Python objects; their
byte sum is an int64 sum, taken over at most 1,023 arrivals at a time
so that it stays exact for every size a
:class:`~repro.netsim.crosstraffic.PacketMix` accepts (up to 2**53
bytes).  So the clock, the link state, ``LinkStats`` and every value
the fold returns are Python floats and ints.
"""

from __future__ import annotations

from .bulkarrivals import _NO_SIZES, _NO_TIMES

__all__ = ["admit", "fold", "fold_link"]

_INF = float("inf")

#: Cross arrivals in the leading-run walk's first window; each further
#: window doubles.  Half of fig05's walks find the hop idle at once, and
#: a few of fig11's walk hundreds of arrivals.
_WINDOW = 16

#: Most cross sizes one int64 sum may add: a size is at most 2**53 bytes
#: (``crosstraffic._MAX_PACKET_SIZE``), and 1,023 of those stay below
#: 2**63.
_SUM_SPAN = (2**63 - 1) // 2**53


def _byte_sum(sizes, a, b):
    """``sum(sizes[a:b])`` as a Python int, exact for every size a
    :class:`~repro.netsim.crosstraffic.PacketMix` accepts."""
    if b - a <= _SUM_SPAN:
        return int(sizes[a:b].sum())
    return sum(
        int(sizes[k : min(k + _SUM_SPAN, b)].sum()) for k in range(a, b, _SUM_SPAN)
    )


def fold(
    times, sizes, ci, until, free_at, backlog, in_flight, cap, buffer_bytes,
    fg=(), fg_size=0, marks=None, prop=0.0,
):
    """Fold cross arrivals ``times[ci:]``/``sizes[ci:]`` up to ``until``
    (inclusive), merged with foreground arrivals ``fg`` of ``fg_size``
    bytes each.

    ``times`` and ``sizes`` are sorted float64 and int64 arrays; only the
    arrivals walked become Python objects.  ``fg`` is sorted, and its
    last entry is at or before ``until``.  ``cap`` is the link's rate and
    ``buffer_bytes`` is ``None`` for an infinite buffer.  ``marks``,
    aligned with ``times``, holds the idle marks of the cross arrivals,
    or is ``None`` (module docstring).  Returns ``(ci, free_at, backlog,
    fwd_bytes, fwd_pkts, drop_bytes, drop_pkts, exits, accepts)``: the
    new cursor, the hop state at ``until`` (``in_flight`` already purged
    to it), the bytes and packets this call forwarded and dropped, cross
    and foreground together, each foreground entry's exit time from the
    hop (0.0 when dropped), and its verdicts (``None`` for an infinite
    buffer, which accepts every entry).  An exit time is ``done + prop``:
    the entry's transmission-complete time plus ``prop``, the hop's
    propagation delay, so the caller can feed the exits to the next hop
    as they are.  With the default ``prop`` of 0.0 it is ``done``, bit
    for bit.
    """
    nfg = len(fg)
    exits: list[float] = []
    # bisect_right(times, until, ci), on a sorted array.
    j = int(times.searchsorted(until, "right"))
    if j < ci:
        j = ci
    if buffer_bytes is None:
        accepts = None
        drop_bytes = drop_pkts = 0
        ci0 = ci
        if marks:
            m = marks.rfind(
                1, ci + 1, int(times.searchsorted(fg[0], "right")) if nfg else j
            )
            # Walk the leading run exactly, in windows that double, until
            # the hop is idle, then jump to its last marked arrival, which
            # finds it idle too.
            step = _WINDOW
            while ci < m:
                w = ci + step if ci + step < m else m
                step += step
                for t, size in zip(times[ci:w].tolist(), sizes[ci:w].tolist()):
                    if t >= free_at:
                        ci = m
                        break
                    free_at += size * 8.0 / cap
                    if free_at > until:
                        in_flight.append((free_at, size))
                        backlog += size
                    ci += 1
        # One pass over the due cross arrivals, the foreground merged in;
        # cross arrivals win exact-time ties.
        tail = sizes[ci:j].tolist()
        fwd_bytes = sum(tail) + fg_size * nfg
        if ci > ci0:
            fwd_bytes += _byte_sum(sizes, ci0, ci)
        k = 0
        ft = fg[0] if nfg else _INF
        for t, size in zip(times[ci:j].tolist(), tail):
            while ft < t:
                start = free_at if free_at > ft else ft
                free_at = start + fg_size * 8.0 / cap
                if free_at > until:
                    in_flight.append((free_at, fg_size))
                    backlog += fg_size
                exits.append(free_at + prop)
                k += 1
                ft = fg[k] if k < nfg else _INF
            start = free_at if free_at > t else t
            free_at = start + size * 8.0 / cap
            if free_at > until:
                in_flight.append((free_at, size))
                backlog += size
        for ft in fg[k:]:
            start = free_at if free_at > ft else ft
            free_at = start + fg_size * 8.0 / cap
            if free_at > until:
                in_flight.append((free_at, fg_size))
                backlog += fg_size
            exits.append(free_at + prop)
        fwd_pkts = j - ci0 + nfg
    else:
        # Drop-tail decisions replay in merge order: the backlog each
        # arrival tests is the one send() would compute at that instant.
        ts = times[ci:j].tolist()
        ss = sizes[ci:j].tolist()
        cn = len(ts)
        p = 0
        fwd_bytes = fwd_pkts = drop_bytes = drop_pkts = 0
        k = 0
        accepts = []
        while True:
            stop = fg[k] if k < nfg else until
            while p < cn:
                t = ts[p]
                if t > stop:
                    break
                size = ss[p]
                while in_flight and in_flight[0][0] <= t:
                    backlog -= in_flight.popleft()[1]
                if backlog + size > buffer_bytes:
                    drop_bytes += size
                    drop_pkts += 1
                else:
                    start = free_at if free_at > t else t
                    free_at = start + size * 8.0 / cap
                    in_flight.append((free_at, size))
                    backlog += size
                    fwd_bytes += size
                    fwd_pkts += 1
                p += 1
            if k == nfg:
                break
            while in_flight and in_flight[0][0] <= stop:
                backlog -= in_flight.popleft()[1]
            if backlog + fg_size > buffer_bytes:
                drop_bytes += fg_size
                drop_pkts += 1
                accepts.append(False)
                exits.append(0.0)
            else:
                start = free_at if free_at > stop else stop
                free_at = start + fg_size * 8.0 / cap
                in_flight.append((free_at, fg_size))
                backlog += fg_size
                fwd_bytes += fg_size
                fwd_pkts += 1
                accepts.append(True)
                exits.append(free_at + prop)
            k += 1
    while in_flight and in_flight[0][0] <= until:
        backlog -= in_flight.popleft()[1]
    return (
        j, free_at, backlog, fwd_bytes, fwd_pkts, drop_bytes, drop_pkts, exits, accepts
    )


def fold_link(link, until, fg=(), fg_size=0, prop=0.0):
    """Fold ``link``'s cross arrivals up to ``until`` (inclusive), merged
    with foreground arrivals ``fg`` of ``fg_size`` bytes each, into its
    live state; return ``(exits, accepts)`` as :func:`fold` does with
    propagation delay ``prop``.

    The aggregator's merged coverage is pulled up to ``until`` first
    (:meth:`~repro.netsim.bulkarrivals.CrossAggregator.extend_until`).
    The fold runs from the cursor ``idx``; the cursor, ``_free_at`` and
    ``_backlog_bytes`` are written back, and every byte and packet
    forwarded or dropped, cross and foreground, is counted in the link's
    :class:`~repro.netsim.link.LinkStats`.  With no foreground and no
    cross arrival due, nothing is folded.  Compacting the consumed
    prefix is left to the caller: the walk must not shift the indices
    its shadow check replays.
    """
    agg = link._agg
    times, sizes = _NO_TIMES, _NO_SIZES
    marks = None
    ci = 0
    if agg is not None:
        if agg._horizon < until:
            agg.extend_until(until)
        times = agg.times
        sizes = agg.sizes
        marks = agg.marks
        ci = agg.idx
    if not fg and (ci >= len(times) or times[ci] > until):
        return (), None
    (
        ci, link._free_at, link._backlog_bytes,
        fwd_bytes, fwd_pkts, drop_bytes, drop_pkts, exits, accepts,
    ) = fold(
        times, sizes, ci, until, link._free_at, link._backlog_bytes,
        link._in_flight, link.capacity_bps, link.buffer_bytes, fg, fg_size, marks,
        prop,
    )
    if agg is not None:
        agg.idx = ci
    stats = link._stats
    stats.bytes_forwarded += fwd_bytes
    stats.packets_forwarded += fwd_pkts
    stats.bytes_dropped += drop_bytes
    stats.packets_dropped += drop_pkts
    return exits, accepts


def admit(link, t, size):
    """Admit one foreground arrival of ``size`` bytes at ``t`` into the live
    state of ``link``; return its transmission-complete time, or ``None``
    when drop-tail refuses it.

    Cross arrivals at or before ``t`` are folded first
    (:func:`fold_link`).  The call then updates ``_in_flight``,
    ``_free_at`` and ``_backlog_bytes`` and counts the arrival, forwarded
    or dropped, in the link's :class:`~repro.netsim.link.LinkStats` --
    exactly what ``Link.send()`` does, minus the packet, the delivery
    event and the per-packet hooks.
    """
    if link._agg is not None:
        fold_link(link, t)
    stats = link._stats
    infl = link._in_flight
    backlog = link._backlog_bytes
    while infl and infl[0][0] <= t:
        backlog -= infl.popleft()[1]
    buffer_bytes = link.buffer_bytes
    if buffer_bytes is not None and backlog + size > buffer_bytes:
        link._backlog_bytes = backlog
        stats.bytes_dropped += size
        stats.packets_dropped += 1
        return None
    free_at = link._free_at
    start = free_at if free_at > t else t
    done = start + size * 8.0 / link.capacity_bps
    infl.append((done, size))
    link._free_at = done
    link._backlog_bytes = backlog + size
    stats.bytes_forwarded += size
    stats.packets_forwarded += 1
    return done
