"""The FIFO hop recursion, written once for every event-elided path.

The paper's path model (Section III-A) is a chain of FIFO
store-and-forward hops.  A hop serves each arrival at ``start =
max(arrival, free_at)`` and is free again at ``start + size*8/C``, where
``C`` is the rate in force at ``start`` (the link's fixed capacity, or
its piecewise-constant schedule, :meth:`Link.set_capacity_segments`).  A
finite drop-tail buffer refuses an arrival that would push the backlog
(bytes queued or in transmission) past the buffer size.

Two entry points carry that recursion for the event-elided paths:

* :func:`fold` walks a slice of a link's cross-traffic arrivals, merged
  with an optional sorted foreground sequence.  ``Link.sync`` folds
  cross traffic alone; the flow-transit walk passes a batched probe
  stream's arrivals at each hop, once per round.
* :func:`admit` is the same step for one foreground arrival.  The walk
  needs it for TCP and for streams that share it: acks and cwnd changes
  come between their admissions, so there is no slice to hand over.

Both apply to a live :class:`~repro.netsim.link.Link`: the walk never
runs ahead of a real reader, so its admissions go straight into the
link's state.  ``Link.send()`` keeps its own copy, because it is the
per-packet reference every equality suite compares against.  So does
the sanitize shadow (``FlowTransitDomain._verify_round``), so that a bug
here cannot hide in its own mirror image.

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
"""

from __future__ import annotations

from bisect import bisect_right

__all__ = ["admit", "fold"]


def fold(
    times, sizes, ci, until, free_at, backlog, in_flight, cap, sched, buffer_bytes,
    fg=(), fg_size=0,
):
    """Fold cross arrivals ``times[ci:]``/``sizes[ci:]`` up to ``until``
    (inclusive), merged with foreground arrivals ``fg`` of ``fg_size``
    bytes each.

    ``fg`` is sorted, and its last entry is at or before ``until``.
    ``cap`` is the fixed rate and ``sched`` the link's ``(boundaries,
    rates)`` schedule or ``None``; ``buffer_bytes`` is ``None`` for an
    infinite buffer.  Returns ``(ci, free_at, backlog, fwd_bytes,
    fwd_pkts, drop_bytes, drop_pkts, dones, accepts)``: the new cursor,
    the hop state at ``until`` (``in_flight`` already purged to it), the
    bytes and packets this call forwarded and dropped, cross and
    foreground together, each foreground entry's transmission-complete
    time (0.0 when dropped), and its verdicts (``None`` for an infinite
    buffer, which accepts every entry).
    """
    cn = len(times)
    nfg = len(fg)
    fwd_bytes = fwd_pkts = drop_bytes = drop_pkts = 0
    dones: list[float] = []
    k = 0
    if buffer_bytes is None:
        accepts = None
        while True:
            stop = fg[k] if k < nfg else until
            while ci < cn:
                t = times[ci]
                if t > stop:
                    break
                size = sizes[ci]
                start = free_at if free_at > t else t
                free_at = start + size * 8.0 / (
                    cap if sched is None else sched[1][bisect_right(sched[0], start)]
                )
                fwd_bytes += size
                fwd_pkts += 1
                if free_at > until:
                    in_flight.append((free_at, size))
                    backlog += size
                ci += 1
            if k == nfg:
                break
            start = free_at if free_at > stop else stop
            free_at = start + fg_size * 8.0 / (
                cap if sched is None else sched[1][bisect_right(sched[0], start)]
            )
            if free_at > until:
                in_flight.append((free_at, fg_size))
                backlog += fg_size
            dones.append(free_at)
            k += 1
        fwd_bytes += fg_size * nfg
        fwd_pkts += nfg
    else:
        # Drop-tail decisions replay in merge order: the backlog each
        # arrival tests is the one send() would compute at that instant.
        accepts = []
        while True:
            stop = fg[k] if k < nfg else until
            while ci < cn:
                t = times[ci]
                if t > stop:
                    break
                size = sizes[ci]
                while in_flight and in_flight[0][0] <= t:
                    backlog -= in_flight.popleft()[1]
                if backlog + size > buffer_bytes:
                    drop_bytes += size
                    drop_pkts += 1
                else:
                    start = free_at if free_at > t else t
                    free_at = start + size * 8.0 / (
                        cap if sched is None else sched[1][bisect_right(sched[0], start)]
                    )
                    in_flight.append((free_at, size))
                    backlog += size
                    fwd_bytes += size
                    fwd_pkts += 1
                ci += 1
            if k == nfg:
                break
            while in_flight and in_flight[0][0] <= stop:
                backlog -= in_flight.popleft()[1]
            if backlog + fg_size > buffer_bytes:
                drop_bytes += fg_size
                drop_pkts += 1
                accepts.append(False)
                dones.append(0.0)
            else:
                start = free_at if free_at > stop else stop
                free_at = start + fg_size * 8.0 / (
                    cap if sched is None else sched[1][bisect_right(sched[0], start)]
                )
                in_flight.append((free_at, fg_size))
                backlog += fg_size
                fwd_bytes += fg_size
                fwd_pkts += 1
                accepts.append(True)
                dones.append(free_at)
            k += 1
    while in_flight and in_flight[0][0] <= until:
        backlog -= in_flight.popleft()[1]
    return (
        ci, free_at, backlog, fwd_bytes, fwd_pkts, drop_bytes, drop_pkts, dones, accepts
    )


def admit(link, t, size):
    """Admit one foreground arrival of ``size`` bytes at ``t`` into the live
    state of ``link``; return its transmission-complete time, or ``None``
    when drop-tail refuses it.

    Cross arrivals at or before ``t`` on the link's
    :class:`~repro.netsim.bulkarrivals.CrossAggregator` are folded first,
    from its cursor ``idx``.  The call then updates ``_in_flight``,
    ``_free_at`` and ``_backlog_bytes`` and counts every byte and packet
    it forwards or drops, cross and foreground, in the link's
    :class:`~repro.netsim.link.LinkStats` -- exactly what ``Link.send()``
    does, minus the packet, the delivery event and the per-packet hooks.
    """
    stats = link._stats
    agg = link._agg
    if agg is not None:
        if agg._horizon < t:
            agg.extend_until(t)
        times = agg.times
        ci = agg.idx
        if ci < len(times) and times[ci] <= t:
            (
                agg.idx, link._free_at, link._backlog_bytes,
                fwd_bytes, fwd_pkts, drop_bytes, drop_pkts, _, _,
            ) = fold(
                times, agg.sizes, ci, t, link._free_at, link._backlog_bytes,
                link._in_flight, link.capacity_bps, link._cap_sched,
                link.buffer_bytes,
            )
            stats.bytes_forwarded += fwd_bytes
            stats.packets_forwarded += fwd_pkts
            stats.bytes_dropped += drop_bytes
            stats.packets_dropped += drop_pkts
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
    sched = link._cap_sched
    done = start + size * 8.0 / (
        link.capacity_bps if sched is None else sched[1][bisect_right(sched[0], start)]
    )
    infl.append((done, size))
    link._free_at = done
    link._backlog_bytes = backlog + size
    stats.bytes_forwarded += size
    stats.packets_forwarded += 1
    return done
