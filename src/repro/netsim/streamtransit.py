"""Event-elided probe streams: SLoPS streams carried by the network's walk.

PR 4 removed per-packet events for background cross traffic; after it, the
event budget of every pathload experiment is dominated by the foreground
probe streams themselves — K send events plus K x H per-hop delivery
events per stream.  The paper's path model makes those elidable too: a
periodic stream through FIFO store-and-forward hops (Section III-A) is a
per-hop Lindley recursion

    start_i = max(arrival_i, free_at);  done_i = start_i + size*8/C

against a cross-traffic arrival sequence that the link's
:class:`~repro.netsim.bulkarrivals.CrossAggregator` already holds as
sorted arrays.

Every eligible stream rides the network's
:class:`~repro.netsim.flowtransit.FlowTransitDomain` walk, the same
virtual event loop that carries TCP flows: :func:`plan_stream` creates
the domain if the network has none and hands the stream to
:meth:`~repro.netsim.flowtransit.FlowTransitDomain.adopt_stream`.  The
walk admits into live link state and never runs past the next real
engine event, so a reader, a foreign send or a link change always finds
exactly the per-packet state, and nothing ever has to be taken back.  A
stream alone in its domain is *batched*: each round folds its arrivals
before the cap with one :func:`~repro.netsim.hopfold.fold` call per hop.
Any other stream is admitted per packet, interleaved with the flows.

Determinism contract
--------------------
Every observable is bit-identical to the per-packet path: the folds use
the same floating-point expressions in the same order as
``Link.send()``, ``LinkStats`` and monitor samples agree at every read
instant, and clock/jitter RNG draw *order* is unchanged.  Engine digests
are reproducible within a mode; across modes they necessarily differ
(events are elided), exactly as for PR 4's bulk cross traffic.  See
``docs/performance.md``.

Fallback
--------
A stream takes the per-packet path (same sample path) when the channel is
disabled, when a clock carries an RNG (draw timing would move), and —
only while the network has no walk yet — when a hop has a qdisc, drop
hook or rebound delivery callback, or a per-packet foreground participant
(TCP, ping, per-packet cross traffic or stream) has claimed the network.
A link decommission mid-stream dissolves the walk; the stream's
remaining packets continue per-packet at the times already computed.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import TYPE_CHECKING, Optional

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from ..transport.probe import ProbeChannel, _StreamRun

__all__ = [
    "StreamPlan",
    "STREAM_FALLBACK_REASONS",
    "plan_stream",
]

#: Every reason ``repro_fastpath_fallback_total`` may carry — refusals at
#: send time plus walk dissolves — for declared-but-zero metric export
#: (docs/observability.md).
STREAM_FALLBACK_REASONS: tuple[str, ...] = (
    "disabled",
    "foreground-active",
    "impure-clock",
    "link-config",
    "link-decommission",
    "tracer",
)


class StreamPlan:
    """The receiver side of one walk-carried probe stream.

    The walk appends each delivery's schedule index to ``idx`` and its
    time to ``rec_times``, in delivery order.  Deliveries are *committed*
    into the live ``_StreamRun`` at finalize time (or at a dissolve), so
    straggler accounting matches the per-packet path exactly.  A commit
    takes the slice's seq and send times from the run's schedule and reads
    each host clock once on the slice's array: the walk only carries pure
    clocks, whose ``read`` is elementwise.  ``complete_call`` is the real
    event of the stream-closing delivery once the walk has reached it.
    """

    __slots__ = (
        "run",
        "sender_read",
        "receiver_read",
        "idx",
        "rec_times",
        "_committed",
        "complete_call",
    )

    def __init__(self, run, sender_read, receiver_read):
        self.run = run
        self.sender_read = sender_read
        self.receiver_read = receiver_read
        self.idx: list[int] = []
        self.rec_times: list[float] = []
        self._committed = 0
        self.complete_call = None

    def commit(self, limit: float, inclusive: bool) -> None:
        """Append the deliveries with time up to ``limit`` to the run.

        ``inclusive`` matches the per-packet event order at the boundary:
        the stream-closing arrival commits itself (<=), while the
        deadline event — inserted at stream start, hence popped first on
        an exact tie — cuts strictly (<).
        """
        times = self.rec_times
        p = self._committed
        if inclusive:
            q = bisect_right(times, limit, p)
        else:
            q = bisect_left(times, limit, p)
        if q > p:
            run = self.run
            sched = run.schedule
            sent = [sched[i] for i in self.idx[p:q]]
            run.seq += [seq for _s, seq in sent]
            send_times = np.array([s for s, _seq in sent])
            run.sender_stamp += self.sender_read(send_times).tolist()
            run.recv_stamp += self.receiver_read(np.array(times[p:q])).tolist()
            self._committed = q

    def uncommitted(self):
        """``(schedule index, delivery time)`` of every delivery not yet
        committed."""
        p = self._committed
        return zip(self.idx[p:], self.rec_times[p:])


def _impure(clock) -> bool:
    """A clock that consumes an RNG per read cannot be batch-read."""
    return (
        getattr(clock, "_rng", None) is not None
        or getattr(clock, "rng", None) is not None
    )


def plan_stream(
    channel: "ProbeChannel", run: "_StreamRun", done_event
) -> tuple[Optional[StreamPlan], Optional[str]]:
    """Hand ``run`` to the network's walk; return ``(plan, reason)``.

    On success returns ``(plan, None)``; on refusal ``(None, reason)``,
    and the caller takes the per-packet path.  The sample path is
    identical either way.
    """
    network = channel.network
    domain = network._flow_domain
    if domain is None and network._pp_claims > 0:
        return None, "foreground-active"
    if _impure(channel.sender_clock) or _impure(channel.receiver_clock):
        return None, "impure-clock"
    if domain is None:
        advance = network._advance
        for link in network.forward_links:
            if link._deliver != advance or link._qdisc is not None or link._drop_hook is not None:
                return None, "link-config"
        # flowtransit imports this module (StreamPlan); resolved on first use.
        from .flowtransit import FlowTransitDomain

        domain = network._flow_domain = FlowTransitDomain(channel.sim, network)
    return domain.adopt_stream(channel, run, done_event)
