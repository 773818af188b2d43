"""Event-elided probe streams: analytic stream transit for SLoPS.

PR 4 removed per-packet events for background cross traffic; after it, the
event budget of every pathload experiment is dominated by the foreground
probe streams themselves — K send events plus K x H per-hop delivery
events per stream.  The paper's path model makes those elidable too: a
periodic stream through FIFO store-and-forward hops (Section III-A) is a
per-hop Lindley recursion

    start_i = max(arrival_i, free_at);  done_i = start_i + size*8/C

against a cross-traffic arrival sequence that the link's
:class:`~repro.netsim.bulkarrivals.CrossAggregator` already holds as
sorted arrays.  :func:`plan_stream` therefore walks the whole stream
analytically at send time — one :func:`~repro.netsim.hopfold.fold` call
per hop merges the K probe arrivals with that hop's cross arrivals in
timestamp order and replays drop-tail decisions exactly as
:meth:`Link.sync` would — and schedules **one** simulator event (the
delivery of the stream-closing packet) instead of ~K x (H+1).

Determinism contract
--------------------
Every observable is bit-identical to the per-packet path: the fold uses
the same floating-point expressions in the same order as
``Link.send()``, planned admissions are folded into link
state lazily through per-hop :class:`HopAgenda` queues (so ``LinkStats``
and monitor samples agree at every read instant), and clock/jitter RNG
draw *order* is unchanged.  Engine digests are reproducible within a
mode; across modes they necessarily differ (events are elided), exactly
as for PR 4's bulk cross traffic.  See ``docs/performance.md``.

Fallback
--------
Planning is refused (per-packet path, same sample path) when a hop has a
qdisc/drop hook/rebound delivery callback, when a clock carries an RNG
(draw timing would move), or when any per-packet foreground participant
has claimed the network (TCP, ping, per-packet cross traffic, another
in-flight per-packet stream).  If eligibility breaks *mid-stream* — any
foreign ``Link.send()`` on a planned hop, a source registration, or a
link decommission — the plan is revoked: folded state is kept, unfolded
planned admissions are discarded, and the remaining packets re-enter the
ordinary per-packet machinery at exactly the times and values the plan
had computed, so the sample path is identical to a never-planned run.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, bisect_right
from collections import deque
from typing import TYPE_CHECKING, Optional

from ..core.probing import PacketRecord
from .engine import SimulationError
from .hopfold import fold
from .packet import Packet, PacketKind

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from ..transport.probe import ProbeChannel, _StreamRun

__all__ = [
    "HopAgenda",
    "StreamPlan",
    "STREAM_FALLBACK_REASONS",
    "plan_stream",
]

#: Every reason ``repro_fastpath_fallback_total`` may carry — plan-time
#: refusals plus mid-flight revocations — for declared-but-zero metric
#: export (docs/observability.md).  "tracer" is inherited from a
#: flow-transit dissolve that rewinds adopted streams.
STREAM_FALLBACK_REASONS: tuple[str, ...] = (
    "disabled",
    "foreground-active",
    "impure-clock",
    "link-config",
    "foreign-send",
    "link-decommission",
    "stream-overlap",
    "tracer",
)

_INF = float("inf")


class HopAgenda:
    """One hop's queue of planned (not yet folded) probe admissions.

    ``times`` holds the stream's arrival times at this hop in admission
    order, ``accepts`` the replayed drop-tail verdicts (``None`` when
    every admission was accepted), ``dones`` the transmission-complete
    times (the hop's ``_free_at`` after each accepted admission), and
    ``_exit_t``/``_exit_i`` the hop-exit times and schedule indices of
    accepted admissions -- which are also the next hop's arrival list.
    ``idx`` is the fold cursor, advanced by :meth:`Link._sync_fg` exactly
    as the aggregator's ``idx`` is for cross traffic.  Only planned probe
    streams use agendas: they admit ahead of real time, while the
    flow-transit walk admits into live link state.

    The ``end_*``/``d_*`` fields snapshot the hop's queue state and stats
    deltas at ``t_end`` (the last planned admission): when the first fold
    happens at or after ``t_end`` — the common case, since anything
    arriving mid-stream revokes or advances the cursors — ``Link.sync``
    applies them wholesale instead of replaying the walk.
    """

    __slots__ = (
        "link",
        "times",
        "accepts",
        "dones",
        "_exit_pairs",
        "_exit_t",
        "_exit_i",
        "size",
        "proto",
        "plan",
        "idx",
        "t_end",
        "ci_start",
        "ci_end",
        "end_free_at",
        "end_backlog",
        "end_in_flight",
        "d_fwd_bytes",
        "d_fwd_pkts",
        "d_drop_bytes",
        "d_drop_pkts",
    )

    def __init__(self, link, times, accepts, dones, exit_t, exit_i, size, proto, plan):
        self.link = link
        self.times = times
        self.accepts = accepts
        self.dones = dones
        # The tupled ``exit_pairs`` view is zipped only if a replay path
        # (revocation, the sanitize shadow) reads it.
        self._exit_pairs = None
        self._exit_t = exit_t
        self._exit_i = exit_i
        self.size = size
        self.proto = proto  # template Packet for fold-time drop tracing
        self.plan = plan
        self.idx = 0

    @property
    def exit_pairs(self):
        p = self._exit_pairs
        if p is None:
            p = self._exit_pairs = list(zip(self._exit_t, self._exit_i))
        return p


class StreamPlan:
    """The fully computed transit of one probe stream.

    Holds per-packet traversal data (exit time per hop, drop hop),
    per-hop agendas installed on the links, and the precomputed
    :class:`PacketRecord` list in arrival order.  Records are *committed*
    into the live ``_StreamRun`` at finalize time (or at revocation), so
    straggler accounting matches the per-packet path exactly.
    """

    __slots__ = (
        "channel",
        "run",
        "done_event",
        "network",
        "links",
        "sched",
        "drop_hop",
        "agendas",
        "records",
        "rec_times",
        "size",
        "_committed",
        "commit_closed",
        "complete_call",
        "revoked",
    )

    def __init__(self, channel, run, done_event):
        self.channel = channel
        self.run = run
        self.done_event = done_event
        self.network = channel.network
        self.links = channel.network.forward_links
        self.sched = run.schedule
        self.drop_hop = [-1] * len(run.schedule)
        self.agendas: list[HopAgenda] = []
        self.records: list = []
        self.rec_times: list[float] = []
        self.size = run.spec.packet_size
        self._committed = 0
        self.commit_closed = False
        self.complete_call = None
        self.revoked = False

    # ------------------------------------------------------------------
    # Record commitment (finalize / straggler semantics)
    # ------------------------------------------------------------------
    def commit(self, limit: float, inclusive: bool) -> None:
        """Append planned records with delivery time up to ``limit``.

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
            self.run.records.extend(self.records[p:q])
            self._committed = q

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def retire_or_revoke(self, reason: str = "stream-overlap") -> None:
        """Fold everything due; revert any future stragglers to per-packet.

        Called when a new stream starts planning while this plan is still
        installed (``reason="stream-overlap"``), or when a TCP flow is
        about to attach to the flow-transit domain (``"foreign-send"`` —
        the flow's first per-packet segment would have revoked the plan
        under that name anyway).  If every planned admission has already
        happened the plan simply detaches; otherwise the straggling
        packets are handed back to the event-driven path.
        """
        pending = False
        for agenda in self.agendas:
            link = agenda.link
            if link._agenda is agenda:
                link.sync()  # folds due entries; clears agenda if exhausted
                if link._agenda is agenda:
                    pending = True
        if pending:
            self.revoke(reason)
        else:
            self.revoked = True
            if self.network._plan is self:
                self.network._plan = None

    def revoke(self, reason: str) -> None:
        """Mid-stream fallback: discard the unfolded future, replay it live.

        Folds every planned hop to ``now``, strips the agendas, commits
        records already delivered, and re-enters the per-packet machinery
        for the rest: the unsent suffix resumes the self-rescheduling
        sender at its precomputed send times (jitter draws are *not*
        repeated), and each in-flight packet gets one continuation event
        at its committed transmission-exit time.  The resulting sample
        path is identical to a run that never planned.
        """
        if self.revoked:
            return
        self.revoked = True
        channel = self.channel
        network = self.network
        if network._plan is self:
            network._plan = None
        sim = channel.sim
        t_rev = sim.now
        for agenda in self.agendas:
            link = agenda.link
            if link._agenda is agenda:
                link.sync()
                link._agenda = None
        if self.complete_call is not None:
            self.complete_call.cancel()
            self.complete_call = None
        run = self.run
        done = self.done_event
        run.plan = None
        if not self.commit_closed:
            self.commit(t_rev, inclusive=True)
            self.commit_closed = True
        if not run.done:
            # Post-finalize revocations (straggler drain under a newly
            # starting flow) are not fallbacks: the stream completed fast.
            channel._note_fallback(reason)
        sched = self.sched
        n = len(sched)
        # Unsent suffix (send times are sorted, so it is a suffix).
        i0 = n
        for i in range(n):
            if sched[i][0] > t_rev:
                i0 = i
                break
        if i0 < n:
            unsent = n - i0
            run.n_sent -= unsent
            channel.packets_sent -= unsent
            channel.bytes_sent -= unsent * self.size
            sim.schedule_at(sched[i0][0], channel._send_next, run, i0, done)
        if not run.done and not run.claimed:
            run.claimed = True
            network.claim_per_packet()
        # In-flight continuations: one event at the committed hop exit.
        # Per-packet exit times are rebuilt from the per-hop exit pair
        # lists — revocation is rare, the planning hot path stores none.
        exit_maps = [{i: x for x, i in ag.exit_pairs} for ag in self.agendas]
        n_hops = len(self.links)
        for i in range(i0):
            placed = False
            dropped = False
            h = -1
            for h, m in enumerate(exit_maps):
                x = m.get(i)
                if x is None:
                    dropped = True  # dropped entering this hop
                    break
                if x > t_rev:
                    sim.schedule_at(
                        x, channel._replay_exit, run, sched[i][0], sched[i][1], h, done
                    )
                    placed = True
                    break
            if placed:
                continue
            # All committed exits are in the past: the packet was either
            # delivered (record committed above) or dropped at a hop whose
            # arrival has also been folded — nothing left to replay.
            assert dropped or h == len(exit_maps) - 1 == n_hops - 1


def _impure(clock) -> bool:
    """A clock that consumes an RNG per read cannot be batch-read."""
    return (
        getattr(clock, "_rng", None) is not None
        or getattr(clock, "rng", None) is not None
    )


def plan_stream(
    channel: "ProbeChannel", run: "_StreamRun", done_event
) -> tuple[Optional[StreamPlan], Optional[str]]:
    """Attempt to plan ``run`` analytically; return ``(plan, reason)``.

    On success the plan is installed (agendas on every traversed hop, the
    single completion event scheduled) and ``(plan, None)`` is returned.
    On refusal returns ``(None, reason)`` and the caller takes the
    per-packet path; the sample path is identical either way.
    """
    network = channel.network
    domain = getattr(network, "_flow_domain", None)
    if domain is not None and domain.alive:
        # A flow-transit domain plans this network's hops: probe streams
        # are adopted into its virtual walk instead of planning solo, so
        # a *planned* foreground flow no longer forces the per-packet path.
        return domain.adopt_stream(channel, run, done_event)
    prev = network._plan
    if prev is not None:
        prev.retire_or_revoke()
    if network._pp_claims > 0:
        return None, "foreground-active"
    if _impure(channel.sender_clock) or _impure(channel.receiver_clock):
        return None, "impure-clock"
    links = network.forward_links
    advance = network._advance
    for link in links:
        if link._deliver != advance or link._qdisc is not None or link._drop_hook is not None:
            return None, "link-config"

    sim = channel.sim
    spec = run.spec
    size = spec.packet_size
    sched = run.schedule
    plan = StreamPlan(channel, run, done_event)
    drop_hop = plan.drop_hop

    # Arrival times and schedule indices in admission order, as parallel
    # lists (the hop fold consumes bare times, and the index list passes
    # through infinite-buffer hops untouched).
    # Positional indices, not seqs: jitter can reorder sends, and
    # ``drop_hop``/``sched``/record pairing are all indexed by schedule
    # position.
    cur_t = [t for t, _seq in sched]
    cur_i = list(range(len(sched)))
    for h, link in enumerate(links):
        if not cur_t:
            break
        agg = link._agg
        t_end = cur_t[-1]
        if agg is not None:
            agg.extend_until(t_end)
            c_times = agg.times
            c_sizes = agg.sizes
            ci = agg.idx
        else:
            c_times = c_sizes = ()
            ci = 0
        # A copy: the plan must not touch link state.
        in_flight = deque(link._in_flight)
        (
            ci_end, free_at, end_backlog, fwd_bytes, fwd_pkts,
            drop_bytes, drop_pkts, a_dones, a_accepts,
        ) = fold(
            c_times, c_sizes, ci, t_end, link._free_at, link._backlog_bytes,
            in_flight, link.capacity_bps, link._cap_sched, link.buffer_bytes,
            cur_t, size,
        )
        prop = link.prop_delay
        if a_accepts is None:
            # Infinite buffer: every probe passes, so the index list
            # passes through untouched.
            nxt_t = [done_t + prop for done_t in a_dones]
            nxt_i = cur_i
        else:
            nxt_t = []
            nxt_i = []
            for done_t, ok, i in zip(a_dones, a_accepts, cur_i):
                if ok:
                    nxt_t.append(done_t + prop)
                    nxt_i.append(i)
                else:
                    drop_hop[i] = h
        proto = Packet(size, flow_id=run.flow_id, kind=PacketKind.PROBE)
        agenda = HopAgenda(
            link, cur_t, a_accepts, a_dones, nxt_t, nxt_i, size, proto, plan
        )
        agenda.t_end = t_end
        agenda.ci_start = ci
        agenda.ci_end = ci_end
        agenda.end_free_at = free_at
        agenda.end_backlog = end_backlog
        agenda.end_in_flight = tuple(in_flight)
        agenda.d_fwd_bytes = fwd_bytes
        agenda.d_fwd_pkts = fwd_pkts
        agenda.d_drop_bytes = drop_bytes
        agenda.d_drop_pkts = drop_pkts
        plan.agendas.append(agenda)
        cur_t = nxt_t
        cur_i = nxt_i

    # Receiver records, in arrival order (clocks are pure: read order is
    # observationally identical to the per-packet interleaving).
    sender_read = channel.sender_clock.read
    receiver_read = channel.receiver_clock.read
    rec_append = plan.records.append
    rt_append = plan.rec_times.append
    last = len(sched) - 1
    complete_at = None
    for x, i in zip(cur_t, cur_i):
        s, seq = sched[i]
        rec_append(
            PacketRecord(
                seq=seq,
                sender_stamp=sender_read(s),
                recv_stamp=receiver_read(x),
            )
        )
        rt_append(x)
        if seq == last:
            complete_at = x

    if sim.sanitizing and not channel._shadow_checked:
        channel._shadow_checked = True
        _shadow_verify(channel, plan)

    # Install: lazy-fold agendas plus the one completion event (delivery
    # of seq K-1, which is what triggers per-packet finalization).  If
    # seq K-1 was dropped the pre-scheduled deadline finalizes instead.
    if complete_at is not None:
        plan.complete_call = sim.schedule_at(
            complete_at, channel._fast_complete, run, done_event
        )
    network._plan = plan
    for agenda in plan.agendas:
        agenda.link._agenda = agenda
    run.plan = plan
    run.n_sent = spec.n_packets
    channel.packets_sent += spec.n_packets
    channel.bytes_sent += spec.n_packets * size
    return plan, None


# ----------------------------------------------------------------------
# Sanitize-mode shadow verification
# ----------------------------------------------------------------------
def _shadow_verify(channel: "ProbeChannel", plan: StreamPlan) -> None:
    """Re-derive one planned stream with an independent per-packet
    recursion and raise :class:`SimulationError` on any divergence.

    Runs once per channel under ``Simulator(sanitize=True)``.  The shadow
    deliberately avoids the planner's merged-walk structure: it builds an
    explicit tagged event list per hop with :func:`heapq.merge` and
    processes it sequentially, so a bug in the shared hop fold cannot
    hide in its own mirror image.
    """
    links = plan.links
    sched = plan.sched
    size = plan.size
    arrivals = [(t, i) for i, (t, _seq) in enumerate(sched)]
    deliveries: list[tuple[float, int]] = []
    for h, link in enumerate(links):
        if not arrivals:
            break
        agg = link._agg
        if agg is not None:
            cross = zip(agg.times[agg.idx:], agg.sizes[agg.idx:])
        else:
            cross = ()
        horizon = arrivals[-1][0]
        tagged_cross = ((t, 0, None, s) for t, s in cross if t <= horizon)
        tagged_probe = ((t, 1, i, size) for t, i in arrivals)
        free_at = link._free_at
        backlog = link._backlog_bytes
        in_flight = deque(link._in_flight)
        cap = link.capacity_bps
        cap_sched = link._cap_sched
        buffer_bytes = link.buffer_bytes
        exit_map = {i: x for x, i in plan.agendas[h].exit_pairs}
        out: list[tuple[float, int]] = []
        for t, _tag, i, sz in heapq.merge(tagged_cross, tagged_probe):
            while in_flight and in_flight[0][0] <= t:
                backlog -= in_flight.popleft()[1]
            if buffer_bytes is not None and backlog + sz > buffer_bytes:
                if i is not None and plan.drop_hop[i] != h:
                    raise SimulationError(
                        f"stream-transit shadow check: hop {h} dropped probe "
                        f"{i} but the plan accepted it"
                    )
                continue
            start = free_at if free_at > t else t
            if cap_sched is not None:
                cap = cap_sched[1][bisect_right(cap_sched[0], start)]
            free_at = start + sz * 8.0 / cap
            in_flight.append((free_at, sz))
            backlog += sz
            if i is not None:
                if plan.drop_hop[i] == h:
                    raise SimulationError(
                        f"stream-transit shadow check: hop {h} accepted probe "
                        f"{i} but the plan dropped it"
                    )
                x = free_at + link.prop_delay
                planned = exit_map.get(i)
                if planned != x:
                    raise SimulationError(
                        f"stream-transit shadow check: hop {h} probe {i} exit "
                        f"{x!r} != planned {planned!r}"
                    )
                out.append((x, i))
        arrivals = out
    deliveries = arrivals
    if len(deliveries) != len(plan.records):
        raise SimulationError(
            f"stream-transit shadow check: {len(deliveries)} deliveries "
            f"!= {len(plan.records)} planned records"
        )
