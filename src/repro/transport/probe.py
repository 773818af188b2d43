"""UDP probe endpoints over the simulated network.

This is the simulation-backed implementation of the pathload transport: a
sender process that injects a periodic stream of UDP packets (timestamping
each with the *sender host's clock*), a receiver that records arrivals with
*its* clock, and a completion/timeout protocol that ships the measurement
back to the sender over the reverse path — the role played by pathload's
TCP control connection.

Host imperfections are explicit and optional:

* :class:`SendJitter` models context switches at the sender — occasional
  one-sided delays added to a packet's transmission instant.  The sender
  timestamps the *actual* send time, so the receiver can detect rate
  deviations from the sender-stamp gaps, exactly as the real tool does.
* Sender/receiver clocks may be any :class:`~repro.netsim.clock.Clock`
  (offset, skew, noise); SLoPS verdicts must be invariant to offset and to
  realistic skew, and the test suite checks that.

A stream normally costs no event per packet: :func:`plan_stream` hands it
to the network's flow-transit walk (:mod:`repro.netsim.flowtransit`),
which carries it beside any planned TCP flow and any per-packet traffic
on the path, with the same sample path.  The channel sends per packet
only when it is disabled, when a clock draws from an RNG, or when a link
on the path has a qdisc, a drop hook or a rebound delivery callback.
Either way a stream is one :class:`_StreamRun`: it builds the stream's
packets, receives them, holds the walk's state while the walk carries
it, and triggers its ``completion`` event with the measurement.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left, bisect_right
from typing import Optional

import numpy as np

from ..core.pathload import PathloadController, PathloadReport
from ..core.probing import Idle, SendStream, StreamMeasurement, StreamSpec
from ..netsim.clock import Clock, PerfectClock
from ..netsim.engine import Event, Process, Simulator
from ..netsim.fastpath import resolve_fast
from ..netsim.packet import Packet, PacketKind
from ..netsim.path import PathNetwork
from ..netsim.flowtransit import plan_stream

__all__ = ["SendJitter", "ProbeChannel", "drive_controller", "run_pathload"]


class SendJitter:
    """Context-switch model: with probability ``prob`` per packet, the send
    is delayed by ``Uniform(0, max_delay)`` seconds (one-sided)."""

    def __init__(self, rng: np.random.Generator, prob: float = 0.0, max_delay: float = 0.0):
        if not 0 <= prob <= 1:
            raise ValueError(f"prob must be in [0,1], got {prob}")
        if not 0 <= max_delay < math.inf:
            raise ValueError(f"max_delay must be finite and >= 0, got {max_delay}")
        self.rng = rng
        self.prob = prob
        self.max_delay = max_delay

    def sample(self) -> float:
        """Extra delay for one packet send."""
        if self.prob <= 0 or self.max_delay <= 0:
            return 0.0
        if self.rng.random() >= self.prob:
            return 0.0
        return float(self.rng.uniform(0.0, self.max_delay))


class _StreamRun:
    """One probe stream, from its first send to its report (internal).

    The sender's schedule, the receiver's records and, while the
    flow-transit walk carries the stream (``walked``), the walk's state.
    The schedule is two arrays in send order, indexed by *schedule
    index*: ``times`` (float64 send times, all jitter drawn up front) and
    ``seqs`` (int64 sequence numbers; they differ from the schedule
    indices only under send jitter).  A batched stream keeps its pending
    hop arrivals in ``bt`` (times) and ``bi`` (schedule indices), one
    pair of lists per forward hop; hop 0 starts with the whole schedule.
    A stream the walk admits per packet has ``bt = bi = None``.  Each
    walk delivery appends its schedule index to ``idx`` and its time to
    ``rec_times``.  The records ``seq``, ``sender_stamp`` and
    ``recv_stamp`` are lists the per-packet receiver appends to, or the
    arrays :meth:`commit` gathers from the walk's deliveries.  ``closing`` is set once the walk has
    reached the stream-closing delivery and scheduled its
    :meth:`ProbeChannel._finalize`; the run keeps no reference to that
    event, which holds the run.
    """

    __slots__ = (
        "channel",
        "spec",
        "flow_id",
        "n",
        "size",
        "seq",
        "sender_stamp",
        "recv_stamp",
        "n_sent",
        "t_start",
        "done",
        "completion",
        "times",
        "seqs",
        "walked",
        "bt",
        "bi",
        "idx",
        "rec_times",
        "closing",
    )

    def __init__(self, channel: "ProbeChannel", spec: StreamSpec, flow_id: str):
        self.channel = channel
        self.spec = spec
        self.flow_id = flow_id
        self.n = spec.n_packets
        self.size = spec.packet_size
        #: received packets, in arrival order: what the measurement holds
        self.seq: list[int] = []
        self.sender_stamp: list[float] = []
        self.recv_stamp: list[float] = []
        self.n_sent = 0
        self.t_start = channel.sim.now
        #: finalized: later arrivals are stragglers, lost
        self.done = False
        #: triggers with the :class:`StreamMeasurement` once reported
        self.completion = channel.sim.event()
        #: send times and sequence numbers, in send order (``send_stream``)
        self.times = self.seqs = None
        self.walked = False
        self.bt = self.bi = None
        self.idx: list[int] = []
        self.rec_times: list[float] = []
        self.closing = False

    def packet(self, i: int) -> Packet:
        """The probe packet of schedule index ``i``, stamped by the
        sender's clock at its send time.  The per-packet sender builds it
        at exactly that instant, after scheduling its next send: an
        impure clock draws from its RNG on each read."""
        s = self.times.item(i)
        return Packet(
            self.size,
            flow_id=self.flow_id,
            seq=self.seqs.item(i),
            kind=PacketKind.PROBE,
            created_at=s,
            sender_stamp=self.channel.sender_clock.read(s),
        )

    def on_arrival(self, pkt: Packet) -> None:
        """Per-packet delivery of ``pkt`` at the receiver."""
        if self.done:
            return  # straggler after finalization: counted as lost
        channel = self.channel
        self.seq.append(pkt.seq)
        self.sender_stamp.append(pkt.sender_stamp)
        self.recv_stamp.append(channel.receiver_clock.read(channel.sim.now))
        if pkt.seq == self.n - 1:
            # FIFO path ⇒ the last packet is the last arrival.
            channel._finalize(self, True)

    def commit(self, limit: float, inclusive: bool) -> int:
        """Make the walk's deliveries with time up to ``limit`` the
        records, at finalize time or at a dissolve, so straggler
        accounting matches the per-packet path exactly; return how many
        there are.  It runs once, at whichever comes first, before any
        per-packet arrival.

        ``inclusive`` matches the per-packet event order at the boundary:
        the stream-closing arrival commits itself (<=), while the
        deadline event — inserted at stream start, hence popped first on
        an exact tie — cuts strictly (<).  Each record is one gather by
        the delivered schedule indices, and each host clock is read once
        on an array: the walk only carries pure clocks, whose ``read`` is
        elementwise.
        """
        times = self.rec_times
        if inclusive:
            q = bisect_right(times, limit)
        else:
            q = bisect_left(times, limit)
        ix = np.array(self.idx[:q], dtype=np.int64)
        channel = self.channel
        self.seq = self.seqs[ix]
        self.sender_stamp = channel.sender_clock.read(self.times[ix])
        self.recv_stamp = channel.receiver_clock.read(np.array(times[:q]))
        return q


class ProbeChannel:
    """Sender/receiver pair for periodic UDP probe streams.

    Parameters
    ----------
    network:
        The path to probe (forward direction).
    sender_clock / receiver_clock:
        Host clocks used for timestamps; default perfect clocks.
    jitter:
        Optional :class:`SendJitter` applied to each packet send.
    control_delay:
        Latency for the receiver's measurement report to reach the sender;
        defaults to half the path's queueing-free RTT.
    fast:
        Whether eligible streams ride the network's event-elided walk
        (:mod:`repro.netsim.flowtransit`) instead of costing one event
        per packet per hop, with bit-identical results.
        ``None`` (default) enables it unless the ``REPRO_NO_FAST``
        environment variable is set.
    """

    def __init__(
        self,
        sim: Simulator,
        network: PathNetwork,
        sender_clock: Optional[Clock] = None,
        receiver_clock: Optional[Clock] = None,
        jitter: Optional[SendJitter] = None,
        control_delay: Optional[float] = None,
        fast: Optional[bool] = None,
    ):
        self.sim = sim
        self.network = network
        self.sender_clock = sender_clock if sender_clock is not None else PerfectClock()
        self.receiver_clock = (
            receiver_clock if receiver_clock is not None else PerfectClock()
        )
        if control_delay is not None and not 0 <= control_delay < math.inf:
            raise ValueError(
                f"control_delay must be None or finite and >= 0, got {control_delay}"
            )
        self.jitter = jitter
        self.control_delay = (
            control_delay if control_delay is not None else network.min_rtt() / 2.0
        )
        self.fast = resolve_fast(fast)
        #: cumulative probe traffic accounting (intrusiveness studies)
        self.packets_sent = 0
        self.bytes_sent = 0
        #: streams carried by the analytic fast path / per-packet fallbacks
        self.fastpath_streams = 0
        self.fastpath_fallbacks: dict[str, int] = {}
        # Cached tracer: the nil path costs one None-check per stream.
        self._tracer = sim.tracer
        # Per-channel stream ids: flow labels (and hence trace tracks) are
        # reproducible run-to-run instead of leaking a process-global count.
        self._stream_ids = itertools.count()

    # ------------------------------------------------------------------
    # Stream transmission
    # ------------------------------------------------------------------
    def send_stream(self, spec: StreamSpec) -> Event:
        """Send one periodic stream; the returned event triggers with its
        :class:`StreamMeasurement` once the receiver's report is back."""
        run = _StreamRun(self, spec, f"probe-{next(self._stream_ids)}")
        t0 = run.t_start
        if self._tracer is not None:
            self._tracer.instant(
                t0,
                "stream",
                "send",
                track=run.flow_id,
                args={
                    "rate_bps": spec.rate_bps,
                    "n_packets": spec.n_packets,
                    "packet_size": spec.packet_size,
                    "period": spec.period,
                },
            )
        # Packet seq is sent at t0 + seq * period, the same two float
        # operations per element as in Python.  All context-switch jitter
        # is drawn up front, in sequence order — exactly the draws (and
        # draw order) the K-upfront-events scheduler made — and the send
        # order is the (time, seq) order the event heap would have
        # popped: a stable sort by time keeps tied packets in seq order.
        seqs = np.arange(spec.n_packets)
        times = t0 + seqs * spec.period
        jitter = self.jitter
        if jitter is not None:
            times += np.array([jitter.sample() for _ in range(spec.n_packets)])
            seqs = np.argsort(times, kind="stable")
            times = times[seqs]
        run.times = times
        run.seqs = seqs
        if self.fast:
            reason = plan_stream(run)
            if reason is not None:
                self._note_fallback(reason)
            else:
                self.fastpath_streams += 1
                if self._tracer is not None:
                    self._tracer.metrics.counter(
                        "repro_fastpath_streams_total",
                        help="probe streams carried by the analytic "
                        "stream-transit fast path",
                    ).inc()
        else:
            self._note_fallback("disabled")
        if self._tracer is not None:
            self._tracer.metrics.counter(
                "repro_probe_packets_total",
                labels={"path": "elided" if run.walked else "per-packet"},
                help="probe packets by transit path at send time",
            ).inc(spec.n_packets)
        if not run.walked:
            # Per-packet path: one self-rescheduling sender callback — a
            # single outstanding heap entry per in-flight stream, not K.
            self.sim.schedule_at(times.item(0), self._send_next, run, 0)
        # Deadline: everything should have drained well before
        # last send + slack; stragglers after it count as lost.
        slack = (
            2.0 * self.network.min_rtt(spec.packet_size)
            + spec.n_packets * spec.packet_size * 8.0 / self.network.capacity_bps
            + 0.05
        )
        self.sim.schedule_at(t0 + spec.duration + slack, self._finalize, run, False)
        return run.completion

    def _send_next(self, run: _StreamRun, i: int) -> None:
        j = i + 1
        if j < run.n:
            # Reschedule before injecting: send events then sort ahead of
            # same-instant delivery events, as the K-upfront order did.
            self.sim.schedule_at(run.times.item(j), self._send_next, run, j)
        pkt = run.packet(i)
        run.n_sent += 1
        self.packets_sent += 1
        self.bytes_sent += pkt.size
        self.network.send_forward(pkt, run.on_arrival)

    def _note_fallback(self, reason: str) -> None:
        """Count one per-packet fallback, by reason."""
        counts = self.fastpath_fallbacks
        counts[reason] = counts.get(reason, 0) + 1
        if self._tracer is not None:
            self._tracer.metrics.counter(
                "repro_fastpath_fallback_total",
                labels={"reason": reason},
                help="probe streams that took the per-packet path, by reason",
            ).inc()

    def _finalize(self, run: _StreamRun, inclusive: bool) -> None:
        """Close ``run`` and report its measurement.

        Called by the stream-closing delivery (``inclusive``) or by the
        deadline.  A stream still in the walk first commits the deliveries
        up to now (:meth:`_StreamRun.commit`); later ones are stragglers,
        lost exactly as on the per-packet path.
        """
        if run.done:
            return
        if run.walked:
            run.commit(self.sim.now, inclusive)
            run.walked = False
        run.done = True
        measurement = StreamMeasurement(
            run.spec,
            n_sent=max(run.n_sent, run.n),
            t_start=run.t_start,
            seq=run.seq,
            sender_stamp=run.sender_stamp,
            recv_stamp=run.recv_stamp,
        )
        # The receiver reports back over the (uncongested) reverse path.
        report_at = self.sim.now + self.control_delay
        measurement.t_end = report_at
        if self._tracer is not None:
            self._tracer.span(
                run.t_start,
                report_at,
                "stream",
                "stream",
                track=run.flow_id,
                args={
                    "rate_bps": run.spec.rate_bps,
                    "n_sent": measurement.n_sent,
                    "n_received": measurement.n_received,
                },
            )
        self.sim.schedule_at(report_at, run.completion.trigger, measurement)


# ----------------------------------------------------------------------
# Controller driving
# ----------------------------------------------------------------------
def drive_controller(
    sim: Simulator, controller: PathloadController, channel: ProbeChannel
) -> Process:
    """Run a pathload controller as a simulation process.

    The returned process's ``done_event`` triggers with the final
    :class:`~repro.core.pathload.PathloadReport`.
    """

    def _proc():
        gen = controller.run()
        try:
            action = next(gen)
            while True:
                if isinstance(action, SendStream):
                    measurement = yield channel.send_stream(action.spec)
                    action = gen.send(measurement)
                elif isinstance(action, Idle):
                    if action.duration > 0:
                        yield action.duration
                    action = gen.send(None)
                else:  # pragma: no cover - controller contract guard
                    raise TypeError(f"unexpected controller action {action!r}")
        except StopIteration as stop:
            return stop.value

    return sim.process(_proc(), name="pathload-driver")


def run_pathload(
    sim: Simulator,
    network: PathNetwork,
    config=None,
    rtt: Optional[float] = None,
    start: float = 0.0,
    channel: Optional[ProbeChannel] = None,
    time_limit: Optional[float] = None,
    fast: Optional[bool] = None,
) -> PathloadReport:
    """Convenience wrapper: start pathload at ``start`` and run the
    simulation until it reports.

    Other simulation activity (cross traffic, monitors) proceeds normally
    while the measurement runs.  ``time_limit`` guards against a
    non-converging setup in tests.
    """
    if channel is None:
        channel = ProbeChannel(sim, network, fast=fast)
    controller = PathloadController(
        config=config,
        rtt=rtt if rtt is not None else network.min_rtt(),
        tracer=sim.tracer,
    )
    holder: dict = {}

    def _kickoff() -> None:
        holder["process"] = drive_controller(sim, controller, channel)

    sim.schedule_at(start, _kickoff)
    sim.run(until=start)
    process: Process = holder["process"]
    return sim.run_until(process.done_event, limit=time_limit)
