"""TCP with Reno/NewReno congestion control over the simulated network.

Section VII of the paper studies the relation between avail-bw and the
throughput of a *bulk transfer capacity* (BTC) connection: a persistent TCP
transfer limited only by the network.  This module provides the substrate
for that study, built from scratch:

* :class:`TCPSender` — slow start, congestion avoidance (AIMD), fast
  retransmit on three duplicate ACKs, NewReno fast recovery with partial-ACK
  retransmission, RTO with Karn's algorithm and exponential backoff
  (RFC 5681 / RFC 6582 / RFC 6298 semantics, segment-aligned).
* :class:`TCPReceiver` — cumulative ACKs with an out-of-order segment
  buffer, optional delayed ACKs.

Both endpoints are sans-IO.  Their methods take the time and plain ints
(``on_ack(t, ack)``, ``on_segment(t, seq, length)``), never a
:class:`~repro.netsim.packet.Packet`, and a timer callback receives its
deadline as the time.  All I/O goes through the connection's *port*: one
object per connection that sends a segment, sends an ACK, and arms,
restarts or cancels the RTO and delayed-ACK timers.  ``on_segment``
returns the ACK a segment calls for and its caller, the port's delivery
handler, sends it; only the delayed-ACK timer sends an ACK itself.
:class:`_PacketPort` here builds a ``Packet`` per segment and per ACK,
sends it through the network's links (one engine event per hop) and keeps
its timers as engine events.  The flow-transit walk
(:mod:`repro.netsim.flowtransit`) swaps in its own port, which admits
segments and ACKs straight into the hops with no engine event; the
congestion control is this module's code on both paths.  Queue-filling
behaviour — the part of TCP that Section VII's RTT measurements expose —
is faithfully produced: a drop-tail tight link fills until loss, the
sender halves, and the sawtooth repeats.
"""

from __future__ import annotations

import math
import numbers
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, Optional

from ..netsim import flowtransit
from ..netsim.engine import ScheduledCall, Simulator
from ..netsim.packet import Packet, PacketKind
from ..netsim.path import PathNetwork

__all__ = ["TCPConfig", "TCPSender", "TCPReceiver", "open_connection"]


@dataclass(frozen=True)
class TCPConfig:
    """Connection parameters.

    The defaults model the paper's BTC scenario: an arbitrarily large
    advertised window (so only congestion control limits the rate) and
    1500-byte packets on the wire.
    """

    #: maximum segment size (payload bytes); 1460 + 40 header = 1500 wire
    mss: int = 1460
    #: TCP/IP header overhead per segment, and the size of a pure ACK
    header_bytes: int = 40
    #: congestion control flavor: "reno" (NewReno loss-based, the paper's
    #: era default) or "vegas" (delay-based; the Section II related-work
    #: family that shares SLoPS' core observation — rising delays signal
    #: congestion)
    congestion_control: str = "reno"
    #: Vegas alpha/beta/gamma, in segments of backlog at the bottleneck
    vegas_alpha: float = 2.0
    vegas_beta: float = 4.0
    vegas_gamma: float = 1.0
    #: initial congestion window, in segments
    initial_cwnd_segments: int = 2
    #: initial slow-start threshold in bytes (None = effectively unbounded)
    initial_ssthresh_bytes: Optional[int] = None
    #: receiver's advertised window in bytes ("sufficiently large" for BTC)
    advertised_window_bytes: int = 1 << 30
    #: duplicate ACKs that trigger fast retransmit
    dupack_threshold: int = 3
    #: RTO bounds (RFC 6298; min_rto=1.0 is the classic conservative value)
    min_rto: float = 1.0
    max_rto: float = 60.0
    #: initial RTO before the first RTT sample
    initial_rto: float = 3.0
    #: acknowledge every segment (False) or every other (True)
    delayed_ack: bool = False
    #: delayed-ACK timer
    delack_timeout: float = 0.2

    def __post_init__(self) -> None:
        # Sizes and counts must be whole: a fractional mss turns sequence
        # numbers into floats, a fractional dupack threshold is never met,
        # and NaN or a window below one segment silently sends nothing.
        for name in (
            "mss", "header_bytes", "initial_cwnd_segments", "dupack_threshold"
        ):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or value < 1:
                raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
        adv = self.advertised_window_bytes
        if not isinstance(adv, numbers.Integral) or adv < self.mss:
            raise ValueError(
                f"advertised_window_bytes must be an integer >= mss "
                f"({self.mss}), got {adv!r}"
            )
        ssthresh = self.initial_ssthresh_bytes
        if ssthresh is not None and (
            not isinstance(ssthresh, numbers.Integral) or ssthresh < 1
        ):
            raise ValueError(
                f"initial_ssthresh_bytes must be None or an integer >= 1, "
                f"got {ssthresh!r}"
            )
        # Comparisons with NaN are False, so these also reject NaN.  A zero
        # initial RTO re-fires at the same instant forever; NaN timers and
        # negative delays split the planned and per-packet paths, and an
        # infinite RTO bound arms a timer that the per-packet path refuses
        # under sanitize while the walk runs on.
        if not 0 < self.initial_rto < math.inf:
            raise ValueError(
                f"initial_rto must be finite and > 0, got {self.initial_rto}"
            )
        if not 0 <= self.delack_timeout < math.inf:
            raise ValueError(
                f"delack_timeout must be finite and >= 0, got {self.delack_timeout}"
            )
        if not 0 < self.min_rto < math.inf:
            raise ValueError(f"min_rto must be finite and > 0, got {self.min_rto}")
        if not self.min_rto <= self.max_rto < math.inf:
            raise ValueError(
                f"max_rto must be finite and >= min_rto ({self.min_rto}), "
                f"got {self.max_rto}"
            )
        if self.congestion_control not in ("reno", "vegas"):
            raise ValueError(
                f"congestion_control must be 'reno' or 'vegas', got "
                f"{self.congestion_control!r}"
            )
        if not 0 < self.vegas_alpha < math.inf:
            raise ValueError(
                f"vegas_alpha must be finite and > 0, got {self.vegas_alpha}"
            )
        if not self.vegas_alpha <= self.vegas_beta < math.inf:
            raise ValueError(
                f"vegas_beta must be finite and >= vegas_alpha "
                f"({self.vegas_alpha}), got {self.vegas_beta}"
            )
        if not 0 <= self.vegas_gamma < math.inf:
            raise ValueError(
                f"vegas_gamma must be finite and >= 0, got {self.vegas_gamma}"
            )


class TCPReceiver:
    """Receiving side: cumulative ACKs plus out-of-order buffering.

    Delivery accounting: ``delivered_bytes`` counts in-order bytes, and
    every advance appends its time and the new cumulative in-order byte
    count to two columns — the series Section VII bins into 1-second
    throughput samples.  ``delivered_log`` is a read-only view of them:
    a list of ``(time, cumulative_in_order_bytes)`` tuples, built from
    the columns on every access.
    """

    def __init__(
        self,
        sim: Simulator,
        network: PathNetwork,
        flow_id: str,
        config: TCPConfig,
    ):
        self.sim = sim
        self.network = network
        self.flow_id = flow_id
        self.config = config
        self.rcv_nxt = 0  # next expected byte
        self._out_of_order: dict[int, int] = {}  # seq -> length
        # Delivery log columns: times and cumulative in-order bytes.  A
        # tuple per entry would be one GC-tracked object per segment.
        self._delivered_times = array("d")
        self._delivered_counts = array("q")
        self.acks_sent = 0
        self._delack_pending = 0
        self._delack_timer: Optional[ScheduledCall] = None
        # The connection's I/O, set when a sender connects.
        self.port: Optional[_PacketPort] = None

    # ------------------------------------------------------------------
    @property
    def delivered_bytes(self) -> int:
        """Cumulative in-order bytes received."""
        return self.rcv_nxt

    @property
    def delivered_log(self) -> list[tuple[float, int]]:
        """``(time, cumulative_in_order_bytes)`` after every advance."""
        return list(zip(self._delivered_times, self._delivered_counts))

    def throughput_bps(self, t_from: float, t_to: float) -> float:
        """Average goodput over ``[t_from, t_to]`` from the delivery log."""
        if t_to <= t_from:
            raise ValueError("need t_to > t_from")
        # The log is appended in event order, so both lookups ("last
        # cumulative count at or before t") are binary searches over the
        # times; the linear scan this replaces made binned sampling
        # O(bins * log).
        times = self._delivered_times
        counts = self._delivered_counts
        i = bisect_right(times, t_from)
        j = bisect_right(times, t_to)
        start = counts[i - 1] if i else 0
        end = counts[j - 1] if j else start
        return (end - start) * 8.0 / (t_to - t_from)

    def binned_throughput_bps(
        self, t_from: float, t_to: float, bin_width: float = 1.0
    ) -> list[tuple[float, float]]:
        """Per-bin goodput samples — the "1-second intervals" of Fig. 15."""
        out = []
        t = t_from
        while t + bin_width <= t_to + 1e-9:
            out.append((t + bin_width, self.throughput_bps(t, t + bin_width)))
            t += bin_width
        return out

    # ------------------------------------------------------------------
    def on_segment(self, t: float, seq: int, length: int) -> Optional[int]:
        """Handle ``length`` bytes from byte ``seq``, arriving at ``t``.

        Returns the cumulative ACK to send now, or None while a delayed
        ACK waits.  The caller sends it, which saves a port call per
        segment.
        """
        rcv_nxt = self.rcv_nxt
        if seq + length <= rcv_nxt:
            pass  # pure duplicate (retransmission of delivered data): re-ACK
        elif seq > rcv_nxt:
            # out-of-order segment ⇒ immediate duplicate ACK (RFC 5681)
            oob = self._out_of_order
            if length > oob.get(seq, 0):
                oob[seq] = length
        else:
            # in-order (possibly overlapping) data: advance rcv_nxt
            rcv_nxt = seq + length
            oob = self._out_of_order
            if oob:
                while rcv_nxt in oob:
                    rcv_nxt += oob.pop(rcv_nxt)
            self.rcv_nxt = rcv_nxt
            self._delivered_times.append(t)
            self._delivered_counts.append(rcv_nxt)
            if self.config.delayed_ack:
                self._delack_pending += 1
                if self._delack_pending == 1:
                    self._delack_timer = self.port.delack(
                        t + self.config.delack_timeout
                    )
                    return None
                # second pending segment: ack now (ack-every-other)
        timer = self._delack_timer
        if timer is not None:
            timer.cancel()
            self._delack_timer = None
        self._delack_pending = 0
        self.acks_sent += 1
        return rcv_nxt

    def _on_delack(self, t: float) -> None:
        self._delack_timer = None
        self._delack_pending = 0
        self.acks_sent += 1
        self.port.send_ack(t, self.rcv_nxt)


class TCPSender:
    """Sending side: Reno/NewReno congestion control.

    Parameters
    ----------
    total_bytes:
        Transfer size, or ``None`` for a persistent (greedy/BTC) connection
        that sends until :meth:`stop` is called.
    on_complete:
        Callback invoked once the entire transfer is acknowledged (sized
        transfers only).
    """

    def __init__(
        self,
        sim: Simulator,
        network: PathNetwork,
        receiver: TCPReceiver,
        config: Optional[TCPConfig] = None,
        total_bytes: Optional[int] = None,
        flow_id: Optional[str] = None,
        on_complete: Optional[Callable[["TCPSender"], None]] = None,
        fast: Optional[bool] = None,
    ):
        self.sim = sim
        self.network = network
        self.config = config if config is not None else TCPConfig()
        if not flow_id:
            # Number default flows per network, not per process, so flow
            # labels (and trace tracks) reproduce run-to-run.
            seq = getattr(network, "_tcp_flow_seq", 0)
            network._tcp_flow_seq = seq + 1
            flow_id = f"tcp-{seq}"
        self.flow_id = flow_id
        self.total_bytes = total_bytes
        self.on_complete = on_complete
        receiver.flow_id = self.flow_id
        self.receiver = receiver
        # The connection's I/O, shared with the receiver.  The flow-transit
        # walk replaces it on both endpoints while it carries the flow.
        self.port = receiver.port = _PacketPort(self, receiver)

        cfg = self.config
        self.snd_una = 0
        self.snd_nxt = 0
        self.cwnd = float(cfg.initial_cwnd_segments * cfg.mss)
        self.ssthresh = (
            float(cfg.initial_ssthresh_bytes)
            if cfg.initial_ssthresh_bytes is not None
            else float(1 << 40)
        )
        self.dupacks = 0
        self.in_recovery = False
        self.recover = 0  # NewReno: highest seq outstanding at loss detection
        self._first_partial_ack = True
        self.srtt: Optional[float] = None
        self.rttvar = 0.0
        # Vegas state: the smallest RTT ever seen approximates the
        # queue-free path RTT; adjustments happen once per RTT epoch
        self.base_rtt: Optional[float] = None
        self._last_rtt_sample: Optional[float] = None
        self._vegas_epoch_end = 0
        self._vegas_ss_grow = True  # slow start doubles every *other* RTT
        self.rto = cfg.initial_rto
        self._rto_timer: Optional[ScheduledCall] = None
        # In-flight segments: first byte -> send time, or None once the
        # segment was retransmitted (Karn's rule takes no RTT sample).
        self._in_flight: dict[int, Optional[float]] = {}
        self._stopped = False
        self._completed = False
        # Flow-transit fast path: resolved at _begin.
        self._fast = fast
        # statistics
        self.high_water = 0  # highest byte ever sent (go-back-N bookkeeping)
        self.segments_sent = 0
        self.retransmits = 0
        self.timeouts = 0
        # cwnd log columns: times and windows (see ``cwnd_log``).
        self._cwnd_times = array("d")
        self._cwnds = array("d")
        # Cached tracer: the nil path costs one None-check per cwnd change.
        # Light tracers cache None: per-ack cwnd/rto instants are exactly
        # the per-packet visibility --trace-light trades away.
        tracer = sim.tracer
        self._tracer = (
            tracer if tracer is not None and not tracer.light else None
        )

    # ------------------------------------------------------------------
    # Public control
    # ------------------------------------------------------------------
    def start(self, at: Optional[float] = None) -> None:
        """Begin transmitting (now, or at absolute time ``at``)."""
        if at is None:
            self._begin(self.sim.now)
        else:
            self.sim.schedule_at(at, self._begin, at)

    def _begin(self, t: float) -> None:
        if not self._stopped and type(self.port) is _PacketPort:
            flowtransit.try_attach_flow(self)
        self._try_send(t)

    def stop(self) -> None:
        """Stop a persistent connection: no new data, timers cancelled."""
        self.port.stop()
        self._stopped = True
        self._cancel_rto()

    @property
    def acked_bytes(self) -> int:
        """Bytes cumulatively acknowledged."""
        return self.snd_una

    @property
    def cwnd_log(self) -> list[tuple[float, float]]:
        """``(time, cwnd)`` after every window change: a read-only view,
        built from the log's two columns on every access."""
        return list(zip(self._cwnd_times, self._cwnds))

    @property
    def flight_size(self) -> int:
        """Bytes in flight (sent, not yet cumulatively acked)."""
        return self.snd_nxt - self.snd_una

    # ------------------------------------------------------------------
    # Transmission
    # ------------------------------------------------------------------
    def _try_send(self, t: float) -> None:
        """Send new segments while the window has room for a full one."""
        if self._stopped:
            return
        cfg = self.config
        mss = cfg.mss
        cwnd = self.cwnd
        adv = cfg.advertised_window_bytes
        window = cwnd if cwnd <= adv else adv
        una = self.snd_una
        snd_nxt = self.snd_nxt
        total = self.total_bytes
        while snd_nxt - una + mss <= window:
            if total is None:
                length = mss
            else:
                remaining = total - snd_nxt
                if remaining <= 0:
                    break
                length = mss if mss < remaining else remaining
            # After a timeout the sender rewinds snd_nxt (go-back-N), so a
            # "new" send may cover previously transmitted bytes: Karn's
            # algorithm must not take RTT samples from those.
            self._transmit(t, snd_nxt, length, snd_nxt < self.high_water)
            snd_nxt += length
            self.snd_nxt = snd_nxt
            if snd_nxt > self.high_water:
                self.high_water = snd_nxt

    def _transmit(self, t: float, seq: int, length: int, retransmission: bool) -> None:
        # A tracked key keeps its dict position, so the keys stay in
        # ascending order (see on_ack).
        if retransmission:
            self._in_flight[seq] = None
            self.retransmits += 1
        else:
            self._in_flight[seq] = t
        self.segments_sent += 1
        self.port.send_data(t, seq, length)
        if self._rto_timer is None:
            self._rto_timer = self.port.rto(None, t + self.rto)

    # ------------------------------------------------------------------
    # ACK processing
    # ------------------------------------------------------------------
    def on_ack(self, t: float, ack: int) -> None:
        """Handle a cumulative ACK for byte ``ack``, arriving at ``t``."""
        if self._stopped or self._completed:
            return
        snd_una = self.snd_una
        if ack > snd_una:
            cfg = self.config
            mss = cfg.mss
            # RTT samples from the newly acked, never-retransmitted
            # segments (Karn's algorithm), RFC 6298's estimator inline.
            # The dict's insertion order is ascending seq: new sends are
            # monotone, a retransmission of snd_una updates a key that is
            # already there, and a timeout clears the dict.  So the acked
            # segments are a prefix, popped in order with no sort.
            infl = self._in_flight
            srtt = self.srtt
            rttvar = self.rttvar
            rto = self.rto
            while infl:
                for seq in infl:  # the first key
                    break
                if seq >= ack:
                    break
                sent_at = infl.pop(seq)
                if sent_at is not None:
                    sample = t - sent_at
                    base = self.base_rtt
                    if base is None or sample < base:
                        self.base_rtt = sample
                    self._last_rtt_sample = sample
                    if srtt is None:
                        srtt = sample
                        rttvar = sample / 2.0
                    else:
                        rttvar = 0.75 * rttvar + 0.25 * abs(srtt - sample)
                        srtt = 0.875 * srtt + 0.125 * sample
                    rto = srtt + 4.0 * rttvar
                    if rto < cfg.min_rto:
                        rto = cfg.min_rto
                    elif rto > cfg.max_rto:
                        rto = cfg.max_rto
            self.srtt = srtt
            self.rttvar = rttvar
            self.rto = rto
            self.snd_una = ack
            self.dupacks = 0
            restart_rto = True
            if self.in_recovery:
                if ack >= self.recover:
                    # full ACK: leave fast recovery (NewReno)
                    self.in_recovery = False
                    self.cwnd = self.ssthresh
                else:
                    # Partial ACK: retransmit the next hole and deflate.
                    # RFC 6582 "impatient" variant: only the *first*
                    # partial ACK of a recovery episode resets the RTO, so
                    # a recovery with many holes (one retransmission per
                    # RTT) falls back to slow start via timeout instead of
                    # crawling indefinitely.
                    total = self.total_bytes
                    left = mss if total is None else max(0, total - ack)
                    self._transmit(t, ack, min(mss, left or mss), True)
                    self.cwnd = max(
                        float(mss), self.cwnd - (ack - snd_una) + float(mss)
                    )
                    restart_rto = self._first_partial_ack
                    self._first_partial_ack = False
            elif cfg.congestion_control == "vegas":
                self._vegas_on_new_ack(ack)
            elif self.cwnd < self.ssthresh:
                self.cwnd += float(mss)  # slow start
            else:
                self.cwnd += float(mss) * mss / self.cwnd  # AIMD increase
            self._log_cwnd(t)
            if restart_rto:
                # flight measured before the refill below
                if self.snd_nxt > ack:
                    self._rto_timer = self.port.rto(self._rto_timer, t + rto)
                else:
                    self._cancel_rto()
        elif ack == snd_una and self.snd_nxt > snd_una:
            self._process_dupack(t)
        self._try_send(t)
        total = self.total_bytes
        if total is not None and self.snd_una >= total:
            self._completed = True
            self._cancel_rto()
            self.port.complete()

    def _vegas_on_new_ack(self, ack: int) -> None:
        """Vegas window adjustment (Brakmo & Peterson), once per RTT epoch.

        ``diff = cwnd/base_rtt - cwnd/rtt`` (converted to segments of
        bottleneck backlog): below ``alpha`` the path has spare room —
        grow; above ``beta`` the connection itself queues too much —
        shrink; in between hold.  Slow start doubles every other RTT and
        exits as soon as the backlog estimate crosses ``gamma``.  Loss
        recovery is inherited from Reno (Vegas keeps it as a fallback).
        """
        cfg = self.config
        if ack < self._vegas_epoch_end:
            return  # adjust once per RTT's worth of data
        self._vegas_epoch_end = self.snd_nxt
        rtt = self._last_rtt_sample
        if rtt is None or self.base_rtt is None or rtt <= 0:
            self.cwnd += float(cfg.mss)
            return
        expected = self.cwnd / self.base_rtt
        actual = self.cwnd / rtt
        diff_segments = (expected - actual) * self.base_rtt / cfg.mss
        if self.cwnd < self.ssthresh:
            # Vegas slow start: exponential growth every other epoch,
            # abandoned the moment queueing is detected
            if diff_segments > cfg.vegas_gamma:
                self.ssthresh = self.cwnd
            elif self._vegas_ss_grow:
                self.cwnd *= 2.0
            self._vegas_ss_grow = not self._vegas_ss_grow
            return
        if diff_segments < cfg.vegas_alpha:
            self.cwnd += float(cfg.mss)
        elif diff_segments > cfg.vegas_beta:
            self.cwnd = max(2.0 * cfg.mss, self.cwnd - float(cfg.mss))

    def _process_dupack(self, t: float) -> None:
        cfg = self.config
        self.dupacks += 1
        if self.in_recovery:
            self.cwnd += float(cfg.mss)  # window inflation
        elif self.dupacks == cfg.dupack_threshold:
            # fast retransmit + enter fast recovery
            self.ssthresh = max(self.flight_size / 2.0, 2.0 * cfg.mss)
            self.cwnd = self.ssthresh + cfg.dupack_threshold * cfg.mss
            self.in_recovery = True
            self._first_partial_ack = True
            self.recover = self.snd_nxt
            self._transmit(t, self.snd_una, cfg.mss, True)
            self._restart_rto(t)
            self._log_cwnd(t)

    # ------------------------------------------------------------------
    # RTO (RFC 6298)
    # ------------------------------------------------------------------
    def _restart_rto(self, t: float) -> None:
        if self.snd_nxt > self.snd_una:
            self._rto_timer = self.port.rto(self._rto_timer, t + self.rto)
        else:
            self._cancel_rto()

    def _cancel_rto(self) -> None:
        if self._rto_timer is not None:
            self._rto_timer.cancel()
            self._rto_timer = None

    def _on_rto(self, t: float) -> None:
        self._rto_timer = None
        if self._stopped or self._completed or self.flight_size == 0:
            return
        cfg = self.config
        self.timeouts += 1
        if self._tracer is not None:
            self._tracer.instant(
                t,
                "tcp",
                "rto",
                track=self.flow_id,
                args={"rto": self.rto, "flight": self.flight_size},
            )
        self.ssthresh = max(self.flight_size / 2.0, 2.0 * cfg.mss)
        self.cwnd = float(cfg.mss)
        self.in_recovery = False
        self.dupacks = 0
        # Karn: back off the timer exponentially.
        self.rto = min(cfg.max_rto, self.rto * 2.0)
        # Go-back-N (pre-SACK TCP): everything past snd_una is presumed
        # lost and will be resent as the window reopens.  The receiver's
        # out-of-order buffer absorbs the redundant copies, so its
        # cumulative ACKs advance quickly over data that did survive.
        self._in_flight.clear()
        self.snd_nxt = self.snd_una
        self._try_send(t)
        self._restart_rto(t)
        self._log_cwnd(t)

    def _log_cwnd(self, t: float) -> None:
        self._cwnd_times.append(t)
        self._cwnds.append(self.cwnd)
        if self._tracer is not None:
            self._tracer.instant(
                t,
                "tcp",
                "cwnd",
                track=self.flow_id,
                args={
                    "cwnd": self.cwnd,
                    "ssthresh": self.ssthresh,
                    "in_recovery": self.in_recovery,
                },
            )


class _PacketPort:
    """Per-packet I/O of one connection.

    Each segment and each ACK is a :class:`Packet` sent through the
    network's links, and the delivery handlers hand its fields to the
    endpoints.  Timers are engine events that receive their deadline.
    Engine sequence numbers are taken in the order the endpoints send and
    arm, so exact-time ties pop in a fixed order.
    """

    __slots__ = ("sim", "network", "sender", "receiver")

    def __init__(self, sender: TCPSender, receiver: TCPReceiver):
        self.sim = sender.sim
        self.network = sender.network
        self.sender = sender
        self.receiver = receiver

    def data_packet(self, seq: int, length: int) -> Packet:
        return Packet(
            length + self.sender.config.header_bytes,
            flow_id=self.sender.flow_id,
            seq=seq,
            kind=PacketKind.DATA,
            payload=length,
        )

    def ack_packet(self, ack: int) -> Packet:
        return Packet(
            self.receiver.config.header_bytes,
            flow_id=self.sender.flow_id,
            seq=ack,
            kind=PacketKind.ACK,
        )

    def send_data(self, t: float, seq: int, length: int) -> None:
        self.network.send_forward(self.data_packet(seq, length), self.on_data)

    def send_ack(self, t: float, ack: int) -> None:
        self.network.send_reverse(self.ack_packet(ack), self.on_ack)

    def on_data(self, pkt: Packet) -> None:
        t = self.sim.now
        ack = self.receiver.on_segment(t, pkt.seq, pkt.payload)
        if ack is not None:
            self.send_ack(t, ack)

    def on_ack(self, pkt: Packet) -> None:
        self.sender.on_ack(self.sim.now, pkt.seq)

    def rto(self, timer: Optional[ScheduledCall], deadline: float) -> ScheduledCall:
        """Cancel ``timer`` (if any) and arm the RTO for ``deadline``."""
        if timer is not None:
            timer.cancel()
        return self.sim.schedule_at(deadline, self.sender._on_rto, deadline)

    def delack(self, deadline: float) -> ScheduledCall:
        return self.sim.schedule_at(deadline, self.receiver._on_delack, deadline)

    def complete(self) -> None:
        """The transfer is acknowledged: run the user's callback."""
        sender = self.sender
        if sender.on_complete is not None:
            sender.on_complete(sender)

    def stop(self) -> None:
        """The sender stops; nothing is held outside it."""


def open_connection(
    sim: Simulator,
    network: PathNetwork,
    config: Optional[TCPConfig] = None,
    total_bytes: Optional[int] = None,
    start: Optional[float] = None,
    on_complete: Optional[Callable[[TCPSender], None]] = None,
    fast: Optional[bool] = None,
) -> tuple[TCPSender, TCPReceiver]:
    """Wire up a sender/receiver pair over ``network`` and start it."""
    cfg = config if config is not None else TCPConfig()
    receiver = TCPReceiver(sim, network, flow_id="", config=cfg)
    sender = TCPSender(
        sim,
        network,
        receiver,
        config=cfg,
        total_bytes=total_bytes,
        on_complete=on_complete,
        fast=fast,
    )
    sender.start(at=start)
    return sender, receiver
