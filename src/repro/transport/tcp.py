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

The implementation is event-driven (no per-connection process), which keeps
the cost at roughly two simulator events per segment.  Queue-filling
behaviour — the part of TCP that Section VII's RTT measurements expose — is
faithfully produced: a drop-tail tight link fills until loss, the sender
halves, and the sawtooth repeats.
"""

from __future__ import annotations

import math
import numbers
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
        # negative delays split the planned and per-packet paths.
        if not 0 < self.initial_rto < math.inf:
            raise ValueError(
                f"initial_rto must be finite and > 0, got {self.initial_rto}"
            )
        if not 0 <= self.delack_timeout < math.inf:
            raise ValueError(
                f"delack_timeout must be finite and >= 0, got {self.delack_timeout}"
            )
        if not 0 < self.min_rto <= self.max_rto:
            raise ValueError("need 0 < min_rto <= max_rto")
        if self.congestion_control not in ("reno", "vegas"):
            raise ValueError(
                f"congestion_control must be 'reno' or 'vegas', got "
                f"{self.congestion_control!r}"
            )
        if not 0 < self.vegas_alpha <= self.vegas_beta:
            raise ValueError("need 0 < vegas_alpha <= vegas_beta")


class TCPReceiver:
    """Receiving side: cumulative ACKs plus out-of-order buffering.

    Delivery accounting: ``delivered_bytes`` counts in-order bytes, and
    ``delivery_log`` records ``(time, cumulative_in_order_bytes)`` after
    every advance — the series Section VII bins into 1-second throughput
    samples.
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
        self.delivered_log: list[tuple[float, int]] = []
        self.acks_sent = 0
        self._delack_pending = 0
        self._delack_timer: Optional[ScheduledCall] = None
        self._sender_addr: Optional[Callable[[Packet], None]] = None

    # ------------------------------------------------------------------
    @property
    def delivered_bytes(self) -> int:
        """Cumulative in-order bytes received."""
        return self.rcv_nxt

    def throughput_bps(self, t_from: float, t_to: float) -> float:
        """Average goodput over ``[t_from, t_to]`` from the delivery log."""
        if t_to <= t_from:
            raise ValueError("need t_to > t_from")
        # The log is appended in event order, so both lookups ("last
        # cumulative count at or before t") are binary searches; the
        # linear scan this replaces made binned sampling O(bins * log).
        log = self.delivered_log
        inf = float("inf")
        i = bisect_right(log, (t_from, inf))
        j = bisect_right(log, (t_to, inf))
        start = log[i - 1][1] if i else 0
        end = log[j - 1][1] if j else start
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
    def on_segment(self, pkt: Packet) -> None:
        """Handle an arriving data segment (wired by the network)."""
        seq = pkt.seq
        length = pkt.payload
        if seq + length <= self.rcv_nxt:
            # pure duplicate (retransmission of delivered data): re-ACK
            self._emit_ack(force=True)
            return
        if seq > self.rcv_nxt:
            self._out_of_order[seq] = max(self._out_of_order.get(seq, 0), length)
            # out-of-order segment ⇒ immediate duplicate ACK (RFC 5681)
            self._emit_ack(force=True)
            return
        # in-order (possibly overlapping) data: advance rcv_nxt
        self.rcv_nxt = seq + length
        while self.rcv_nxt in self._out_of_order:
            self.rcv_nxt += self._out_of_order.pop(self.rcv_nxt)
        self.delivered_log.append((self.sim.now, self.rcv_nxt))
        self._emit_ack(force=not self.config.delayed_ack)

    def _emit_ack(self, force: bool) -> None:
        if not force and self.config.delayed_ack:
            self._delack_pending += 1
            if self._delack_pending == 1:
                self._delack_timer = self.sim.schedule(
                    self.config.delack_timeout, self._emit_ack, True
                )
                return
            # second pending segment: ack now (ack-every-other)
        if self._delack_timer is not None:
            self._delack_timer.cancel()
            self._delack_timer = None
        self._delack_pending = 0
        ack = Packet(
            self.config.header_bytes,
            flow_id=self.flow_id,
            seq=self.rcv_nxt,
            kind=PacketKind.ACK,
        )
        self.acks_sent += 1
        if self._sender_addr is None:
            raise RuntimeError("receiver not connected to a sender")
        self.network.send_reverse(ack, self._sender_addr)


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
        receiver._sender_addr = self.on_ack
        self.receiver = receiver

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
        # Flow-transit fast path: resolved at _begin; while attached the
        # domain owns this flow's events.
        self._fast = fast
        self._ft: Optional["flowtransit.FlowTransitDomain"] = None
        self._ft_fs = None
        # statistics
        self.high_water = 0  # highest byte ever sent (go-back-N bookkeeping)
        self.segments_sent = 0
        self.retransmits = 0
        self.timeouts = 0
        self.cwnd_log: list[tuple[float, float]] = []
        # Cached tracer: the nil path costs one None-check per cwnd change.
        # Light tracers cache None: per-ack cwnd/rto instants are exactly
        # the per-packet visibility --trace-light trades away, and a None
        # slot keeps the flow eligible for the inlined transmit kernel.
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
            self._begin()
        else:
            self.sim.schedule_at(at, self._begin)

    def _begin(self) -> None:
        if not self._stopped and self._ft is None:
            flowtransit.try_attach_flow(self)
        self._try_send()

    def stop(self) -> None:
        """Stop a persistent connection: no new data, timers cancelled."""
        if self._ft is not None:
            self._ft.on_flow_stop(self)
        self._stopped = True
        self._cancel_rto()

    @property
    def acked_bytes(self) -> int:
        """Bytes cumulatively acknowledged."""
        return self.snd_una

    @property
    def flight_size(self) -> int:
        """Bytes in flight (sent, not yet cumulatively acked)."""
        return self.snd_nxt - self.snd_una

    # ------------------------------------------------------------------
    # Transmission
    # ------------------------------------------------------------------
    def _window(self) -> float:
        return min(self.cwnd, float(self.config.advertised_window_bytes))

    def _remaining(self) -> Optional[int]:
        if self.total_bytes is None:
            return None
        return self.total_bytes - self.snd_nxt

    def _try_send(self) -> None:
        if self._stopped:
            return
        cfg = self.config
        while self.flight_size + cfg.mss <= self._window():
            remaining = self._remaining()
            if remaining is not None and remaining <= 0:
                break
            length = cfg.mss if remaining is None else min(cfg.mss, remaining)
            # After a timeout the sender rewinds snd_nxt (go-back-N), so a
            # "new" send may cover previously transmitted bytes: Karn's
            # algorithm must not take RTT samples from those.
            self._transmit(
                self.snd_nxt, length, retransmission=self.snd_nxt < self.high_water
            )
            self.snd_nxt += length
            if self.snd_nxt > self.high_water:
                self.high_water = self.snd_nxt

    def _transmit(self, seq: int, length: int, retransmission: bool) -> None:
        cfg = self.config
        pkt = Packet(
            length + cfg.header_bytes,
            flow_id=self.flow_id,
            seq=seq,
            kind=PacketKind.DATA,
            payload=length,
            created_at=self.sim.now,
        )
        # A tracked key keeps its dict position: the flow-transit ack
        # kernel pops acked segments as a prefix in insertion order.
        if retransmission:
            self._in_flight[seq] = None
            self.retransmits += 1
        else:
            self._in_flight[seq] = self.sim.now
        self.segments_sent += 1
        self.network.send_forward(pkt, self.receiver.on_segment)
        if self._rto_timer is None:
            self._arm_rto()

    # ------------------------------------------------------------------
    # ACK processing
    # ------------------------------------------------------------------
    def on_ack(self, pkt: Packet) -> None:
        """Handle a cumulative ACK arriving over the reverse path."""
        if self._stopped or self._completed:
            return
        ack = pkt.seq
        cfg = self.config
        if ack > self.snd_una:
            self._process_new_ack(ack)
        elif ack == self.snd_una and self.flight_size > 0:
            self._process_dupack()
        self._try_send()
        if (
            self.total_bytes is not None
            and self.snd_una >= self.total_bytes
            and not self._completed
        ):
            self._completed = True
            self._cancel_rto()
            if self.on_complete is not None:
                self.on_complete(self)

    def _process_new_ack(self, ack: int) -> None:
        cfg = self.config
        # RTT sample from the oldest newly-acked, never-retransmitted
        # segment (Karn's algorithm).
        for seq in sorted(self._in_flight):
            if seq >= ack:
                break
            sent_at = self._in_flight.pop(seq)
            if sent_at is not None:
                self._update_rtt(self.sim.now - sent_at)
        newly_acked = ack - self.snd_una
        self.snd_una = ack
        self.dupacks = 0
        restart_rto = True

        if self.in_recovery:
            if ack >= self.recover:
                # full ACK: leave fast recovery (NewReno)
                self.in_recovery = False
                self.cwnd = self.ssthresh
            else:
                # Partial ACK: retransmit the next hole and deflate.  RFC
                # 6582 "impatient" variant: only the *first* partial ACK of
                # a recovery episode resets the RTO, so a recovery with many
                # holes (one retransmission per RTT) falls back to slow
                # start via timeout instead of crawling indefinitely.
                self._transmit(
                    self.snd_una,
                    min(cfg.mss, (self._remaining_total() or cfg.mss)),
                    retransmission=True,
                )
                self.cwnd = max(
                    float(cfg.mss), self.cwnd - newly_acked + float(cfg.mss)
                )
                restart_rto = self._first_partial_ack
                self._first_partial_ack = False
        elif cfg.congestion_control == "vegas":
            self._vegas_on_new_ack(ack)
        elif self.cwnd < self.ssthresh:
            self.cwnd += float(cfg.mss)  # slow start
        else:
            self.cwnd += float(cfg.mss) * cfg.mss / self.cwnd  # AIMD increase
        self._log_cwnd()
        if restart_rto:
            self._restart_rto()

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

    def _remaining_total(self) -> Optional[int]:
        if self.total_bytes is None:
            return None
        return max(0, self.total_bytes - self.snd_una)

    def _process_dupack(self) -> None:
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
            self._transmit(self.snd_una, cfg.mss, retransmission=True)
            self._restart_rto()
            self._log_cwnd()

    # ------------------------------------------------------------------
    # RTT estimation and RTO (RFC 6298)
    # ------------------------------------------------------------------
    def _update_rtt(self, sample: float) -> None:
        if self.base_rtt is None or sample < self.base_rtt:
            self.base_rtt = sample
        self._last_rtt_sample = sample
        if self.srtt is None:
            self.srtt = sample
            self.rttvar = sample / 2.0
        else:
            self.rttvar = 0.75 * self.rttvar + 0.25 * abs(self.srtt - sample)
            self.srtt = 0.875 * self.srtt + 0.125 * sample
        self.rto = min(
            self.config.max_rto,
            max(self.config.min_rto, self.srtt + 4.0 * self.rttvar),
        )

    def _arm_rto(self) -> None:
        self._rto_timer = self.sim.schedule(self.rto, self._on_rto)

    def _restart_rto(self) -> None:
        self._cancel_rto()
        if self.flight_size > 0:
            self._arm_rto()

    def _cancel_rto(self) -> None:
        if self._rto_timer is not None:
            self._rto_timer.cancel()
            self._rto_timer = None

    def _on_rto(self) -> None:
        self._rto_timer = None
        if self._stopped or self._completed or self.flight_size == 0:
            return
        cfg = self.config
        self.timeouts += 1
        if self._tracer is not None:
            self._tracer.instant(
                self.sim.now,
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
        self._try_send()
        self._restart_rto()
        self._log_cwnd()

    def _log_cwnd(self) -> None:
        self.cwnd_log.append((self.sim.now, self.cwnd))
        if self._tracer is not None:
            self._tracer.instant(
                self.sim.now,
                "tcp",
                "cwnd",
                track=self.flow_id,
                args={
                    "cwnd": self.cwnd,
                    "ssthresh": self.ssthresh,
                    "in_recovery": self.in_recovery,
                },
            )


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
