"""A ping-like RTT prober.

Sections VII and VIII of the paper sample the path RTT with ``ping`` every
second (Fig. 16) or every 100 ms (Fig. 18) to expose queue build-up at the
tight link.  :class:`Pinger` reproduces that: small echo packets travel the
forward path, are reflected onto the reverse path, and the sender records
each answered probe's send time and RTT; unanswered probes count as lost
after a timeout.
"""

from __future__ import annotations

import itertools
import math
from array import array
from typing import Optional

from ..netsim.engine import Simulator
from ..netsim.packet import Packet, PacketKind
from ..netsim.path import PathNetwork

__all__ = ["Pinger"]

_ping_ids = itertools.count()


class Pinger:
    """Periodic RTT measurement over a path.

    Parameters
    ----------
    interval:
        Time between echo requests (paper: 1 s in Fig. 16, 100 ms in
        Fig. 18).
    packet_size:
        Echo request/reply size in bytes (classic ping payload ≈ 64 B).
    timeout:
        After this long an unanswered probe is recorded as lost.
    start / stop:
        First send time (not before ``sim.now``) and the time from which
        no more probes are sent (``None``: never stop).
    """

    def __init__(
        self,
        sim: Simulator,
        network: PathNetwork,
        interval: float = 1.0,
        packet_size: int = 64,
        timeout: float = 2.0,
        start: float = 0.0,
        stop: Optional[float] = None,
    ):
        if not 0 < interval < math.inf:
            raise ValueError(f"interval must be finite and positive, got {interval}")
        if not 0 < timeout < math.inf:
            raise ValueError(f"timeout must be finite and positive, got {timeout}")
        if not sim.now <= start < math.inf:
            raise ValueError(
                f"start must be finite and >= sim.now ({sim.now}), got {start}"
            )
        if stop is not None and math.isnan(stop):
            raise ValueError("stop must be None or a number, got nan")
        self.sim = sim
        self.network = network
        self.interval = float(interval)
        self.packet_size = int(packet_size)
        self.timeout = float(timeout)
        self.stop = stop
        self.flow_id = f"ping-{next(_ping_ids)}"
        # Send times and RTTs of answered probes, as two columns: a tuple
        # per reply would be one GC-tracked object per probe.
        self._sent_times = array("d")
        self._rtt_values = array("d")
        self.sent = 0
        self.lost = 0
        self._outstanding: dict[int, float] = {}  # seq -> send time
        sim.schedule_at(start, self._send_probe)

    @property
    def rtts(self) -> list[tuple[float, float]]:
        """``(send time, RTT)`` pairs of answered probes, in reply order:
        a read-only view, built from the two columns on every access."""
        return list(zip(self._sent_times, self._rtt_values))

    # ------------------------------------------------------------------
    def _send_probe(self) -> None:
        now = self.sim.now
        if self.stop is not None and now >= self.stop:
            return
        seq = self.sent
        self.sent += 1
        self._outstanding[seq] = now
        pkt = Packet(
            self.packet_size,
            flow_id=self.flow_id,
            seq=seq,
            kind=PacketKind.PING,
        )
        self.network.send_forward(pkt, self._echo)
        self.sim.schedule(self.timeout, self._check_timeout, seq)
        self.sim.schedule(self.interval, self._send_probe)

    def _echo(self, pkt: Packet) -> None:
        reply = Packet(
            self.packet_size,
            flow_id=self.flow_id,
            seq=pkt.seq,
            kind=PacketKind.PONG,
        )
        self.network.send_reverse(reply, self._reply_arrived)

    def _reply_arrived(self, pkt: Packet) -> None:
        sent_at = self._outstanding.pop(pkt.seq, None)
        if sent_at is None:
            return  # answered after timeout; already counted as lost
        self._sent_times.append(sent_at)
        self._rtt_values.append(self.sim.now - sent_at)

    def _check_timeout(self, seq: int) -> None:
        if self._outstanding.pop(seq, None) is not None:
            self.lost += 1

    # ------------------------------------------------------------------
    def rtts_between(self, t_from: float, t_to: float) -> list[float]:
        """RTT samples whose probe was sent within ``[t_from, t_to)``."""
        return [
            rtt
            for t, rtt in zip(self._sent_times, self._rtt_values)
            if t_from <= t < t_to
        ]

    def max_rtt(self) -> float:
        """Largest observed RTT (0 if none)."""
        return max(self._rtt_values, default=0.0)
