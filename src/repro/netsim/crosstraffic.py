"""Cross-traffic generation.

Section V of the paper generates cross traffic at each hop from **ten random
sources** whose interarrivals are either exponential (Poisson traffic) or
Pareto with ``alpha = 1.9`` (infinite variance, heavy-tailed), and whose
packet sizes follow the classic Internet mix:

    40% 40-byte packets, 50% 550-byte, 10% 1500-byte  (mean 441 B).

This module reproduces that workload:

* :class:`PacketMix` — the size distribution;
* :class:`CrossTrafficSource` — one renewal-process source feeding one link;
* :func:`attach_cross_traffic` — the paper's "ten sources per link" helper.

Two data paths deliver the packets to the link, chosen automatically per
source:

* **Bulk (default when eligible).**  The source's gap and size draws are
  converted, one RNG chunk (``_CHUNK`` = 512 arrivals) at a time, into
  absolute arrival-time/size arrays — an ``np.cumsum`` over the very same
  vectorized draws, RNG order untouched — and handed to the link's
  :class:`~repro.netsim.bulkarrivals.CrossAggregator`.  Generation is
  pulled: the traffic is open loop, so a reader of the link (a foreground
  send, a backlog or stats read, the flow-transit walk) generates and
  merges what it needs, and the source stays about one chunk ahead of
  the fold.  The arrivals stay NumPy arrays from the draw to the
  aggregator's k-way merge, which turns them into the Python lists the
  fold reads.  Open-loop background load thus costs **no scheduler
  events at all**, while every foreground packet observes a
  bit-identical queue.
* **Per-packet (fallback).**  One heap event plus O(1) Python work per
  packet.  Engaged automatically when the sample path could depend on
  per-packet interaction: a link with a ``qdisc`` (AQM must see every
  packet), a ``drop_hook``, or a rebound delivery callback (taps must see
  every packet).  ``bulk=False`` forces this path, e.g. for equivalence
  tests; ``REPRO_NO_FAST`` does not (it governs the foreground walk).

Modulated sources and the bulk path
-----------------------------------
A ``modulation=(interval, sigma)`` source is piecewise-constant: its
rate factor only changes at the segment boundaries ``start + k *
interval``.  The bulk generator therefore emits its batched arrival
arrays *per rate-factor segment*: it walks the same gap draws the
per-packet path would consume, divides each gap by the factor in force
at the previous arrival's instant, and draws each boundary's
mean-reverting factor at the exact position in the source's RNG stream
where the per-packet ``_modulate`` event would draw it (boundaries
interleave with refills in event order; see ``_mod_consume``).  Draws
happen whenever a reader pulls (``CrossAggregator.extend_until``), not
at the simulated instant of the event they replace, but per-source draw
order, and therefore every arrival time, is bit-identical.

One measure-zero caveat: when an arrival lands **exactly** on a segment
boundary, the bulk generator applies the boundary first (the arrival's
own time is unaffected; the *next* gap uses the post-boundary factor),
while the per-packet path's ordering depends on event insertion order.
For the continuous interarrival models a float-exact collision has
probability zero, matching the exact-tie merge caveat documented in
``bulkarrivals.py``.
"""

from __future__ import annotations

import math
import numbers
from typing import Optional, Sequence

import numpy as np

from .bulkarrivals import CrossAggregator
from .engine import Simulator
from .link import Link
from .packet import Packet, PacketKind
from .path import PathNetwork

__all__ = [
    "PAPER_PACKET_MIX",
    "PacketMix",
    "CrossTrafficSource",
    "attach_cross_traffic",
]

#: The paper's cross-traffic packet-size distribution (Section V-A).
PAPER_PACKET_MIX: tuple[tuple[int, float], ...] = (
    (40, 0.40),
    (550, 0.50),
    (1500, 0.10),
)

_BATCH = 4096  # samples buffered per refill of a modulated source
_CHUNK = 512  # RNG draw granularity; one stationary refill (see _refill)
#: Largest packet size a mix accepts.  float64 holds every integer up to
#: here exactly (links price a packet as ``size * 8.0 / capacity``), and
#: the int64 byte count of one chunk, at most ``_CHUNK`` sizes, cannot wrap.
_MAX_PACKET_SIZE = 2**53


def _arrival_times(t: float, gaps: np.ndarray) -> np.ndarray:
    """``[t, t + g0, t + g0 + g1, ...]`` as one float64 array.

    ``np.cumsum`` (``np.add.accumulate``) adds left to right, one element
    at a time, so each entry is the previous one plus one gap: the
    per-packet path's running ``t += gap``, bit for bit.
    """
    out = np.empty(len(gaps) + 1)
    out[0] = t
    out[1:] = gaps
    return np.cumsum(out, out=out)


class PacketMix:
    """A discrete packet-size distribution.

    Parameters
    ----------
    sizes_probs:
        Sequence of ``(size_bytes, probability)`` pairs.  Sizes must be
        integers from 1 to 2**53; probabilities must be finite,
        non-negative and sum to 1 (within float tolerance).
    """

    def __init__(self, sizes_probs: Sequence[tuple[int, float]] = PAPER_PACKET_MIX):
        sizes_probs = tuple(sizes_probs)
        if not sizes_probs:
            raise ValueError("packet mix must contain at least one size")
        # NaN passes the sum check below, and negative weights can sum to 1.
        if not all(0 <= p < math.inf for _s, p in sizes_probs):
            raise ValueError(
                f"packet mix probabilities must be finite and >= 0, "
                f"got {[p for _s, p in sizes_probs]}"
            )
        total = sum(p for _s, p in sizes_probs)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"packet mix probabilities sum to {total}, expected 1")
        for s, _p in sizes_probs:
            # The int64 size array would truncate a float size silently.
            if not isinstance(s, numbers.Integral) or not 1 <= s <= _MAX_PACKET_SIZE:
                raise ValueError(
                    f"packet sizes must be integers in [1, 2**53], got {s!r}"
                )
        self.sizes = np.array([s for s, _p in sizes_probs], dtype=np.int64)
        self.probs = np.array([p for _s, p in sizes_probs], dtype=np.float64)

    @property
    def mean_size(self) -> float:
        """Mean packet size in bytes."""
        return float(np.dot(self.sizes, self.probs))

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Draw ``n`` packet sizes."""
        return rng.choice(self.sizes, size=n, p=self.probs)

    @classmethod
    def constant(cls, size: int) -> "PacketMix":
        """A degenerate mix of a single packet size."""
        return cls(((size, 1.0),))


class CrossTrafficSource:
    """A single renewal-process traffic source feeding one link.

    Parameters
    ----------
    rate_bps:
        Long-run average offered load in bits per second.
    model:
        Interarrival model: ``"poisson"`` (exponential), ``"pareto"``
        (heavy-tailed with shape ``alpha``), or ``"cbr"`` (constant spacing,
        a fluid-like deterministic source).
    alpha:
        Pareto shape; the paper uses 1.9 (finite mean, infinite variance).
    start / stop:
        Activity window in simulated seconds: ``start`` finite and no
        earlier than ``sim.now``; ``stop=None`` or ``inf`` ⇒ forever.
    modulation:
        Optional ``(interval, sigma)`` slow-timescale load modulation: every
        ``interval`` seconds the source's instantaneous rate is multiplied
        by a mean-reverting lognormal factor (clamped to [0.25, 2.5]).
        This models the minutes-scale *non-stationarity* of real Internet
        load on top of the packet-scale burstiness — without it, the
        avail-bw process is stationary at every timescale, which real paths
        (Section VI) are not.  The long-run average rate is *not*
        ``rate_bps``: the log-factor follows ``x' = x/2 + N(0, sigma**2)``,
        whose stationary variance is ``4 sigma**2 / 3``, so the mean rate
        is about ``exp(2 sigma**2 / 3) * rate_bps`` — 1.0425× at Fig. 11's
        ``sigma = 0.25`` (1.04× measured) — and lower where the clamp
        binds (1.12× measured at ``sigma = 0.5``, against 1.18× unclamped).
        Modulation is piecewise-constant between boundaries, so a modulated
        source is bulk-eligible: arrivals are batch-generated per
        rate-factor segment (see the module docstring).
    bulk:
        ``None`` (default) selects the event-elided bulk path whenever the
        source and link are eligible; ``False`` forces the per-packet
        path; ``True`` requests bulk but still falls back when ineligible.

    ``packets_sent`` / ``bytes_sent`` count packets *offered to the link*
    (admitted to its queue or dropped by it).  On the bulk path they
    advance as arrivals are folded, and reading either property folds the
    link first — so any consistent read point sees the same values the
    per-packet path would report.
    """

    def __init__(
        self,
        sim: Simulator,
        network: PathNetwork,
        link: Link,
        rate_bps: float,
        rng: np.random.Generator,
        model: str = "pareto",
        alpha: float = 1.9,
        mix: Optional[PacketMix] = None,
        start: float = 0.0,
        stop: Optional[float] = None,
        name: str = "cross",
        modulation: Optional[tuple[float, float]] = None,
        bulk: Optional[bool] = None,
    ):
        # Chained comparisons are False for NaN, so these reject it too.
        if not 0 <= rate_bps < math.inf:
            raise ValueError(f"rate_bps must be finite and >= 0, got {rate_bps}")
        if model not in ("poisson", "pareto", "cbr"):
            raise ValueError(f"unknown interarrival model {model!r}")
        if model == "pareto" and not 1.0 < alpha < math.inf:
            raise ValueError(
                f"Pareto alpha must be finite and exceed 1 for a finite mean, "
                f"got {alpha}"
            )
        # A NaN start never comes due and hangs the run; a past start
        # makes the two data paths disagree (the bulk path folds arrivals
        # before ``now``, the per-packet path cannot schedule them).
        if not sim.now <= start < math.inf:
            raise ValueError(
                f"start must be finite and >= sim.now ({sim.now}), got {start}"
            )
        if stop is not None and math.isnan(stop):
            raise ValueError("stop must be None or a number (inf: never), got nan")
        self.sim = sim
        self.network = network
        self.link = link
        self.rate_bps = float(rate_bps)
        self.rng = rng
        self.model = model
        self.alpha = float(alpha)
        self.mix = mix if mix is not None else PacketMix()
        self.stop = stop
        self.name = name
        self._packets_sent = 0
        self._bytes_sent = 0
        # Refill buffers (float64 gaps, int64 sizes), read at the cursor
        # ``_idx``.  The bulk path converts whole slices of them; the
        # per-packet readers convert one entry at a time to float/int, so
        # the clock and packets never carry NumPy scalars.
        self._sizes: np.ndarray = np.empty(0, dtype=np.int64)
        self._gaps: np.ndarray = np.empty(0, dtype=np.float64)
        self._idx = 0
        #: mean interarrival implied by the rate and mean packet size
        self.mean_gap = (
            float("inf")
            if rate_bps == 0
            else self.mix.mean_size * 8.0 / self.rate_bps
        )
        self._mod_factor = 1.0
        self.modulation = modulation
        # Segment-boundary chain: boundaries sit at exactly
        # ``_mod_anchor + k * interval`` (no float accumulation drift), on
        # both data paths.  ``_mod_next_b`` is the first boundary whose
        # factor draw has not been consumed yet; +inf once the chain dies
        # at ``stop`` (the per-packet event returns without rescheduling).
        self._mod_anchor = float(start)
        self._mod_k = 0
        self._mod_next_b = float("inf")
        # Bulk-path state (see _bulk_fill / _resume_per_packet).
        self._feed = None
        self._bulk_clock = float(start)
        self._bulk_first = True
        self._gen_packets = 0  # arrivals generated into the bulk pipeline
        self._gen_bytes = 0
        self._tail_times: list[float] = []
        self._tail_sizes: list[int] = []
        self._tail_idx = 0
        self._tail_exhausted = False
        if modulation is not None:
            interval, sigma = modulation
            if not (0 < interval < math.inf and 0 <= sigma < math.inf):
                raise ValueError(
                    f"modulation needs interval > 0 and sigma >= 0, got {modulation}"
                )
            self._mod_next_b = float(start)
        if rate_bps > 0 and bulk is not False and self._bulk_eligible():
            # Bulk sources consume boundary draws inside _bulk_fill; no
            # per-boundary events exist until a decommission restarts the
            # chain in _resume_per_packet.
            self._feed = CrossAggregator.attach(sim, link).register(self)
        else:
            if modulation is not None:
                sim.schedule_at(start, self._modulate)
            if rate_bps > 0:
                first_gap = self._warmup_offset()
                sim.schedule_at(start + first_gap, self._arrival)

    @property
    def is_bulk(self) -> bool:
        """True while this source feeds the link via the event-elided path."""
        return self._feed is not None

    @property
    def packets_sent(self) -> int:
        """Packets offered to the link so far (reading folds bulk arrivals)."""
        if self._feed is not None:
            buffered, merged = self._pending()
            return self._gen_packets - len(buffered) - len(merged)
        return self._packets_sent

    @property
    def bytes_sent(self) -> int:
        """Bytes offered to the link so far (reading folds bulk arrivals)."""
        if self._feed is not None:
            buffered, merged = self._pending()
            sizes = self.link._agg.sizes
            return (
                self._gen_bytes
                - sum(buffered.tolist())
                - sum([sizes[i] for i in merged.tolist()])
            )
        return self._bytes_sent

    def _pending(self) -> tuple[np.ndarray, np.ndarray]:
        """Arrivals generated but not yet offered to the link: the sizes
        in this source's feed buffer, and the indices of its entries in
        the aggregator's unadmitted merged tail.

        The fold loop deliberately does no per-source bookkeeping; a
        counter read instead folds due arrivals and subtracts what is
        still pending.  The merged entries are those whose ``owners``
        value is this feed's ``order``, found in one NumPy comparison.
        Reads are rare (tests, end-of-run accounting); folds are the hot
        path.
        """
        self.link.sync()
        agg = self.link._agg
        idx = agg.idx
        merged = np.flatnonzero(agg.owners[idx:] == self._feed.order) + idx
        return self._feed.sizes, merged

    def _bulk_eligible(self) -> bool:
        """Whether the event-elided path reproduces this source exactly.

        Two things disqualify a source: a link *qdisc* or *drop_hook*
        (both must observe every packet), and a link whose delivery
        callback is not the owning network's forwarding routine (a tap or
        custom handler must see every cross packet exit).  Modulation does
        *not* disqualify: rate factors are piecewise-constant, so
        ``_bulk_fill`` generates per-segment batches with the boundary
        draws taken at their exact positions in the RNG stream.
        """
        link = self.link
        return (
            link.qdisc is None
            and link.drop_hook is None
            and link.deliver == self.network._advance
        )

    def _warmup_offset(self) -> float:
        """Randomize the first arrival so sources are not phase-aligned."""
        if self.model == "cbr":
            return float(self.rng.uniform(0.0, self.mean_gap))
        return self._next_gap()

    def _refill(self) -> None:
        """Draw the next buffer of gaps and sizes; reset the cursor ``_idx``.

        Draws come in _CHUNK-sized sub-batches, alternating gaps and sizes,
        so a stationary source's RNG stream consumption order depends only
        on _CHUNK.  It draws one chunk, which keeps the bulk path no more
        than a chunk ahead of the fold.  A modulated source draws _BATCH:
        its boundary factor draws interleave with its refills, so for it
        the batch size is part of the sample path (Figs. 11-14).
        """
        mean = self.mean_gap
        rng = self.rng
        gaps: list[np.ndarray] = []
        sizes: list[np.ndarray] = []
        for _ in range(1 if self.modulation is None else _BATCH // _CHUNK):
            if self.model == "poisson":
                gaps.append(rng.exponential(mean, size=_CHUNK))
            elif self.model == "pareto":
                # numpy's Generator.pareto draws Lomax samples (x_m = 1
                # shifted to zero); interarrival = x_m * (1 + lomax) has
                # mean x_m * alpha / (alpha - 1).
                xm = mean * (self.alpha - 1.0) / self.alpha
                gaps.append(xm * (1.0 + rng.pareto(self.alpha, size=_CHUNK)))
            else:  # cbr
                gaps.append(np.full(_CHUNK, mean))
            sizes.append(self.mix.sample(rng, _CHUNK))
        if len(gaps) == 1:
            self._gaps, self._sizes = gaps[0], sizes[0]
        else:
            self._gaps, self._sizes = np.concatenate(gaps), np.concatenate(sizes)
        self._idx = 0

    def _ensure_buffered(self) -> None:
        """Refill once the current buffer is exhausted (shared by the gap and
        size readers — the single refill-exhaustion check)."""
        if self._idx >= len(self._sizes):
            self._refill()

    def _next_gap(self) -> float:
        self._ensure_buffered()
        return float(self._gaps[self._idx])

    # ------------------------------------------------------------------
    # Per-packet data path
    # ------------------------------------------------------------------
    def _arrival(self) -> None:
        now = self.sim.now
        if self.stop is not None and now >= self.stop:
            return
        self._ensure_buffered()
        size = int(self._sizes[self._idx])
        pkt = Packet(size, flow_id=self.name, kind=PacketKind.CROSS)
        self.network.inject_at(self.link, pkt)
        self._packets_sent += 1
        self._bytes_sent += size
        self._idx += 1
        self.sim.schedule(self._next_gap() / self._mod_factor, self._arrival)

    def _modulate(self) -> None:
        """Mean-reverting lognormal random walk of the instantaneous rate.

        Rescheduled at the exactly representable ``anchor + k * interval``
        (not ``now + interval``), so segment boundaries carry no float
        accumulation drift and the bulk generator's ``_mod_consume`` lands
        on bit-identical boundary instants.
        """
        if self.stop is not None and self.sim.now >= self.stop:
            self._mod_next_b = float("inf")  # chain dies permanently
            return
        interval, sigma = self.modulation  # type: ignore[misc]
        # pull the log-factor halfway back to 0, then perturb
        log_factor = 0.5 * float(np.log(self._mod_factor))
        log_factor += float(self.rng.normal(0.0, sigma))
        self._mod_factor = float(np.clip(np.exp(log_factor), 0.25, 2.5))
        self._mod_k += 1
        self._mod_next_b = self._mod_anchor + self._mod_k * interval
        self.sim.schedule_at(self._mod_next_b, self._modulate)

    def _mod_consume(self, limit: float, inclusive: bool = True) -> None:
        """Consume every boundary draw up to ``limit`` (batch twin of the
        ``_modulate`` event chain).

        Applies the identical float expressions in the identical RNG
        stream positions; ``inclusive`` selects ``b <= limit`` (the bulk
        generator's boundary-first tie rule) vs ``b < limit`` (used by
        ``_resume_per_packet``, where a boundary at exactly *now* must
        stay an event because the decommission fired first).
        """
        b = self._mod_next_b
        if (b > limit) if inclusive else (b >= limit):
            return
        interval, sigma = self.modulation  # type: ignore[misc]
        stop = self.stop
        anchor = self._mod_anchor
        k = self._mod_k
        rng = self.rng
        f = self._mod_factor
        while (b <= limit) if inclusive else (b < limit):
            if stop is not None and b >= stop:
                b = float("inf")  # chain dies permanently, factor frozen
                break
            log_factor = 0.5 * float(np.log(f))
            log_factor += float(rng.normal(0.0, sigma))
            f = float(np.clip(np.exp(log_factor), 0.25, 2.5))
            k += 1
            b = anchor + k * interval
        self._mod_factor = f
        self._mod_k = k
        self._mod_next_b = b

    # ------------------------------------------------------------------
    # Bulk data path
    # ------------------------------------------------------------------
    def _bulk_fill(self, feed) -> None:
        """Top ``feed`` up with the next chunk of absolute arrivals.

        Does nothing while the feed still holds ``_CHUNK`` arrivals or
        more, so the aggregator can offer every feed a top-up at each
        merge and the source stays about one chunk ahead of the fold.

        The arrival times are the identical floating-point sums the
        per-packet path computes: ``Simulator.schedule(gap, ...)`` adds
        ``gap`` to the current arrival's timestamp, and so does each step
        of the ``np.cumsum`` in :func:`_arrival_times`.  RNG consumption
        order — warmup draw, then alternating gap/size chunks per refill,
        with modulation boundary draws interleaved at their event
        positions — is byte-identical.  Times and sizes stay float64 and
        int64 arrays up to the merge, which turns them into lists.
        """
        if len(feed.times) >= _CHUNK:
            return
        if self.modulation is not None:
            times, sizes = self._segmented_times()
        else:
            times, sizes = self._stationary_times()
        stop = self.stop
        if stop is not None and times[-1] >= stop:
            # The per-packet path returns (without rescheduling) at the
            # first arrival >= stop; truncate there and finish the feed.
            keep = int(times.searchsorted(stop, "left"))
            times = times[:keep]
            sizes = sizes[:keep]
            feed.done = True
        self._gen_packets += len(times)
        self._gen_bytes += int(sizes.sum())  # exact: see _MAX_PACKET_SIZE
        feed.times = np.concatenate((feed.times, times))
        feed.sizes = np.concatenate((feed.sizes, sizes))

    def _stationary_times(self) -> tuple[np.ndarray, np.ndarray]:
        """The next chunk of unmodulated absolute arrival times and sizes.

        A stationary refill is one chunk; each call draws a fresh one and
        converts all of it.
        """
        skip_first_gap = False
        if self._bulk_first:
            self._bulk_first = False
            if self.model == "cbr":
                # Mirrors _warmup_offset: the uniform phase offset replaces
                # the first buffered gap (which the per-packet path never
                # consumes for cbr either).
                self._bulk_clock += float(self.rng.uniform(0.0, self.mean_gap))
                skip_first_gap = True
        self._refill()
        self._idx = _CHUNK  # the whole chunk is consumed by this call
        if skip_first_gap:
            times = _arrival_times(self._bulk_clock, self._gaps[1:])
        else:
            times = _arrival_times(self._bulk_clock, self._gaps)[1:]
        self._bulk_clock = float(times[-1])
        return times, self._sizes

    def _segmented_times(self) -> tuple[np.ndarray, np.ndarray]:
        """The next chunk of modulated arrivals, generated per rate-factor
        segment.

        Converts at most ``_CHUNK`` entries of the ``_BATCH`` buffer from
        the cursor ``_idx``, walking the gap draws exactly as the
        per-packet path's event chain would: each gap is divided by the
        factor in force at the *previous* arrival's instant
        (``schedule(gap / factor)`` happens at that event), and each
        boundary's factor draw is consumed once the walk reaches it — the
        same position in the RNG stream the ``_modulate`` event occupies.
        Within a segment the arrival times are one seeded prefix sum over
        ``gap / factor`` (one array division, correctly rounded per gap
        like the scalar one, then left-to-right adds — the identical float
        expressions, in order).  Where a call stops
        inside the buffer does not matter: the next one resumes the walk
        at the same cursor, clock and boundary.
        """
        t = self._bulk_clock
        parts: list[np.ndarray] = []
        if self._bulk_first:
            self._bulk_first = False
            if self.model == "cbr":
                t += float(self.rng.uniform(0.0, self.mean_gap))
                # Boundaries up to the first arrival fire before its event
                # (and before the first refill, which the per-packet path
                # performs at that event).  gaps[0] is replaced by the
                # uniform phase offset.
                self._mod_consume(t)
                self._refill()
            else:
                self._refill()
                # The first arrival is scheduled at construction from the
                # raw first gap — never factor-divided (no boundary has
                # fired when it is computed).
                t = t + float(self._gaps[0])
            parts.append(np.array([t]))
        elif self._idx >= len(self._sizes):
            # A boundary at or before the previous batch's last arrival
            # may be unconsumed (its crossing arrival closed that batch);
            # per-packet it fires before that arrival's event — which is
            # where this refill happens — so consume it before drawing.
            self._mod_consume(t)
            self._refill()
        gaps = self._gaps
        first = self._idx
        end = min(first + _CHUNK, len(gaps))
        idx = first + len(parts)  # the first arrival took buffer index 0
        mean_gap = self.mean_gap
        while idx < end:
            # Boundaries at or before the last emitted arrival have fired
            # (boundary-first on an exact tie; see the module docstring).
            self._mod_consume(t)
            f = self._mod_factor
            b = self._mod_next_b
            if b == float("inf"):
                # Chain dead (stop reached): the factor is frozen.
                seg = _arrival_times(t, gaps[idx:end] / f)
                parts.append(seg[1:])
                t = float(seg[-1])
                break
            # Generate this segment's window: everything up to and
            # including the first arrival at or past the boundary (that
            # arrival's time was computed from a predecessor before the
            # boundary, so it still uses factor ``f``).
            est = int((b - t) * f / mean_gap * 1.25) + 16
            remaining = end - idx
            if est > remaining:
                est = remaining
            seg = _arrival_times(t, gaps[idx:idx + est] / f)
            cut = int(seg.searchsorted(b, "left"))  # >= 1: seg[0] == t < b
            keep = cut if cut <= est else est
            parts.append(seg[1:keep + 1])
            t = float(seg[keep])
            idx += keep
        self._idx = end
        self._bulk_clock = t
        return np.concatenate(parts), self._sizes[first:end]

    def _resume_per_packet(
        self, times: list[float], sizes: list[int], exhausted: bool
    ) -> None:
        """Switch back to the per-packet path (bulk decommissioning).

        ``times``/``sizes`` are this source's not-yet-admitted future
        arrivals, exactly as the per-packet path would have generated
        them; they are replayed as ordinary scheduled events.  Once the
        tail drains, generation continues from the cursor ``_idx`` — just
        past the last arrival the bulk path generated, for a modulated
        source usually inside its batch — and refills only once the
        buffer is spent: the same stream position the per-packet path
        would have reached.
        """
        self._feed = None
        # Everything generated minus the returned tail has been folded into
        # the link; resume the eager per-packet counters from there.
        self._packets_sent = self._gen_packets - len(times)
        self._bytes_sent = self._gen_bytes - sum(sizes)
        self._tail_times = times
        self._tail_sizes = sizes
        self._tail_idx = 0
        self._tail_exhausted = exhausted
        if times:
            self.sim.schedule_at(times[0], self._tail_arrival)
            if self.modulation is not None and not exhausted:
                # Boundary draws up to the tail's end were consumed when
                # its chunks were generated (leftovers here); restart the
                # event chain for the boundaries beyond it.
                self._mod_consume(self._bulk_clock)
                if self._mod_next_b != float("inf"):
                    self.sim.schedule_at(self._mod_next_b, self._modulate)
        elif not exhausted:
            if self._bulk_first:
                # Decommissioned before the first batch was ever generated:
                # start exactly as the per-packet constructor would have.
                self._bulk_first = False
                first_gap = self._warmup_offset()
                if self.modulation is not None:
                    self._mod_consume(self.sim.now, inclusive=False)
                    if self._mod_next_b != float("inf"):
                        self.sim.schedule_at(self._mod_next_b, self._modulate)
                self.sim.schedule_at(self._bulk_clock + first_gap, self._arrival)
            else:
                if self.modulation is not None:
                    # Boundaries up to the last folded arrival were consumed
                    # with its chunk; a refill below (buffer spent) happens,
                    # per-packet, at that arrival's event, before any later
                    # boundary.
                    self._mod_consume(self._bulk_clock)
                gap = self._next_gap() / self._mod_factor
                if self.modulation is not None:
                    # Boundaries that per-packet fired between the last
                    # arrival and now draw here; the rest become events.
                    self._mod_consume(self.sim.now, inclusive=False)
                    if self._mod_next_b != float("inf"):
                        self.sim.schedule_at(self._mod_next_b, self._modulate)
                self.sim.schedule_at(self._bulk_clock + gap, self._arrival)

    def _tail_arrival(self) -> None:
        now = self.sim.now
        if self.stop is not None and now >= self.stop:
            return
        i = self._tail_idx
        size = self._tail_sizes[i]
        pkt = Packet(size, flow_id=self.name, kind=PacketKind.CROSS)
        self.network.inject_at(self.link, pkt)
        self._packets_sent += 1
        self._bytes_sent += size
        self._tail_idx = i = i + 1
        if i < len(self._tail_times):
            self.sim.schedule_at(self._tail_times[i], self._tail_arrival)
        elif not self._tail_exhausted:
            self._tail_times = []
            self._tail_sizes = []
            self.sim.schedule(self._next_gap() / self._mod_factor, self._arrival)


def attach_cross_traffic(
    sim: Simulator,
    network: PathNetwork,
    link: Link,
    rate_bps: float,
    rng: np.random.Generator,
    n_sources: int = 10,
    model: str = "pareto",
    alpha: float = 1.9,
    mix: Optional[PacketMix] = None,
    start: float = 0.0,
    stop: Optional[float] = None,
    modulation: Optional[tuple[float, float]] = None,
    bulk: Optional[bool] = None,
) -> list[CrossTrafficSource]:
    """Attach the paper's per-link workload: ``n_sources`` independent sources.

    The aggregate offered load is ``rate_bps``, split evenly; each source
    gets an independent RNG stream spawned from ``rng`` so that changing one
    source's draws cannot perturb another's.  ``bulk`` selects the data
    path per source (see :class:`CrossTrafficSource`).
    """
    if n_sources <= 0:
        raise ValueError(f"n_sources must be positive, got {n_sources}")
    children = rng.spawn(n_sources)
    return [
        CrossTrafficSource(
            sim,
            network,
            link,
            rate_bps / n_sources,
            child,
            model=model,
            alpha=alpha,
            mix=mix,
            start=start,
            stop=stop,
            name=f"cross-{link.name}-{i}",
            modulation=modulation,
            bulk=bulk,
        )
        for i, child in enumerate(children)
    ]
