"""Deterministic sim-time tracing for the simulation substrate.

A :class:`Tracer` collects:

* **trace events** — sim-time-stamped spans and instants (probe streams,
  fleet decisions, link drops, TCP cwnd changes, sweep task lifecycle);
* **metrics** — a :class:`~repro.obs.metrics.MetricsRegistry` of counters /
  gauges / histograms (events executed, heap high-water, per-link byte
  counters, queue-occupancy high-water, cache hits, task wall times);
* **fleet decision records** — one structured :class:`FleetDecision` per
  pathload fleet: rate, PCT/PDT values, verdict, and the rate-search
  bracket / grey region before and after the verdict was folded in.

Determinism contract
--------------------
Tracing is an *observer*: it never schedules events, draws random numbers,
or mutates simulation state, so ``Simulator.digest()`` and every experiment
report are bit-identical with a tracer attached or absent
(``tests/test_obs.py`` asserts both).  All event timestamps are simulated
time; the only wall-clock quantities are host-side sweep timings, which
are confined to ``wall``-prefixed argument keys and excluded from
:meth:`Tracer.event_digest` (so traces of the same seeded run diff clean
across machines).

Nil-tracer fast path
--------------------
Instrumented components cache the tracer in a slot at construction; when
no tracer is attached the entire disabled cost is **one attribute
None-check** per instrumentation point (benchmarked by the
``REPRO_PERF_GATE`` guard in ``benchmarks/test_perf_substrate.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from .metrics import MetricsRegistry
from ..netsim import kernels as netsim_kernels

__all__ = ["TraceEvent", "FleetDecision", "Tracer"]


@dataclass(frozen=True)
class TraceEvent:
    """One trace record: an instant (``dur is None``) or a complete span.

    ``ts`` and ``dur`` are simulated seconds except on the ``sweep`` track,
    where ``ts`` is the task's submission index (the sweep executor has no
    simulated clock; see docs/observability.md).
    """

    ts: float
    name: str
    cat: str
    track: str = "sim"
    dur: Optional[float] = None
    args: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        """Plain-dict form used by the JSONL exporter."""
        out: dict = {"ts": self.ts, "name": self.name, "cat": self.cat,
                     "track": self.track}
        if self.dur is not None:
            out["dur"] = self.dur
        if self.args:
            out["args"] = self.args
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "TraceEvent":
        """Inverse of :meth:`to_dict`."""
        return cls(
            ts=data["ts"],
            name=data["name"],
            cat=data["cat"],
            track=data.get("track", "sim"),
            dur=data.get("dur"),
            args=data.get("args", {}),
        )


@dataclass(frozen=True)
class FleetDecision:
    """Structured record of one pathload fleet verdict (Section IV/V).

    Captures everything needed to audit a bracket move: the probed rate,
    the per-stream PCT/PDT metrics behind the verdict, and the
    ``[R_min, R_max]`` / grey-region bounds before and after
    :meth:`~repro.core.rate_adjust.RateAdjuster.record` folded the verdict
    in.  Bracket tuples are ``(rmin, rmax, gmin, gmax)`` with ``None`` for
    an absent grey region.
    """

    index: int
    rate_bps: float
    outcome: str
    stream_types: str  # e.g. "IINNA" — one letter per stream, in order
    pct: tuple[float, ...]
    pdt: tuple[float, ...]
    n_increasing: int
    n_nonincreasing: int
    bracket_before: tuple[float, float, Optional[float], Optional[float]]
    bracket_after: tuple[float, float, Optional[float], Optional[float]]
    next_rate_bps: float
    t_start: float
    t_end: float

    def to_dict(self) -> dict:
        """Plain-dict form used by the result envelope and JSONL exporter."""
        return {
            "index": self.index,
            "rate_bps": self.rate_bps,
            "outcome": self.outcome,
            "stream_types": self.stream_types,
            "pct": list(self.pct),
            "pdt": list(self.pdt),
            "n_increasing": self.n_increasing,
            "n_nonincreasing": self.n_nonincreasing,
            "bracket_before": list(self.bracket_before),
            "bracket_after": list(self.bracket_after),
            "next_rate_bps": self.next_rate_bps,
            "t_start": self.t_start,
            "t_end": self.t_end,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FleetDecision":
        """Inverse of :meth:`to_dict` (lists restored to tuples)."""
        return cls(
            index=data["index"],
            rate_bps=data["rate_bps"],
            outcome=data["outcome"],
            stream_types=data["stream_types"],
            pct=tuple(data["pct"]),
            pdt=tuple(data["pdt"]),
            n_increasing=data["n_increasing"],
            n_nonincreasing=data["n_nonincreasing"],
            bracket_before=tuple(data["bracket_before"]),
            bracket_after=tuple(data["bracket_after"]),
            next_rate_bps=data["next_rate_bps"],
            t_start=data["t_start"],
            t_end=data["t_end"],
        )


def _bracket(state) -> tuple[float, float, Optional[float], Optional[float]]:
    """(rmin, rmax, gmin, gmax) from an AdjusterState."""
    return (state.rmin_bps, state.rmax_bps, state.gmin_bps, state.gmax_bps)


class Tracer:
    """Collects trace events, metrics, and pathload decision records.

    Attach to a simulator *before* building the topology so every
    component caches the tracer at construction::

        tracer = Tracer()
        sim = Simulator()
        tracer.attach(sim)
        setup = build_fig4_path(sim, cfg, rng)
        tracer.register_network(setup.network)

    (``register_network`` also retrofits links built before ``attach``.)
    Export with :meth:`write_jsonl` / :meth:`write_perfetto` /
    :meth:`write_prometheus`, or suffix-dispatched :meth:`write`.
    """

    def __init__(
        self, metrics: Optional[MetricsRegistry] = None, light: bool = False
    ):
        #: Light mode buffers only aggregate counters, spans, and decision
        #: records — never per-packet events — so the event-elided fast
        #: paths (stream transit *and* flow transit) stay engaged.  Full
        #: tracers (the default) get per-packet visibility at the cost of
        #: dissolving flow transit (docs/observability.md has the matrix).
        self.light = bool(light)
        self.events: list[TraceEvent] = []
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.decisions: list[FleetDecision] = []
        #: links registered for metric folding, in registration order
        self._links: list = []
        self._link_names: set[str] = set()
        self._sims: list = []
        # Engine/link counters updated inline on hot paths; folded into the
        # registry by :meth:`collect_metrics` (plain attributes beat a
        # registry lookup per event).
        self._engine_events = 0
        self._heap_high_water = 0
        self._queue_high_water: dict[str, int] = {}
        # Kernel-selection counters are process-wide; baseline them at
        # construction so this tracer reports activity *it observed* —
        # essential in (possibly reused, possibly forked) sweep workers.
        self._kernel_base = netsim_kernels.counts()
        # Child-tracer telemetry folded in by :meth:`merge_child`.
        self._kernel_merged: tuple[dict, dict] = ({}, {})
        self._sched_merged: dict[str, int] = {}
        self._merged_tasks = 0

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def attach(self, sim) -> "Tracer":
        """Install this tracer on ``sim``; components built afterwards
        cache it at construction.  Returns ``self`` for chaining."""
        sim.tracer = self
        if sim not in self._sims:
            self._sims.append(sim)
        return self

    def register_link(self, link) -> None:
        """Track ``link`` for per-link metrics; retrofits the link's cached
        tracer slot if the link was built before :meth:`attach`.  Light
        tracers leave the slot ``None``: per-packet drop/enqueue callbacks
        stay off and a lone probe stream over the link stays batched —
        the link still feeds the cumulative per-link metrics via
        :meth:`collect_metrics`."""
        if not self.light:
            link._tracer = self
        if link.name not in self._link_names:
            self._link_names.add(link.name)
            self._links.append(link)

    def register_network(self, network) -> None:
        """Register every link of a :class:`~repro.netsim.path.PathNetwork`."""
        for link in network.forward_links:
            self.register_link(link)
        for link in network.reverse_links:
            self.register_link(link)

    # ------------------------------------------------------------------
    # Event emission
    # ------------------------------------------------------------------
    def instant(
        self,
        ts: float,
        cat: str,
        name: str,
        track: str = "sim",
        args: Optional[dict] = None,
    ) -> None:
        """Record an instantaneous event at simulated time ``ts``."""
        self.events.append(
            TraceEvent(ts=ts, name=name, cat=cat, track=track,
                       args=args if args is not None else {})
        )

    def span(
        self,
        t_start: float,
        t_end: float,
        cat: str,
        name: str,
        track: str = "sim",
        args: Optional[dict] = None,
    ) -> None:
        """Record a completed span ``[t_start, t_end]``."""
        self.events.append(
            TraceEvent(ts=t_start, name=name, cat=cat, track=track,
                       dur=max(0.0, t_end - t_start),
                       args=args if args is not None else {})
        )

    # ------------------------------------------------------------------
    # Instrumentation callbacks (called by components when tracing is on)
    # ------------------------------------------------------------------
    def on_link_drop(self, link, pkt, now: float) -> None:
        """A foreground packet hit the drop-tail buffer (or qdisc) of ``link``."""
        if self.light:  # per-packet events are exactly what light mode trades away
            return
        self.instant(
            now,
            "link",
            "drop",
            track=link.name,
            args={
                "size": pkt.size,
                "flow": pkt.flow_id,
                "kind": pkt.kind,
                "backlog": link._backlog_bytes,
            },
        )

    def on_link_enqueue(self, name: str, backlog_bytes: int) -> None:
        """Track queue-occupancy high-water after a foreground acceptance."""
        hw = self._queue_high_water
        if backlog_bytes > hw.get(name, 0):
            hw[name] = backlog_bytes

    def fleet_decision(self, *, index, record, before, after, next_rate_bps):
        """Record one fleet verdict (called by the pathload controller).

        ``record`` is a :class:`~repro.core.fleet.FleetRecord`; ``before``
        and ``after`` are :class:`~repro.core.rate_adjust.AdjusterState`
        snapshots around ``RateAdjuster.record``.
        """
        summary = record.decision_summary()
        decision = FleetDecision(
            index=index,
            rate_bps=summary["rate_bps"],
            outcome=summary["outcome"],
            stream_types=summary["streams"],
            pct=tuple(summary["pct"]),
            pdt=tuple(summary["pdt"]),
            n_increasing=summary["n_increasing"],
            n_nonincreasing=summary["n_nonincreasing"],
            bracket_before=_bracket(before),
            bracket_after=_bracket(after),
            next_rate_bps=next_rate_bps,
            t_start=record.t_start,
            t_end=record.t_end,
        )
        self.decisions.append(decision)
        args = dict(summary)
        args["bracket_before"] = list(decision.bracket_before)
        args["bracket_after"] = list(decision.bracket_after)
        args["next_rate_bps"] = next_rate_bps
        self.span(
            record.t_start,
            record.t_end,
            "fleet",
            f"fleet[{index}] {decision.outcome}",
            track="pathload",
            args=args,
        )
        return decision

    # ------------------------------------------------------------------
    # Metrics folding + export
    # ------------------------------------------------------------------
    def collect_metrics(self) -> MetricsRegistry:
        """Fold engine/link instrumentation into the registry and return it.

        Idempotent in the sense that gauges are set (not accumulated) and
        the per-link counters are set from the links' cumulative stats.
        """
        from ..netsim.flowtransit import FLOW_FALLBACK_REASONS, STREAM_FALLBACK_REASONS

        m = self.metrics
        m.gauge(
            "repro_engine_events_executed",
            help="scheduler callbacks executed across attached simulators",
        ).set(self._engine_events)
        m.gauge(
            "repro_engine_heap_high_water",
            help="largest event-heap size observed",
        ).high_water(self._heap_high_water)
        sched: dict[str, int] = dict(self._sched_merged)
        if self._sims:
            sched["heap"] = sched.get("heap", 0) + len(self._sims)
        for kind in sorted(sched):
            m.gauge(
                "repro_engine_simulators",
                labels={"scheduler": kind},
                help="simulators observed, by scheduler kind",
            ).set(sched[kind])
        netsim_kernels.publish(
            m, base=self._kernel_base, merged=self._kernel_merged
        )
        # Declared-but-zero fast-path series: dashboards and the health
        # report see every known reason before its first increment.
        m.counter(
            "repro_fastpath_streams_total",
            help="probe streams carried by the analytic stream-transit "
            "fast path",
        )
        for reason in STREAM_FALLBACK_REASONS:
            m.counter(
                "repro_fastpath_fallback_total",
                labels={"reason": reason},
                help="probe streams that took the per-packet path, by reason",
            )
        m.counter(
            "repro_fastpath_flows_total",
            help="TCP flows carried by the flow-transit fast path",
        )
        for reason in FLOW_FALLBACK_REASONS:
            m.counter(
                "repro_fastpath_flow_fallback_total",
                labels={"reason": reason},
                help="TCP flows that took the per-packet path, by reason",
            )
        for path in ("elided", "per-packet"):
            m.counter(
                "repro_probe_packets_total",
                labels={"path": path},
                help="probe packets by transit path at send time",
            )
        for link in self._links:
            stats = link.stats  # folds pending bulk arrivals first
            labels = {"link": link.name}
            for field_name in (
                "bytes_forwarded",
                "packets_forwarded",
                "bytes_dropped",
                "packets_dropped",
            ):
                gauge = m.gauge(
                    f"repro_link_{field_name}",
                    labels=labels,
                    help=f"cumulative {field_name.replace('_', ' ')} on the link",
                )
                gauge.set(getattr(stats, field_name))
        for name in sorted(self._queue_high_water):
            m.gauge(
                "repro_link_queue_high_water_bytes",
                labels={"link": name},
                help="largest backlog observed at a foreground enqueue",
            ).high_water(self._queue_high_water[name])
        return m

    # ------------------------------------------------------------------
    # Cross-process envelope codec (repro.parallel)
    # ------------------------------------------------------------------
    def dump_state(self) -> dict:
        """Serialize this tracer for the sweep result envelope.

        Plain data only (JSON/pickle-safe): events, decisions, and a
        lossless metrics dump.  A sweep worker calls this after its task
        and the parent folds it back with :meth:`merge_child`; the same
        payload is stored in the ``.repro_cache`` entry so cache hits
        replay telemetry bit-identically.
        """
        return {
            "version": 1,
            "light": self.light,
            "events": [e.to_dict() for e in self.events],
            "decisions": [d.to_dict() for d in self.decisions],
            "metrics": self.collect_metrics().dump(),
        }

    def merge_child(self, state: Optional[dict], index: int) -> None:
        """Fold a child tracer's :meth:`dump_state` into this tracer.

        Events keep their sim timestamps but move to task-namespaced
        tracks (``task<index>/<track>``, with ``index`` the submission
        index), so the merged stream — and hence :meth:`event_digest` —
        is identical however tasks were distributed over workers or
        replayed from cache.  Counters and histograms add; gauges fold by
        max; per-link series are namespaced like tracks; engine and
        kernel counters fold into this tracer's own accumulators so
        totals stay layout-independent.
        """
        if not state:
            return
        prefix = f"task{index}/"
        append = self.events.append
        for data in state.get("events", ()):
            ev = TraceEvent.from_dict(data)
            append(
                TraceEvent(
                    ts=ev.ts,
                    name=ev.name,
                    cat=ev.cat,
                    track=prefix + ev.track,
                    dur=ev.dur,
                    args=ev.args,
                )
            )
        for data in state.get("decisions", ()):
            self.decisions.append(FleetDecision.from_dict(data))
        merged_calls, merged_fallbacks = self._kernel_merged
        passthrough: list[dict] = []
        for entry in state.get("metrics", ()):
            name = entry["name"]
            labels = dict(entry.get("labels", ()))
            if name == "repro_kernel_calls_total":
                k = labels.get("kernel", "")
                merged_calls[k] = merged_calls.get(k, 0) + entry["value"]
            elif name == "repro_kernel_fallback_total":
                r = labels.get("reason", "")
                if r in netsim_kernels.ONE_SHOT_REASONS:
                    merged_fallbacks[r] = max(
                        merged_fallbacks.get(r, 0), entry["value"]
                    )
                else:
                    merged_fallbacks[r] = (
                        merged_fallbacks.get(r, 0) + entry["value"]
                    )
            elif name == "repro_engine_events_executed":
                self._engine_events += entry["value"]
            elif name == "repro_engine_heap_high_water":
                if entry["value"] > self._heap_high_water:
                    self._heap_high_water = entry["value"]
            elif name == "repro_engine_simulators":
                kind = labels.get("scheduler", "heap")
                self._sched_merged[kind] = (
                    self._sched_merged.get(kind, 0) + entry["value"]
                )
            else:
                if "link" in labels:
                    entry = dict(entry)
                    entry["labels"] = [
                        [k, prefix + v if k == "link" else v]
                        for k, v in entry["labels"]
                    ]
                passthrough.append(entry)
        self.metrics.merge(passthrough)
        self._merged_tasks += 1

    def event_digest(self) -> str:
        """Digest of the event stream (wall/host-prefixed args excluded)."""
        from .exporters import events_digest

        return events_digest(self.events)

    def write_jsonl(self, path: str) -> None:
        """Write the trace (events + decisions + metrics snapshot) as JSONL."""
        from .exporters import write_jsonl

        write_jsonl(
            self.events,
            path,
            metrics=self.collect_metrics(),
            decisions=self.decisions,
        )

    def write_perfetto(self, path: str) -> None:
        """Write a Chrome trace-event JSON file loadable in Perfetto."""
        from .exporters import write_perfetto

        write_perfetto(self.events, path)

    def write_prometheus(self, path: str) -> None:
        """Write the metrics snapshot in Prometheus text format."""
        registry = self.collect_metrics()
        with open(path, "w") as fh:
            fh.write(registry.to_prometheus())

    def write(self, path: str) -> None:
        """Suffix-dispatched export: ``.jsonl`` → JSONL, ``.prom``/``.txt``
        → Prometheus text, anything else → Perfetto JSON."""
        if path.endswith(".jsonl"):
            self.write_jsonl(path)
        elif path.endswith((".prom", ".txt")):
            self.write_prometheus(path)
        else:
            self.write_perfetto(path)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Tracer {len(self.events)} events, {len(self.decisions)} "
            f"decisions, {len(self.metrics)} metrics>"
        )
