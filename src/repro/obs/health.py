"""Run-health audit: a structured report derived from merged metrics.

A :class:`RunHealth` answers the operational questions a campaign owner
asks after (or during) a sweep, from nothing but a metrics snapshot —
live from a :class:`~repro.obs.tracer.Tracer` or re-read from the
trailing ``metrics`` line of a JSONL trace:

* how much of the run was event-elided vs simulated per-packet (probe
  packets by path, streams and TCP flows by fast-path outcome)?
* *why* did anything fall back — fast-path refusals and dissolves,
  kernel opt-outs — and on which links did packets die?
* what did the engine do (events executed, heap high-water, scheduler
  kinds) and how did the sweep cache behave?

The report ends with **hints**: actionable sentences produced only when
a known pathology is visible (e.g. a full tracer dissolving flow
transit → "use --trace-light").  Everything here is derived data; the
module never touches a simulator and never prints — rendering belongs
to the CLI front ends (rule SIM007).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

__all__ = ["RunHealth", "health_from_snapshot", "health_from_tracer"]

#: A per-packet link drop share above this is worth a hint: the paper's
#: operating points lose far less except when deliberately overloaded.
DROP_FRACTION_HINT = 0.05


def _labeled(snapshot: dict, family: str, label: str) -> dict[str, float]:
    """``{label value: sample value}`` for one labeled metric family."""
    fam = snapshot.get(family)
    if not fam:
        return {}
    out: dict[str, float] = {}
    for sample in fam["samples"]:
        if sample["name"] != family:
            continue  # histogram _bucket/_sum/_count expansions
        value = sample["labels"].get(label)
        if value is not None:
            out[value] = out.get(value, 0) + sample["value"]
    return out


def _scalar(snapshot: dict, family: str) -> float:
    """Sum of a family's unlabeled (or all) plain samples."""
    fam = snapshot.get(family)
    if not fam:
        return 0
    return sum(s["value"] for s in fam["samples"] if s["name"] == family)


@dataclass
class RunHealth:
    """Structured health report; see :func:`health_from_snapshot`."""

    #: probe packets by transit path at send time
    probe_packets_elided: int = 0
    probe_packets_per_packet: int = 0
    #: probe streams: fast-path successes and per-reason fallbacks
    streams_fast: int = 0
    stream_fallbacks: dict = field(default_factory=dict)
    #: TCP flows: flow-transit successes and per-reason fallbacks
    flows_planned: int = 0
    flow_fallbacks: dict = field(default_factory=dict)
    #: NumPy kernels: per-kernel selections and per-reason declines
    kernel_calls: dict = field(default_factory=dict)
    kernel_declines: dict = field(default_factory=dict)
    #: engine totals
    engine_events: int = 0
    heap_high_water: int = 0
    simulators: dict = field(default_factory=dict)
    #: per-link table: name -> {bytes/packets forwarded/dropped,
    #: drop_fraction, queue_high_water_bytes}
    links: dict = field(default_factory=dict)
    #: sweep executor counters
    cache_hits: int = 0
    cache_misses: int = 0
    task_failures: int = 0
    #: actionable findings, one sentence each
    hints: list = field(default_factory=list)

    @property
    def probe_packets_total(self) -> int:
        return self.probe_packets_elided + self.probe_packets_per_packet

    @property
    def elided_fraction(self) -> Optional[float]:
        """Fraction of probe packets that never became engine events, or
        ``None`` when no probe packets were observed."""
        total = self.probe_packets_total
        if total == 0:
            return None
        return self.probe_packets_elided / total

    def to_dict(self) -> dict:
        """JSON-ready form (the ``health`` block of ``summarize --json``)."""
        return {
            "probe_packets": {
                "elided": self.probe_packets_elided,
                "per_packet": self.probe_packets_per_packet,
                "elided_fraction": self.elided_fraction,
            },
            "streams": {
                "fast": self.streams_fast,
                "fallbacks": dict(sorted(self.stream_fallbacks.items())),
            },
            "flows": {
                "planned": self.flows_planned,
                "fallbacks": dict(sorted(self.flow_fallbacks.items())),
            },
            "kernels": {
                "calls": dict(sorted(self.kernel_calls.items())),
                "declines": dict(sorted(self.kernel_declines.items())),
            },
            "engine": {
                "events_executed": self.engine_events,
                "heap_high_water": self.heap_high_water,
                "simulators": dict(sorted(self.simulators.items())),
            },
            "links": {name: self.links[name] for name in sorted(self.links)},
            "sweep": {
                "cache_hits": self.cache_hits,
                "cache_misses": self.cache_misses,
                "task_failures": self.task_failures,
            },
            "hints": list(self.hints),
        }

    def render_text(self) -> str:
        """Human-readable report (what ``repro-trace health`` shows)."""
        lines: list[str] = []
        total = self.probe_packets_total
        if total:
            frac = self.elided_fraction or 0.0
            lines.append(
                f"probe packets   {total} "
                f"({self.probe_packets_elided} elided / "
                f"{self.probe_packets_per_packet} per-packet, "
                f"{100.0 * frac:.1f}% elided)"
            )
        else:
            lines.append("probe packets   none observed")

        def _outcomes(label: str, fast: int, fallbacks: dict) -> None:
            parts = [f"{label}  {fast} fast-path"]
            nonzero = {r: n for r, n in sorted(fallbacks.items()) if n}
            if nonzero:
                detail = ", ".join(f"{r}={n}" for r, n in nonzero.items())
                parts.append(f"fallbacks: {detail}")
            lines.append(" | ".join(parts))

        _outcomes("probe streams ", self.streams_fast, self.stream_fallbacks)
        _outcomes("tcp flows     ", self.flows_planned, self.flow_fallbacks)
        calls = {k: n for k, n in sorted(self.kernel_calls.items()) if n}
        declines = {r: n for r, n in sorted(self.kernel_declines.items()) if n}
        lines.append(
            "kernels         "
            + (", ".join(f"{k}={n}" for k, n in calls.items()) or "unused")
            + (
                " | declines: " + ", ".join(f"{r}={n}" for r, n in declines.items())
                if declines
                else ""
            )
        )
        sims = ", ".join(
            f"{kind}={n}" for kind, n in sorted(self.simulators.items()) if n
        )
        lines.append(
            f"engine          {self.engine_events} events, heap high-water "
            f"{self.heap_high_water}" + (f", simulators: {sims}" if sims else "")
        )
        for name in sorted(self.links):
            row = self.links[name]
            lines.append(
                f"link {name}: {row['packets_forwarded']} pkts fwd, "
                f"{row['packets_dropped']} dropped "
                f"({100.0 * row['drop_fraction']:.2f}%), queue high-water "
                f"{row['queue_high_water_bytes']} B"
            )
        if self.cache_hits or self.cache_misses or self.task_failures:
            lines.append(
                f"sweep           {self.cache_hits} cache hits, "
                f"{self.cache_misses} misses, {self.task_failures} failures"
            )
        if self.hints:
            lines.append("hints:")
            for hint in self.hints:
                lines.append(f"  - {hint}")
        else:
            lines.append("hints:          none — run looks healthy")
        return "\n".join(lines)


def health_from_snapshot(snapshot: Optional[dict]) -> RunHealth:
    """Derive a :class:`RunHealth` from a metrics snapshot dict.

    Accepts the exact structure :meth:`MetricsRegistry.snapshot` produces
    (also the trailing ``metrics`` line of a JSONL trace).  ``None`` or an
    empty snapshot yields an empty (but renderable) report.
    """
    health = RunHealth()
    if not snapshot:
        health.hints.append(
            "no metrics snapshot available; re-export the trace with a "
            "current Tracer to get a health block"
        )
        return health
    paths = _labeled(snapshot, "repro_probe_packets_total", "path")
    health.probe_packets_elided = int(paths.get("elided", 0))
    health.probe_packets_per_packet = int(paths.get("per-packet", 0))
    health.streams_fast = int(_scalar(snapshot, "repro_fastpath_streams_total"))
    health.stream_fallbacks = {
        r: int(n)
        for r, n in _labeled(
            snapshot, "repro_fastpath_fallback_total", "reason"
        ).items()
    }
    health.flows_planned = int(_scalar(snapshot, "repro_fastpath_flows_total"))
    health.flow_fallbacks = {
        r: int(n)
        for r, n in _labeled(
            snapshot, "repro_fastpath_flow_fallback_total", "reason"
        ).items()
    }
    health.kernel_calls = {
        k: int(n)
        for k, n in _labeled(snapshot, "repro_kernel_calls_total", "kernel").items()
    }
    health.kernel_declines = {
        r: int(n)
        for r, n in _labeled(
            snapshot, "repro_kernel_fallback_total", "reason"
        ).items()
    }
    health.engine_events = int(_scalar(snapshot, "repro_engine_events_executed"))
    health.heap_high_water = int(_scalar(snapshot, "repro_engine_heap_high_water"))
    health.simulators = {
        k: int(n)
        for k, n in _labeled(snapshot, "repro_engine_simulators", "scheduler").items()
    }
    fwd_b = _labeled(snapshot, "repro_link_bytes_forwarded", "link")
    fwd_p = _labeled(snapshot, "repro_link_packets_forwarded", "link")
    drop_b = _labeled(snapshot, "repro_link_bytes_dropped", "link")
    drop_p = _labeled(snapshot, "repro_link_packets_dropped", "link")
    queue_hw = _labeled(snapshot, "repro_link_queue_high_water_bytes", "link")
    for name in sorted(set(fwd_b) | set(drop_b) | set(queue_hw)):
        forwarded = int(fwd_p.get(name, 0))
        dropped = int(drop_p.get(name, 0))
        offered = forwarded + dropped
        health.links[name] = {
            "bytes_forwarded": int(fwd_b.get(name, 0)),
            "packets_forwarded": forwarded,
            "bytes_dropped": int(drop_b.get(name, 0)),
            "packets_dropped": dropped,
            "drop_fraction": (dropped / offered) if offered else 0.0,
            "queue_high_water_bytes": int(queue_hw.get(name, 0)),
        }
    health.cache_hits = int(_scalar(snapshot, "repro_sweep_cache_hits_total"))
    health.cache_misses = int(_scalar(snapshot, "repro_sweep_cache_misses_total"))
    health.task_failures = int(
        _scalar(snapshot, "repro_sweep_task_failures_total")
    )
    _derive_hints(health)
    return health


def _derive_hints(health: RunHealth) -> None:
    """Append one sentence per visible pathology (order: worst first)."""
    hints = health.hints
    if health.task_failures:
        hints.append(
            f"{health.task_failures} sweep task(s) raised; re-run with "
            "sweep_values() or check SweepOutcome.error for the traceback"
        )
    tracer_flows = health.flow_fallbacks.get("tracer", 0)
    if tracer_flows:
        hints.append(
            f"a full tracer dissolved the TCP flow-transit fast path for "
            f"{tracer_flows} flow(s); use --trace-light (Tracer(light=True)) "
            "to keep elision while collecting aggregate telemetry"
        )
    tracer_streams = health.stream_fallbacks.get("tracer", 0)
    if tracer_streams:
        hints.append(
            f"{tracer_streams} probe stream(s) were rewound to per-packet by "
            "a tracer-forced dissolve; --trace-light avoids the rewind"
        )
    frac = health.elided_fraction
    if frac is not None and frac < 0.5 and health.probe_packets_total >= 1000:
        dominant = max(
            (r for r in health.stream_fallbacks),
            key=lambda r: health.stream_fallbacks[r],
            default=None,
        )
        detail = (
            f" (dominant fallback reason: {dominant})" if dominant else ""
        )
        hints.append(
            f"only {100.0 * frac:.0f}% of probe packets were event-elided"
            + detail
            + "; see docs/performance.md for eligibility rules"
        )
    disabled = health.kernel_declines.get("disabled", 0)
    if disabled and not any(health.kernel_calls.values()):
        hints.append(
            "the NumPy merge kernel is disabled (REPRO_NO_VECTOR/--no-vector); "
            "its Python twin is exact but slower"
        )
    for name, row in sorted(health.links.items()):
        if row["drop_fraction"] > DROP_FRACTION_HINT:
            hints.append(
                f"link {name!r} dropped {100.0 * row['drop_fraction']:.1f}% of "
                "offered packets; verdicts at this operating point are "
                "loss-driven, not delay-trend-driven"
            )


def health_from_tracer(tracer) -> RunHealth:
    """Health report for a live tracer (folds metrics first)."""
    return health_from_snapshot(tracer.collect_metrics().snapshot())
