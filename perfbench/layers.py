"""Per-layer measurement from outside the program.

The benchmark never edits ``src/``.  For a traced run it wraps the public
functions at each layer boundary, where callers look the name up (a class
attribute for methods, the importing module's global for functions), and
records one span per call: name, start, end, the enclosing span, and the
task it belongs to.  A layer's *self time* is its spans' duration minus
the time covered by spans nested inside them.  The wrappers are removed on
exit and the original objects put back; :meth:`Instrumentation.restored`
checks that by identity.

Layers with no public boundary (the flow-transit round walk, per-packet
callbacks) are covered by :func:`layer_shares`, which folds the samples of
the repository's wall-clock :class:`repro.obs.Profiler` by source file.

:data:`PER_LAYER` is the metric map: for every per-layer metric, the
end-to-end metric it should move and the workloads that exercise and
bypass its layer.  ``BENCHMARK.json`` lists the same names, units and
directions (the benchmark's tests keep the two in step).
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import time
from collections import defaultdict
from typing import NamedTuple

__all__ = [
    "PATCH_POINTS",
    "PER_LAYER",
    "Instrumentation",
    "layer_shares",
]

#: (span name, module, class or None, attribute) of every wrapped boundary.
PATCH_POINTS: tuple[tuple[str, str, str | None, str], ...] = (
    ("engine", "repro.netsim.engine", "Simulator", "run"),
    ("engine", "repro.netsim.engine", "Simulator", "run_until"),
    ("crosstraffic.extend", "repro.netsim.bulkarrivals", "CrossAggregator", "extend_until"),
    ("link.sync", "repro.netsim.link", "Link", "sync"),
    ("link.send", "repro.netsim.link", "Link", "send"),
    ("streamtransit.plan", "repro.transport.probe", None, "plan_stream"),
    # Kernel entry points other modules call as ``kernels.<name>``.
    ("kernels", "repro.netsim.kernels", None, "merge_parts"),
    ("kernels", "repro.netsim.kernels", None, "masked_pending"),
    ("kernels", "repro.netsim.kernels", None, "prefix_sum"),
    ("kernels", "repro.netsim.kernels", None, "fold_slice"),
    ("kernels", "repro.netsim.kernels", None, "fold_slice_segmented"),
    ("kernels", "repro.netsim.kernels", None, "plan_hop"),
    ("core.classify", "repro.core.pathload", None, "classify_stream"),
    ("core.classify", "repro.core.pathload", None, "classify_fleet"),
    ("core.adjust", "repro.core.rate_adjust", "RateAdjuster", "record"),
    ("core.adjust", "repro.core.rate_adjust", "RateAdjuster", "next_rate"),
    ("core.adjust", "repro.core.rate_adjust", "RateAdjuster", "converged"),
)

#: Source files (profiler frame labels carry the basename) by layer.
LAYER_FILES: dict[str, str] = {
    "engine.py": "engine",
    "crosstraffic.py": "crosstraffic",
    "bulkarrivals.py": "crosstraffic",
    "link.py": "link",
    "path.py": "link",
    "packet.py": "link",
    "monitor.py": "link",
    "streamtransit.py": "streamtransit",
    "flowtransit.py": "flowtransit",
    "kernels.py": "kernels",
    "probe.py": "transport",
    "tcp.py": "transport",
    "ping.py": "transport",
    "btc.py": "transport",
    "pathload.py": "core",
    "fleet.py": "core",
    "trend.py": "core",
    "rate_adjust.py": "core",
    "probing.py": "core",
    "parallel.py": "parallel",
    "layers.py": "obs",
    "tracer.py": "obs",
    "metrics.py": "obs",
    "health.py": "obs",
}

#: Spans kept in memory for the trace file; aggregates count every span.
MAX_SPANS = 200_000


class LayerMetric(NamedTuple):
    name: str
    unit: str
    better: str
    #: the end-to-end metric a change in this layer should move
    moves: str
    #: workload(s) where the layer does most work -> where it is bypassed
    where: str


_ENGINE = ("task_s.p50", "sec7-testbed (ping and round events) -> fig05-multihop")
_CROSS = ("tasks_per_s", "fig11-modulated, fig05-multihop -> sec7-testbed (reads 0)")
_LINK = ("task_s.p50", "fig05-multihop (5 hops) -> fig11-modulated (1 hop)")
_STREAM = ("task_s.p50", "fig05-multihop -> sec7-testbed")
_FLOW = ("task_s.tail", "sec7-testbed -> fig05-multihop, fig11-modulated (read 0)")
_KERN = ("tasks_per_s", "fig05-multihop at 80% load -> sec7-testbed (reads 0)")
_TRANS = ("task_s.p50", "sec7-testbed -> fig11-modulated")
_CORE_N = ("truth_hit_frac", "all three, small share")
_CORE_T = ("task_s.p50", "all three, small share")
_PAR = ("tasks_per_s", "all three")
_OBS = ("none (reported)", "all three")

PER_LAYER: tuple[LayerMetric, ...] = (
    LayerMetric("engine.events", "count", "lower", *_ENGINE),
    LayerMetric("engine.heap_high_water", "count", "lower", *_ENGINE),
    LayerMetric("engine.self_s", "s", "lower", *_ENGINE),
    LayerMetric("engine.share", "ratio", "lower", *_ENGINE),
    LayerMetric("crosstraffic.packets", "count", "lower", *_CROSS),
    LayerMetric("crosstraffic.extend_s", "s", "lower", *_CROSS),
    LayerMetric("crosstraffic.share", "ratio", "lower", *_CROSS),
    LayerMetric("link.sync_calls", "count", "lower", *_LINK),
    LayerMetric("link.sync_s", "s", "lower", *_LINK),
    LayerMetric("link.send_calls", "count", "lower", *_LINK),
    LayerMetric("link.send_s", "s", "lower", *_LINK),
    LayerMetric("link.drop_frac", "ratio", "lower", *_LINK),
    LayerMetric("link.share", "ratio", "lower", *_LINK),
    LayerMetric("streamtransit.plan_calls", "count", "lower", *_STREAM),
    LayerMetric("streamtransit.plan_s", "s", "lower", *_STREAM),
    LayerMetric("streamtransit.engaged_frac", "ratio", "higher", *_STREAM),
    LayerMetric("streamtransit.share", "ratio", "lower", *_STREAM),
    LayerMetric("flowtransit.flows_planned", "count", "higher", *_FLOW),
    LayerMetric("flowtransit.fallbacks", "count", "lower", *_FLOW),
    LayerMetric("flowtransit.share", "ratio", "lower", *_FLOW),
    LayerMetric("kernels.calls", "count", "higher", *_KERN),
    LayerMetric("kernels.declines", "count", "lower", *_KERN),
    LayerMetric("kernels.engaged_frac", "ratio", "higher", *_KERN),
    LayerMetric("kernels.self_s", "s", "lower", *_KERN),
    LayerMetric("kernels.layout_gain", "ratio", "higher", *_KERN),
    LayerMetric("transport.probe_packets", "count", "lower", *_TRANS),
    LayerMetric("transport.probe_elided_frac", "ratio", "higher", *_TRANS),
    LayerMetric("transport.tcp_segments", "count", "lower", *_TRANS),
    LayerMetric("transport.retransmits", "count", "lower", *_TRANS),
    LayerMetric("transport.timeouts", "count", "lower", *_TRANS),
    LayerMetric("core.streams_per_run", "count", "lower", *_CORE_N),
    LayerMetric("core.fleets_per_run", "count", "lower", *_CORE_N),
    LayerMetric("core.sim_s_per_run", "sim_s", "lower", *_CORE_N),
    LayerMetric("core.classify_s", "s", "lower", *_CORE_T),
    LayerMetric("core.adjust_s", "s", "lower", *_CORE_T),
    LayerMetric("parallel.overhead_s", "s", "lower", *_PAR),
    LayerMetric("parallel.cache_hits", "count", "lower", *_PAR),
    LayerMetric("obs.trace_overhead", "ratio", "lower", *_OBS),
    LayerMetric("fastpath.layout_gain", "ratio", "higher", *_OBS),
    LayerMetric("failed_frac", "ratio", "lower", *_OBS),
)


def _raw(owner, attr: str):
    """The attribute exactly as stored (no method binding)."""
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def _lookup(module: str, cls: str | None, attr: str):
    """``(owner, attribute as stored)`` of one patch point, or ``None`` when
    the program no longer has it; its spans then read 0."""
    try:
        owner = importlib.import_module(module)
        if cls is not None:
            owner = getattr(owner, cls)
        return owner, _raw(owner, attr)
    except (ImportError, AttributeError, KeyError):
        return None


class Instrumentation:
    """Context manager that wraps every :data:`PATCH_POINTS` boundary.

    ``task`` tags the spans recorded next; ``self_s[name]`` and
    ``calls[name]`` aggregate every span, including those past
    :data:`MAX_SPANS`.
    """

    def __init__(self) -> None:
        self.task = -1
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        #: (id, parent id or -1, task, name, start, end), perf_counter seconds
        self.spans: list[tuple] = []
        self.dropped_spans = 0
        self._stack: list[list] = []
        self._ids = itertools.count()
        self._originals: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [0.0, next(self._ids)]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                self.self_s[name] += dur - frame[0]
                self.calls[name] += 1
                if parent is not None:
                    parent[0] += dur
                if len(self.spans) < MAX_SPANS:
                    self.spans.append(
                        (frame[1], parent[1] if parent else -1, self.task, name, t0, t1)
                    )
                else:
                    self.dropped_spans += 1

        return span

    def __enter__(self) -> "Instrumentation":
        try:
            for name, module, cls, attr in PATCH_POINTS:
                found = _lookup(module, cls, attr)
                if found is None:
                    continue
                owner, original = found
                self._originals.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original))
        except BaseException:
            self.__exit__()
            raise
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)

    def restored(self) -> bool:
        """True when every patched attribute is its original object again."""
        return all(
            _raw(owner, attr) is original for owner, attr, original in self._originals
        )

    def write_spans(self, path: str) -> None:
        """Write the kept spans as JSON lines (times relative to the first)."""
        base = self.spans[0][4] if self.spans else 0.0
        with open(path, "w") as fh:
            for sid, parent, task, name, t0, t1 in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "id": sid,
                            "parent": parent,
                            "task": task,
                            "name": name,
                            "start_s": t0 - base,
                            "end_s": t1 - base,
                        }
                    )
                    + "\n"
                )


def _layer_of(label: str) -> str | None:
    """Layer of one profiler frame label ``func (file.py:line)``."""
    filename = label.rsplit("(", 1)[-1].split(":", 1)[0]
    return LAYER_FILES.get(filename)


def layer_shares(samples) -> dict[str, float]:
    """Share of profiler samples per layer, by self time.

    A sample counts for the innermost frame that belongs to a known layer,
    so time in NumPy or the standard library is charged to the repository
    module that called it.
    """
    counts: dict[str, int] = defaultdict(int)
    for sample in samples:
        layer = "other"
        for label in reversed(sample.stack):
            found = _layer_of(label)
            if found is not None:
                layer = found
                break
        counts[layer] += 1
    total = sum(counts.values())
    return {layer: n / total for layer, n in counts.items()} if total else {}
