"""Rule registry: ids, metadata, and the default allowlist.

Every rule is a named, documented, individually suppressible check.  The
registry is the single source of truth consumed by the CLI (``--list-rules``,
``--select``/``--disable``), the reporters, and the self-tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

__all__ = ["Rule", "ALL_RULES", "RULES_BY_ID", "get_rules", "DEFAULT_ALLOWLIST"]


@dataclass(frozen=True)
class Rule:
    """One named simulator invariant enforced by the linter."""

    id: str
    name: str
    summary: str
    rationale: str = ""


ALL_RULES: tuple[Rule, ...] = (
    Rule(
        id="SIM001",
        name="wall-clock-call",
        summary=(
            "wall-clock call (time.time/monotonic/perf_counter, datetime.now)"
        ),
        rationale=(
            "All simulator timing is virtual; consulting the wall clock mixes "
            "interpreter jitter into OWDs that SLoPS reads at ~10 us "
            "resolution.  Host-side timing of the simulator itself (sweep "
            "wall time, the profiler) carries a per-line pragma."
        ),
    ),
    Rule(
        id="SIM002",
        name="unseeded-randomness",
        summary=(
            "unseeded randomness (module-level np.random.*, bare random.*, or "
            "np.random.default_rng() without a seed)"
        ),
        rationale=(
            "Experiments must be replayable bit-for-bit from a master seed; "
            "RNGs flow in as numpy Generator parameters derived via "
            "SeedSequence.spawn (see experiments.base.spawn_seeds)."
        ),
    ),
    Rule(
        id="SIM003",
        name="virtual-time-equality",
        summary="==/!= comparison on a virtual-time expression",
        rationale=(
            "Virtual timestamps are floats accumulated through arithmetic; "
            "exact equality is representation-dependent and breaks under "
            "refactors that change evaluation order.  Compare with <=/>= or a "
            "tolerance."
        ),
    ),
    Rule(
        id="SIM004",
        name="unit-suffix-hygiene",
        summary=(
            "bandwidth unit mismatch (*_bps value fed to a *_mbps parameter "
            "or vice versa; suspicious magic bandwidth literal)"
        ),
        rationale=(
            "A bits-vs-megabits mix-up is a silent factor-1e6 error in rate "
            "logic — exactly the class of bug that corrupts PCT/PDT verdicts "
            "without crashing."
        ),
    ),
    Rule(
        id="SIM005",
        name="mutable-default-argument",
        summary="mutable default argument (list/dict/set literal or call)",
        rationale=(
            "Mutable defaults are shared across calls, so state leaks between "
            "nominally independent simulation runs."
        ),
    ),
    Rule(
        id="SIM006",
        name="never-yielding-process",
        summary="generator passed to sim.process() never yields",
        rationale=(
            "A process body with no yield runs to completion inside a single "
            "simulator step (actually: fails to be a generator at all), which "
            "silently serializes what should be concurrent activity."
        ),
    ),
    Rule(
        id="SIM007",
        name="bare-print-in-library",
        summary="bare print() in library code (CLI modules allowlisted)",
        rationale=(
            "print() output is unstructured, interleaves badly under the "
            "process-parallel sweep executor, and bypasses the repro.obs "
            "observability layer; diagnostics belong in trace events, "
            "metrics, or logging.  Only the CLI front ends and example "
            "scripts legitimately write to stdout."
        ),
    ),
    Rule(
        id="SIM008",
        name="rng-in-unordered-iteration",
        summary=(
            "RNG draw inside iteration over a set/dict (unordered iteration "
            "consumes the generator stream in hash-seed-dependent order)"
        ),
        rationale=(
            "Python set iteration order depends on the interpreter hash "
            "seed, so a loop like ``for flow in active_flows: "
            "rng.exponential(...)`` draws the same values in a different "
            "order in every process.  That silently breaks the "
            "``jobs=1 == jobs=N`` bit-equality contract of repro.parallel: "
            "each worker would replay the sweep with a differently-ordered "
            "stream even though the seed entropy is identical.  Iterate a "
            "``sorted()`` view (or a list with deterministic insertion "
            "order) wherever a draw happens per element.  Detected "
            "project-wide: the iterable is chased through assignments with "
            "the reaching-definitions walk, and draws inside called "
            "functions are found through the import-resolved call graph."
        ),
    ),
    Rule(
        id="SIM009",
        name="impure-fast-path-hook",
        summary=(
            "impure callable installed as a deliver/drop_hook/qdisc hook, "
            "or a stale fast-path decommission guard"
        ),
        rationale=(
            "The bulk cross-traffic path and the flow-transit walk that "
            "carries probe streams and TCP flows are only bit-identical to "
            "per-packet simulation when link hooks are pure observers: a "
            "hook that reschedules, mutates link/simulator state, or draws "
            "RNG changes the trajectory, so installing one must "
            "decommission the fast paths (the Link property setters "
            "dissolve the walk and fall back).  This rule checks both "
            "sides of that contract project-wide: every hook installation "
            "site is resolved to its function body and checked for purity, "
            "and the decommission guards themselves (Link setters, "
            "the flow-transit gate _domain_for, the link sync in "
            "CrossAggregator.register) are cross-checked so they cannot "
            "silently go stale or go missing."
        ),
    ),
    Rule(
        id="SIM011",
        name="sweep-shared-state",
        summary=(
            "sweep task fn depends on cross-process shared state (module "
            "mutables, nested/lambda fns, environment reads) invisible to "
            "the cache key"
        ),
        rationale=(
            "run_sweep executes task fns in worker processes and caches "
            "results under a key folded from the code version, experiment, "
            "fn qualname, seed entropy, and kwargs.  Anything else the fn "
            "reads — module-level mutables, os.environ — silently bypasses "
            "the key, so cached results go stale without invalidation; "
            "anything it writes stays in the worker and never propagates "
            "back.  Lambdas and nested defs additionally break pickling by "
            "reference.  Checked at every SweepTask construction site by "
            "resolving the fn through the project call graph into its "
            "defining module."
        ),
    ),
)

RULES_BY_ID: dict[str, Rule] = {rule.id: rule for rule in ALL_RULES}

#: Paths where a rule is expected and allowed, matched as posix-path
#: suffixes; an entry ending in ``/`` allowlists a whole directory.  The
#: SIM007 entries are the CLI front ends (printing is their job) and the
#: example scripts.
DEFAULT_ALLOWLIST: dict[str, tuple[str, ...]] = {
    "SIM007": (
        "repro/cli.py",
        "repro/sweep_cli.py",
        "repro/lint/cli.py",
        "repro/obs/cli.py",
        "examples/",
        "benchmarks/",  # one-shot studies print their tables for eyeballing
    ),
}


def get_rules(
    select: Optional[Iterable[str]] = None,
    disable: Optional[Iterable[str]] = None,
) -> list[Rule]:
    """Resolve the active rule set from ``--select``/``--disable`` ids.

    Unknown ids raise ``ValueError`` so typos fail loudly.
    """

    def check(ids: Iterable[str]) -> set[str]:
        wanted = {rule_id.strip().upper() for rule_id in ids if rule_id.strip()}
        unknown = wanted - RULES_BY_ID.keys()
        if unknown:
            raise ValueError(f"unknown rule id(s): {sorted(unknown)}")
        return wanted

    active = check(select) if select else set(RULES_BY_ID)
    if disable:
        active -= check(disable)
    return [rule for rule in ALL_RULES if rule.id in active]
