"""``repro.lint`` — determinism & unit-correctness static analysis.

The whole reproduction rests on one substitution (see DESIGN.md): pathload's
OWD trends are only faithful because :mod:`repro.netsim` runs on a *virtual*
clock with seeded RNGs.  A stray ``time.time()`` call, an unseeded
``np.random`` draw, or a bits-vs-megabits mix-up does not crash — it silently
corrupts delay trends.  This package machine-checks those invariants so that
future refactors and performance work cannot regress correctness undetected.

Per-file rules (one module at a time, ``ModuleContext``):

========  ===============================================================
SIM001    no wall-clock calls; the simulator runs on virtual time
SIM002    no unseeded randomness — RNGs must flow in as ``Generator`` args
SIM003    no ``==``/``!=`` comparisons on virtual-time expressions
SIM004    unit-suffix hygiene (``*_bps`` vs ``*_mbps``; magic literals)
SIM005    no mutable default arguments
SIM006    sim ``Process`` generator functions must actually ``yield``
SIM007    no bare ``print()`` in library code
========  ===============================================================

Project-level dataflow rules (cross-module, ``ProjectContext`` — module
symbol tables, an import-resolved call graph, and a reaching-definitions
walk; see :mod:`repro.lint.dataflow`):

========  ===============================================================
SIM008    no RNG draws inside unordered (set/dict) iteration
SIM009    fast-path hooks must be pure; decommission guards must not go
          stale
SIM011    sweep task fns must not depend on cross-process shared state
========  ===============================================================

All rules are suppressible with ``# simlint: disable=SIM0xx`` and
gate-able behind the ``.simlint-baseline.json`` ratchet (``--strict``).
Run as ``python -m repro.lint src benchmarks examples`` or via the
``repro-lint`` console script; ``repro-lint --explain SIM011`` prints a
rule's full rationale.  See ``docs/linting.md`` for the catalogue,
pragma syntax, baseline/SARIF workflow, and allowlist rationale.
"""

from __future__ import annotations

from .baseline import apply_baseline, load_baseline, write_baseline
from .dataflow import ProjectContext
from .registry import ALL_RULES, Rule, get_rules
from .report import Finding, render_json, render_sarif, render_text
from .runner import LintResult, lint_paths, lint_source

__all__ = [
    "ALL_RULES",
    "Rule",
    "get_rules",
    "Finding",
    "render_json",
    "render_sarif",
    "render_text",
    "LintResult",
    "lint_paths",
    "lint_source",
    "ProjectContext",
    "apply_baseline",
    "load_baseline",
    "write_baseline",
]
