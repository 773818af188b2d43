"""Per-rule AST visitors.

Each rule is a class with a ``check(context) -> Iterator[Finding]`` method,
registered in :data:`CHECKERS` keyed by rule id.  They share a
:class:`ModuleContext` holding the parsed tree, an import-alias map (so
``from time import perf_counter as pc`` is still caught), and an index of
function definitions (for the generator-yield rule).

The checks are deliberately syntactic: no type inference, no execution.
That keeps them fast and predictable — the cost is that they rely on the
project's naming conventions (``*_bps``/``*_mbps`` suffixes, ``rng``
parameters), which is exactly what a project-local linter is for.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Iterator, Optional

from .report import Finding

__all__ = ["ModuleContext", "CHECKERS", "run_checkers"]


# ----------------------------------------------------------------------
# Shared context
# ----------------------------------------------------------------------

_TRACKED_MODULES = {"time", "datetime", "random", "numpy", "numpy.random"}


@dataclass
class _FunctionInfo:
    """One function definition and whether its own body yields."""

    name: str
    lineno: int
    has_yield: bool


@dataclass
class ModuleContext:
    """Everything the per-rule visitors need about one source file."""

    path: str
    tree: ast.Module
    imports: dict[str, str] = field(default_factory=dict)
    functions: dict[str, list[_FunctionInfo]] = field(default_factory=dict)

    @classmethod
    def build(cls, path: str, tree: ast.Module) -> "ModuleContext":
        ctx = cls(path=path, tree=tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    top = alias.name.split(".")[0]
                    if top in _TRACKED_MODULES or alias.name in _TRACKED_MODULES:
                        if alias.asname:
                            ctx.imports[alias.asname] = alias.name
                        else:
                            # ``import numpy.random`` binds the *top* module.
                            ctx.imports[top] = top
            elif isinstance(node, ast.ImportFrom):
                if node.module in _TRACKED_MODULES and node.level == 0:
                    for alias in node.names:
                        bound = alias.asname or alias.name
                        ctx.imports[bound] = f"{node.module}.{alias.name}"
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                info = _FunctionInfo(
                    name=node.name,
                    lineno=node.lineno,
                    has_yield=_body_yields(node),
                )
                ctx.functions.setdefault(node.name, []).append(info)
        return ctx

    def resolve(self, node: ast.expr) -> Optional[str]:
        """Dotted name of a Name/Attribute chain, with import aliases expanded.

        Returns ``None`` when the chain does not root in a tracked import —
        so an unrelated attribute like ``self.random.draw()`` never matches.
        """
        parts: list[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        root = self.imports.get(node.id)
        if root is None:
            return None
        parts.append(root)
        return ".".join(reversed(parts))


def _body_yields(func: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    """True if the function's *own* body contains yield / yield from.

    Nested function definitions and lambdas are not descended into: their
    yields do not make the outer function a generator.
    """

    def scan(nodes) -> bool:
        for node in nodes:
            if isinstance(node, (ast.Yield, ast.YieldFrom)):
                return True
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            if scan(ast.iter_child_nodes(node)):
                return True
        return False

    return scan(ast.iter_child_nodes(func))


def _terminal_name(node: ast.expr) -> Optional[str]:
    """The last identifier of a Name/Attribute chain, else ``None``."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


# ----------------------------------------------------------------------
# SIM001 — wall-clock calls
# ----------------------------------------------------------------------

_WALL_CLOCK_CALLS = {
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.process_time",
    "time.process_time_ns",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
}


class WallClockChecker:
    rule_id = "SIM001"

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            target = ctx.resolve(node.func)
            if target in _WALL_CLOCK_CALLS:
                yield Finding(
                    rule_id=self.rule_id,
                    path=ctx.path,
                    line=node.lineno,
                    col=node.col_offset,
                    message=(
                        f"wall-clock call {target}() — simulator code must use "
                        "virtual time (sim.now)"
                    ),
                )


# ----------------------------------------------------------------------
# SIM002 — unseeded randomness
# ----------------------------------------------------------------------

_NP_GLOBAL_DRAWS = {
    "seed", "random", "rand", "randn", "randint", "random_sample",
    "random_integers", "choice", "shuffle", "permutation", "bytes",
    "normal", "uniform", "exponential", "pareto", "poisson", "binomial",
    "standard_normal", "standard_exponential", "lognormal", "gamma",
    "beta", "weibull", "zipf", "geometric",
}

_STDLIB_RANDOM_FNS = {
    "seed", "random", "randint", "randrange", "choice", "choices",
    "shuffle", "sample", "uniform", "gauss", "normalvariate",
    "expovariate", "paretovariate", "betavariate", "vonmisesvariate",
    "triangular", "lognormvariate", "weibullvariate", "getrandbits",
    "randbytes",
}


class UnseededRandomChecker:
    rule_id = "SIM002"

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            target = ctx.resolve(node.func)
            if target is None:
                continue
            message = None
            if target in ("numpy.random.default_rng", "numpy.random.RandomState"):
                if not node.args and not node.keywords:
                    message = (
                        f"{target}() without a seed is entropy-seeded — derive "
                        "generators from a master seed (see "
                        "experiments.base.spawn_seeds) and pass them as "
                        "np.random.Generator parameters"
                    )
            elif target.startswith("numpy.random."):
                fn = target.rsplit(".", 1)[1]
                if fn in _NP_GLOBAL_DRAWS:
                    message = (
                        f"module-level {target}() uses numpy's hidden global "
                        "RNG — draw from an explicitly seeded Generator "
                        "parameter instead"
                    )
            elif target.startswith("random."):
                fn = target.rsplit(".", 1)[1]
                if fn in _STDLIB_RANDOM_FNS:
                    message = (
                        f"stdlib {target}() uses the hidden global RNG — use "
                        "an explicitly seeded np.random.Generator parameter "
                        "instead"
                    )
            if message is not None:
                yield Finding(
                    rule_id=self.rule_id,
                    path=ctx.path,
                    line=node.lineno,
                    col=node.col_offset,
                    message=message,
                )


# ----------------------------------------------------------------------
# SIM003 — ==/!= on virtual-time expressions
# ----------------------------------------------------------------------

_TIME_NAME_RE = re.compile(r"^(now|time|t0|deadline)$|_at$")


class VirtualTimeEqualityChecker:
    rule_id = "SIM003"

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Compare):
                continue
            values = [node.left, *node.comparators]
            for i, op in enumerate(node.ops):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                for side in (values[i], values[i + 1]):
                    name = _terminal_name(side)
                    if name is not None and _TIME_NAME_RE.search(name):
                        op_text = "==" if isinstance(op, ast.Eq) else "!="
                        yield Finding(
                            rule_id=self.rule_id,
                            path=ctx.path,
                            line=node.lineno,
                            col=node.col_offset,
                            message=(
                                f"exact {op_text} comparison on virtual-time "
                                f"expression {name!r} — float timestamps "
                                "accumulate representation error; use an "
                                "ordering comparison or a tolerance"
                            ),
                        )
                        break  # one finding per operator is enough


# ----------------------------------------------------------------------
# SIM004 — unit-suffix hygiene
# ----------------------------------------------------------------------


def _unit_of(name: Optional[str]) -> Optional[str]:
    if name is None:
        return None
    lowered = name.lower()
    if lowered == "mbps" or lowered.endswith("_mbps"):
        return "mbps"
    if lowered == "bps" or lowered.endswith("_bps"):
        return "bps"
    return None


def _literal_value(node: ast.expr) -> Optional[float]:
    """Numeric value of a literal, unwrapping a leading unary minus."""
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        inner = _literal_value(node.operand)
        return -inner if inner is not None else None
    if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
        if isinstance(node.value, bool):
            return None
        return float(node.value)
    return None


class UnitSuffixChecker:
    rule_id = "SIM004"

    #: A literal this large passed to a ``*_mbps`` parameter is almost
    #: certainly a bits-per-second value (100 Gb/s = 1e5 Mb/s is the most
    #: extreme plausible link rate in this repo).
    MBPS_LITERAL_CEILING = 1e5
    #: A positive literal this small passed to a ``*_bps`` parameter is
    #: almost certainly a megabits value (1 kb/s is below any rate the
    #: reproduction uses; 0 is allowed as an "off" sentinel).
    BPS_LITERAL_FLOOR = 1e3

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                yield from self._check_call(ctx, node)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                yield from self._check_assign(ctx, node)

    def _check_call(self, ctx: ModuleContext, node: ast.Call) -> Iterator[Finding]:
        for kw in node.keywords:
            param_unit = _unit_of(kw.arg)
            if param_unit is None:
                continue
            value_unit = _unit_of(_terminal_name(kw.value))
            if value_unit is not None and value_unit != param_unit:
                yield Finding(
                    rule_id=self.rule_id,
                    path=ctx.path,
                    line=kw.value.lineno,
                    col=kw.value.col_offset,
                    message=(
                        f"unit mismatch: {value_unit} value "
                        f"{_terminal_name(kw.value)!r} passed to "
                        f"{param_unit} parameter {kw.arg!r} — convert "
                        "explicitly (factor 1e6)"
                    ),
                )
                continue
            literal = _literal_value(kw.value)
            if literal is None:
                continue
            if param_unit == "mbps" and abs(literal) >= self.MBPS_LITERAL_CEILING:
                yield Finding(
                    rule_id=self.rule_id,
                    path=ctx.path,
                    line=kw.value.lineno,
                    col=kw.value.col_offset,
                    message=(
                        f"magic bandwidth literal {literal:g} passed to "
                        f"{param_unit} parameter {kw.arg!r} looks like a "
                        "bits/s value — did you mean to divide by 1e6?"
                    ),
                )
            elif param_unit == "bps" and 0 < abs(literal) < self.BPS_LITERAL_FLOOR:
                yield Finding(
                    rule_id=self.rule_id,
                    path=ctx.path,
                    line=kw.value.lineno,
                    col=kw.value.col_offset,
                    message=(
                        f"magic bandwidth literal {literal:g} passed to "
                        f"{param_unit} parameter {kw.arg!r} looks like a "
                        "Mb/s value — did you mean to multiply by 1e6?"
                    ),
                )

    def _check_assign(
        self, ctx: ModuleContext, node: ast.Assign | ast.AnnAssign
    ) -> Iterator[Finding]:
        # Only direct name-to-name bindings are checked: arithmetic on the
        # right-hand side is assumed to be the unit conversion itself.
        value = node.value
        if value is None:
            return
        value_unit = _unit_of(_terminal_name(value))
        if value_unit is None:
            return
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        for target in targets:
            target_unit = _unit_of(_terminal_name(target))
            if target_unit is not None and target_unit != value_unit:
                yield Finding(
                    rule_id=self.rule_id,
                    path=ctx.path,
                    line=node.lineno,
                    col=node.col_offset,
                    message=(
                        f"unit mismatch: {value_unit} value bound to "
                        f"{target_unit} name {_terminal_name(target)!r} — "
                        "convert explicitly (factor 1e6)"
                    ),
                )


# ----------------------------------------------------------------------
# SIM005 — mutable default arguments
# ----------------------------------------------------------------------

_MUTABLE_LITERALS = (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)
_MUTABLE_CALLS = {"list", "dict", "set", "bytearray", "defaultdict", "deque", "Counter"}


class MutableDefaultChecker:
    rule_id = "SIM005"

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            defaults = list(node.args.defaults) + [
                d for d in node.args.kw_defaults if d is not None
            ]
            for default in defaults:
                if self._is_mutable(default):
                    name = getattr(node, "name", "<lambda>")
                    yield Finding(
                        rule_id=self.rule_id,
                        path=ctx.path,
                        line=default.lineno,
                        col=default.col_offset,
                        message=(
                            f"mutable default argument in {name!r} is shared "
                            "across calls — use None and create the value in "
                            "the body"
                        ),
                    )

    @staticmethod
    def _is_mutable(node: ast.expr) -> bool:
        if isinstance(node, _MUTABLE_LITERALS):
            return True
        if isinstance(node, ast.Call):
            name = _terminal_name(node.func)
            return name in _MUTABLE_CALLS
        return False


# ----------------------------------------------------------------------
# SIM006 — process generators that never yield
# ----------------------------------------------------------------------


class NeverYieldingProcessChecker:
    rule_id = "SIM006"

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            gen_arg = self._process_generator_arg(node)
            if gen_arg is None or not isinstance(gen_arg, ast.Call):
                continue
            callee = _terminal_name(gen_arg.func)
            if callee is None:
                continue
            infos = ctx.functions.get(callee)
            if not infos:
                continue
            if not any(info.has_yield for info in infos):
                yield Finding(
                    rule_id=self.rule_id,
                    path=ctx.path,
                    line=node.lineno,
                    col=node.col_offset,
                    message=(
                        f"{callee!r} is passed to process() but never yields — "
                        "a process body must be a generator (yield a delay, an "
                        "Event, or a Process)"
                    ),
                )

    @staticmethod
    def _process_generator_arg(node: ast.Call) -> Optional[ast.expr]:
        """The generator argument of ``<x>.process(gen)`` / ``Process(sim, gen)``."""
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr == "process"
            and node.args
        ):
            return node.args[0]
        if (
            isinstance(node.func, ast.Name)
            and node.func.id == "Process"
            and len(node.args) >= 2
        ):
            return node.args[1]
        return None


# ----------------------------------------------------------------------
# SIM007: bare print() in library code
# ----------------------------------------------------------------------


class BarePrintChecker:
    """Library modules must not print: diagnostics belong in ``repro.obs``
    (tracer events, metrics) or ``logging``, where they stay structured and
    deterministic.  CLI front ends and example scripts — whose *job* is
    printing — are allowlisted (:data:`~repro.lint.registry.DEFAULT_ALLOWLIST`).
    """

    rule_id = "SIM007"

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "print"
            ):
                yield Finding(
                    rule_id=self.rule_id,
                    path=ctx.path,
                    line=node.lineno,
                    col=node.col_offset,
                    message=(
                        "bare print() in library code — emit a repro.obs "
                        "trace event/metric or use logging (CLI modules are "
                        "allowlisted)"
                    ),
                )


# ----------------------------------------------------------------------
# Registry of checkers
# ----------------------------------------------------------------------

CHECKERS = {
    checker.rule_id: checker
    for checker in (
        WallClockChecker(),
        UnseededRandomChecker(),
        VirtualTimeEqualityChecker(),
        UnitSuffixChecker(),
        MutableDefaultChecker(),
        NeverYieldingProcessChecker(),
        BarePrintChecker(),
    )
}


def run_checkers(ctx: ModuleContext, rule_ids: list[str]) -> list[Finding]:
    """Run the selected rules over one module; findings in source order."""
    findings: list[Finding] = []
    for rule_id in rule_ids:
        checker = CHECKERS.get(rule_id)
        if checker is not None:
            findings.extend(checker.check(ctx))
    findings.sort(key=lambda f: (f.line, f.col, f.rule_id))
    return findings
