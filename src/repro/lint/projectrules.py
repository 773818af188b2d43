"""Project-level rules SIM008-SIM011, built on :mod:`repro.lint.dataflow`.

These rules need more than one file's AST: SIM008 chases a loop iterable
back to its defining expression, SIM009 resolves hook callables across
modules and cross-checks the fast-path decommission guards, and SIM011 follows sweep worker functions
from the :class:`~repro.parallel.SweepTask` construction site into their
defining module.  Each checker implements ``check(project) ->
Iterator[Finding]`` against a :class:`~repro.lint.dataflow.ProjectContext`
and is registered in :data:`PROJECT_CHECKERS`.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterator, Optional

from .dataflow import (
    MUTATOR_METHODS,
    FunctionInfo,
    ModuleTable,
    ProjectContext,
    attr_chain,
    is_rng_draw,
    terminal_name,
    walk_scope,
)
from .report import Finding

__all__ = [
    "PROJECT_CHECKERS",
    "PROJECT_RULE_IDS",
    "run_project_checkers",
]


# ----------------------------------------------------------------------
# SIM008 — RNG consumption inside unordered iteration
# ----------------------------------------------------------------------

_ORDERING_WRAPPERS = frozenset({"sorted", "list", "tuple", "min", "max", "sum"})
_SET_CALLS = frozenset({"set", "frozenset"})
_SET_METHODS = frozenset({
    "union", "intersection", "difference", "symmetric_difference", "copy",
})
_DICT_VIEW_METHODS = frozenset({"keys", "values", "items"})


def _unordered_reason(expr: ast.expr, env: dict) -> Optional[str]:
    """Why iterating ``expr`` has no stable order, or None if it does."""
    if isinstance(expr, (ast.Set, ast.SetComp)):
        return "a set literal/comprehension"
    if isinstance(expr, (ast.Dict, ast.DictComp)):
        return "a dict literal (order depends on insertion/deletion history)"
    if isinstance(expr, ast.Call):
        func = expr.func
        if isinstance(func, ast.Name):
            if func.id in _SET_CALLS:
                return f"{func.id}(...)"
            if func.id in _ORDERING_WRAPPERS:
                return None  # explicit ordering — the sanctioned fix
        if isinstance(func, ast.Attribute):
            if func.attr in _SET_METHODS and _unordered_reason(func.value, env):
                return f"a set .{func.attr}() result"
            if func.attr in _DICT_VIEW_METHODS:
                return f"a dict .{func.attr}() view"
    if isinstance(expr, ast.Name):
        for cand in env.get(expr.id, ()):
            if cand is None:
                continue
            reason = _unordered_reason(cand, {})
            if reason is not None:
                return f"{expr.id!r} = {reason}"
    return None


def _rng_draw_in(
    nodes, project: ProjectContext, table: ModuleTable
) -> Optional[tuple[int, str]]:
    """(line, what) of the first RNG consumption found under ``nodes``."""
    for root in nodes:
        for node in ast.walk(root):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            if not isinstance(node, ast.Call):
                continue
            if is_rng_draw(node):
                chain = attr_chain(node.func) or "rng draw"
                return node.lineno, f"{chain}()"
            callee = project.resolve_function(table, node.func)
            if callee is not None and project.draws_rng(callee):
                return node.lineno, f"{callee.dotted}() (draws transitively)"
    return None


class RngUnorderedIterationChecker:
    """SIM008: an RNG draw whose iteration count/order comes from a set or
    dict walks the generator stream in container order.  Set order depends
    on the interpreter hash seed, so two processes given the same seed
    entropy draw *different* streams — which silently breaks the
    ``jobs=1 == jobs=N`` bit-equality contract of :mod:`repro.parallel`.
    """

    rule_id = "SIM008"

    def check(self, project: ProjectContext) -> Iterator[Finding]:
        for table in project.modules.values():
            for qualname, scope in table.scopes:
                yield from self._check_scope(project, table, scope)

    def _check_scope(self, project, table, scope) -> Iterator[Finding]:
        reaching = project.reaching(table, scope)
        for node in walk_scope(scope):
            if isinstance(node, (ast.For, ast.AsyncFor)):
                env = reaching.env_at(node)
                reason = _unordered_reason(node.iter, env)
                if reason is None:
                    continue
                hit = _rng_draw_in(node.body, project, table)
                if hit is None:
                    continue
                line, what = hit
                yield self._finding(table, node, reason, line, what)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
                # comprehension sources are literal enough: no env chasing
                reason = _unordered_reason(node.generators[0].iter, {})
                if reason is None:
                    continue
                hit = _rng_draw_in([node], project, table)
                if hit is None:
                    continue
                line, what = hit
                yield self._finding(table, node, reason, line, what)

    def _finding(self, table, node, reason, line, what) -> Finding:
        return Finding(
            rule_id=self.rule_id,
            path=table.path,
            line=node.lineno,
            col=node.col_offset,
            message=(
                f"RNG consumption ({what} at line {line}) inside iteration "
                f"over {reason} — unordered iteration order is "
                "hash-seed-dependent, so the generator stream is consumed in "
                "unstable order and the jobs=1 == jobs=N bit-equality "
                "contract of repro.parallel breaks; iterate a sorted() view"
            ),
        )


# ----------------------------------------------------------------------
# SIM009 — hook purity for fast-path eligibility
# ----------------------------------------------------------------------

_HOOK_ATTRS = frozenset({"deliver", "drop_hook", "qdisc"})
_PRIVATE_HOOK_ATTRS = frozenset({"_deliver", "_drop_hook", "_qdisc"})
_LINK_MODULE = "repro.netsim.link"
_FLOWTRANSIT_MODULE = "repro.netsim.flowtransit"
_BULKARRIVALS_MODULE = "repro.netsim.bulkarrivals"

#: Simulator / link state movers: a hook calling any of these reschedules
#: or re-enters the data path from inside the data path.
_STATE_MOVER_METHODS = frozenset({
    "schedule", "schedule_at", "process", "send", "inject_at",
    "send_forward", "send_reverse", "interrupt", "decommission",
    "_decommission", "sync", "dissolve",
})


@dataclass
class _Impurity:
    line: int
    why: str


def _hook_impurity(
    body_nodes, project: ProjectContext, table: ModuleTable
) -> Optional[_Impurity]:
    """First impure operation in a hook body, or None when pure.

    Pure observers (reading state, appending to a results list) are
    allowed; mutating link/simulator state, rescheduling, or drawing RNG
    from inside a hook is flagged.
    """
    for root in body_nodes:
        for node in ast.walk(root):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if isinstance(node, ast.Call):
                if is_rng_draw(node):
                    return _Impurity(node.lineno, "draws from an RNG")
                func = node.func
                if isinstance(func, ast.Attribute) and func.attr in _STATE_MOVER_METHODS:
                    return _Impurity(
                        node.lineno, f"calls state-mover .{func.attr}()"
                    )
                callee = project.resolve_function(table, func)
                if callee is not None and project.draws_rng(callee):
                    return _Impurity(
                        node.lineno, f"calls {callee.dotted}() which draws RNG"
                    )
            elif isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign) else [node.target]
                )
                for target in targets:
                    if isinstance(target, ast.Attribute):
                        chain = attr_chain(target) or target.attr
                        return _Impurity(
                            node.lineno, f"assigns attribute {chain!r}"
                        )
            elif isinstance(node, (ast.Global, ast.Nonlocal)):
                return _Impurity(node.lineno, "rebinds enclosing-scope state")
    return None


class HookPurityChecker:
    """SIM009: callables installed as ``deliver``/``drop_hook``/``qdisc``
    must be pure observers, and the decommission guards that make impure
    configurations fall back to the per-packet path must stay in place.
    """

    rule_id = "SIM009"

    def check(self, project: ProjectContext) -> Iterator[Finding]:
        for table in project.modules.values():
            yield from self._check_installs(project, table)
        yield from self._check_guards(project)

    # -- hook installation sites ----------------------------------------
    def _check_installs(self, project, table) -> Iterator[Finding]:
        for node in ast.walk(table.tree):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if not isinstance(target, ast.Attribute):
                        continue
                    if target.attr in _PRIVATE_HOOK_ATTRS:
                        if table.name != _LINK_MODULE:
                            yield Finding(
                                rule_id=self.rule_id,
                                path=table.path,
                                line=node.lineno,
                                col=node.col_offset,
                                message=(
                                    f"direct install of private hook "
                                    f"{target.attr!r} bypasses the Link "
                                    "property setter, so the bulk/stream "
                                    "fast paths are never decommissioned — "
                                    "assign the public "
                                    f"{target.attr.lstrip('_')!r} property"
                                ),
                            )
                    elif target.attr in _HOOK_ATTRS:
                        yield from self._check_value(
                            project, table, node.value, target.attr, node
                        )
            elif isinstance(node, ast.Call):
                for kw in node.keywords:
                    if kw.arg in _HOOK_ATTRS:
                        yield from self._check_value(
                            project, table, kw.value, kw.arg, kw.value
                        )

    def _check_value(self, project, table, value, hook, at) -> Iterator[Finding]:
        name: str
        if isinstance(value, ast.Lambda):
            impurity = _hook_impurity([value.body], project, table)
            name = "<lambda>"
        else:
            info = project.resolve_function(table, value)
            if info is None:
                return
            impurity = _hook_impurity(
                info.node.body, project, project.modules.get(info.module, table)
            )
            name = info.qualname
        if impurity is None:
            return
        yield Finding(
            rule_id=self.rule_id,
            path=table.path,
            line=at.lineno,
            col=at.col_offset,
            message=(
                f"impure hook {name!r} installed as {hook!r} "
                f"({impurity.why} at line {impurity.line}) — hooks must be "
                "pure observers: impure hooks forfeit the event-elided fast "
                "paths, and an RNG draw inside one corrupts stream order "
                "when a dissolved walk hands its traffic back per-packet"
            ),
        )

    # -- decommission-guard staleness cross-check ------------------------
    def _check_guards(self, project) -> Iterator[Finding]:
        link = project.modules.get(_LINK_MODULE)
        if link is not None:
            for hook in sorted(_HOOK_ATTRS):
                info = link.functions.get(f"Link.{hook}")
                setter = self._find_setter(link, hook)
                if setter is None:
                    continue  # property removed entirely: nothing to guard
                body_calls = {
                    n.func.attr if isinstance(n.func, ast.Attribute) else None
                    for n in ast.walk(setter.node)
                    if isinstance(n, ast.Call)
                }
                missing = [
                    want
                    for want in ("_decommission", "dissolve")
                    if want not in body_calls
                ]
                if missing:
                    yield Finding(
                        rule_id=self.rule_id,
                        path=link.path,
                        line=setter.lineno,
                        col=0,
                        message=(
                            f"Link.{hook} setter no longer calls "
                            f"{' / '.join(missing)} — installing a hook must "
                            "decommission the bulk path and dissolve any "
                            "flow-transit walk over the link, or the "
                            "fast-path eligibility tables go silently stale"
                        ),
                    )
        flow = project.modules.get(_FLOWTRANSIT_MODULE)
        if flow is not None:
            gate = flow.functions.get("_domain_for")
            if gate is None:
                yield self._missing_target(flow, "_domain_for()")
            else:
                attrs = {
                    n.attr for n in ast.walk(gate.node) if isinstance(n, ast.Attribute)
                }
                missing = sorted(_PRIVATE_HOOK_ATTRS - attrs)
                if missing:
                    yield Finding(
                        rule_id=self.rule_id,
                        path=flow.path,
                        line=gate.lineno,
                        col=0,
                        message=(
                            "_domain_for() eligibility check no longer "
                            f"consults {', '.join(missing)} — a hooked link "
                            "would be carried by the flow-transit walk and "
                            "the hook callbacks silently skipped"
                        ),
                    )
        bulk = project.modules.get(_BULKARRIVALS_MODULE)
        if bulk is not None:
            register = bulk.functions.get("CrossAggregator.register")
            if register is None:
                yield self._missing_target(bulk, "CrossAggregator.register()")
            else:
                calls = {
                    n.func.attr
                    for n in ast.walk(register.node)
                    if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
                }
                if "sync" not in calls:
                    yield Finding(
                        rule_id=self.rule_id,
                        path=bulk.path,
                        line=register.lineno,
                        col=0,
                        message=(
                            "CrossAggregator.register() no longer syncs the "
                            "link before rolling merged arrivals back — a "
                            "reader at the registration instant would miss "
                            "the arrivals already due"
                        ),
                    )

    def _missing_target(self, table: ModuleTable, target: str) -> Finding:
        return Finding(
            rule_id=self.rule_id,
            path=table.path,
            line=1,
            col=0,
            message=(
                f"{table.name} no longer defines {target}, whose guard "
                "SIM009 cross-checks — a refactor moved the guard, so the "
                "rule no longer sees it; point the rule at its new home"
            ),
        )

    @staticmethod
    def _find_setter(table: ModuleTable, hook: str) -> Optional[FunctionInfo]:
        for qualname, info in table.functions.items():
            if not qualname.endswith(f".{hook}") and qualname != hook:
                continue
            for deco in info.node.decorator_list:
                if isinstance(deco, ast.Attribute) and deco.attr == "setter":
                    return info
        return None


# ----------------------------------------------------------------------
# SIM011 — cross-process shared-state hazards in sweep task functions
# ----------------------------------------------------------------------

_SWEEP_TASK = "repro.parallel.SweepTask"


class SweepSharedStateChecker:
    """SIM011: a sweep worker crosses a process boundary, so everything
    that shapes its result must travel through the task (seed entropy and
    kwargs — which the on-disk cache key folds in).  Module-level mutable
    state and environment reads do not: mutations stay in the worker and
    reads silently bypass the cache key.
    """

    rule_id = "SIM011"

    def check(self, project: ProjectContext) -> Iterator[Finding]:
        for table in project.modules.values():
            for node in ast.walk(table.tree):
                if not isinstance(node, ast.Call):
                    continue
                resolved = project.resolve(table, node.func)
                if resolved != _SWEEP_TASK:
                    continue
                fn_expr = self._fn_argument(node)
                if fn_expr is None:
                    continue
                yield from self._check_fn(project, table, node, fn_expr)

    @staticmethod
    def _fn_argument(node: ast.Call) -> Optional[ast.expr]:
        for kw in node.keywords:
            if kw.arg == "fn":
                return kw.value
        return node.args[0] if node.args else None

    def _check_fn(self, project, table, site, fn_expr) -> Iterator[Finding]:
        if isinstance(fn_expr, ast.Lambda):
            yield self._finding(
                table,
                site,
                "task fn is a lambda — process pools pickle worker "
                "functions by reference, so it must be a module-level def",
            )
            return
        info = project.resolve_function(table, fn_expr)
        if info is None:
            name = terminal_name(fn_expr)
            if name is not None and any(
                qual.endswith(f"<locals>.{name}") for qual, _ in table.scopes
            ):
                yield self._finding(
                    table,
                    site,
                    f"task fn {name!r} is a nested function — process pools "
                    "pickle worker functions by reference, so it must be a "
                    "module-level def",
                )
            return
        fn_table = project.modules.get(info.module, table)
        yield from self._check_body(project, table, fn_table, site, info)

    def _check_body(self, project, site_table, fn_table, site, info) -> Iterator[Finding]:
        mutables = fn_table.module_mutables
        reported: set[str] = set()
        for node in walk_scope(info.node):
            # writes to module-level mutables from inside the worker
            if isinstance(node, ast.Global):
                for name in node.names:
                    if name not in reported:
                        reported.add(name)
                        yield self._finding(
                            site_table,
                            site,
                            f"task fn {info.qualname!r} rebinds module global "
                            f"{name!r}: each worker process mutates its own "
                            "copy, so the result never propagates back",
                        )
            elif isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr in MUTATOR_METHODS
                    and isinstance(func.value, ast.Name)
                    and func.value.id in mutables
                    and func.value.id not in reported
                ):
                    reported.add(func.value.id)
                    yield self._finding(
                        site_table,
                        site,
                        f"task fn {info.qualname!r} mutates module-level "
                        f"{func.value.id!r}: cross-process mutation does not "
                        "propagate, and the shared state is invisible to the "
                        "sweep cache key",
                    )
                chain = attr_chain(func)
                if chain in ("os.getenv",) or (
                    chain is not None and chain.startswith("os.environ")
                ):
                    if "environ" not in reported:
                        reported.add("environ")
                        yield self._finding(
                            site_table,
                            site,
                            f"task fn {info.qualname!r} reads the process "
                            "environment: environment values never reach the "
                            "sweep cache key, so cached results silently "
                            "encode whatever was exported when they ran — "
                            "pass the value through kwargs instead",
                        )
            elif isinstance(node, ast.Subscript) and isinstance(
                node.ctx, (ast.Store, ast.Del)
            ):
                root = node.value
                if (
                    isinstance(root, ast.Name)
                    and root.id in mutables
                    and root.id not in reported
                ):
                    reported.add(root.id)
                    yield self._finding(
                        site_table,
                        site,
                        f"task fn {info.qualname!r} writes into module-level "
                        f"{root.id!r}: cross-process mutation does not "
                        "propagate back to the submitting process",
                    )
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                name = node.id
                if (
                    name in mutables
                    and name in fn_table.mutated_globals
                    and name not in reported
                ):
                    reported.add(name)
                    yield self._finding(
                        site_table,
                        site,
                        f"task fn {info.qualname!r} reads module-level "
                        f"mutable {name!r} (mutated elsewhere in "
                        f"{fn_table.name or fn_table.path}): its value does "
                        "not reach the sweep cache key, so cached results "
                        "can go stale against it",
                    )

    def _finding(self, table, site, message: str) -> Finding:
        return Finding(
            rule_id=self.rule_id,
            path=table.path,
            line=site.lineno,
            col=site.col_offset,
            message=message,
        )


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------

PROJECT_CHECKERS = {
    checker.rule_id: checker
    for checker in (
        RngUnorderedIterationChecker(),
        HookPurityChecker(),
        SweepSharedStateChecker(),
    )
}

PROJECT_RULE_IDS = frozenset(PROJECT_CHECKERS)


def run_project_checkers(
    project: ProjectContext, rule_ids
) -> list[Finding]:
    """Run the selected project rules; findings in (path, line) order."""
    findings: list[Finding] = []
    for rule_id in rule_ids:
        checker = PROJECT_CHECKERS.get(rule_id)
        if checker is not None:
            findings.extend(checker.check(project))
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule_id))
    return findings
