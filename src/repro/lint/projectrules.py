"""Project-level rules SIM008-SIM011, built on :mod:`repro.lint.dataflow`.

These rules need more than one file's AST: SIM008 chases a loop iterable
back to its defining expression, SIM009 resolves hook callables across
modules and cross-checks the fast-path decommission guards, SIM010
classifies whole loop bodies, and SIM011 follows sweep worker functions
from the :class:`~repro.parallel.SweepTask` construction site into their
defining module.  Each checker implements ``check(project) ->
Iterator[Finding]`` against a :class:`~repro.lint.dataflow.ProjectContext`
and is registered in :data:`PROJECT_CHECKERS`.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterator, Optional

from .dataflow import (
    GENERATOR_DRAW_METHODS,
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
    "classify_loops",
    "LoopReport",
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
_STREAMTRANSIT_MODULE = "repro.netsim.streamtransit"
_BULKARRIVALS_MODULE = "repro.netsim.bulkarrivals"

#: Simulator / link state movers: a hook calling any of these reschedules
#: or re-enters the data path from inside the data path.
_STATE_MOVER_METHODS = frozenset({
    "schedule", "schedule_at", "process", "send", "inject_at",
    "send_forward", "send_reverse", "claim_per_packet", "release_per_packet",
    "interrupt", "decommission", "_decommission", "sync", "dissolve",
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
        stream = project.modules.get(_STREAMTRANSIT_MODULE)
        if stream is not None:
            plan = stream.functions.get("plan_stream")
            if plan is not None:
                attrs = {
                    n.attr for n in ast.walk(plan.node) if isinstance(n, ast.Attribute)
                }
                missing = sorted(_PRIVATE_HOOK_ATTRS - attrs)
                if missing:
                    yield Finding(
                        rule_id=self.rule_id,
                        path=stream.path,
                        line=plan.lineno,
                        col=0,
                        message=(
                            "plan_stream() eligibility check no longer "
                            f"consults {', '.join(missing)} — a hooked link "
                            "would be planned analytically and the hook "
                            "callbacks silently skipped"
                        ),
                    )
        bulk = project.modules.get(_BULKARRIVALS_MODULE)
        if bulk is not None:
            register = bulk.functions.get("CrossAggregator.register")
            if register is not None:
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
# SIM010 — vectorizability classifier for sequential FP loops
# ----------------------------------------------------------------------

_PURE_BUILTINS = frozenset({
    "len", "min", "max", "abs", "float", "int", "bool", "range", "round",
    "enumerate", "zip", "isinstance", "sum", "sorted", "reversed", "repr",
    "bisect_left", "bisect_right", "bisect", "divmod",
})

_ARITH_OPS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.FloorDiv, ast.Mod, ast.Pow)


@dataclass
class LoopReport:
    """Classification of one sequential loop for the vectorization work list."""

    module: str
    function: str
    path: str
    line: int
    end_line: int
    kind: str  # "for" | "while"
    label: str  # "VECTOR-SAFE" | "VECTOR-UNSAFE"
    reasons: list[str] = field(default_factory=list)
    accumulators: dict[str, str] = field(default_factory=dict)
    annotated: bool = False

    def to_dict(self) -> dict:
        return {
            "module": self.module,
            "function": self.function,
            "path": self.path,
            "line": self.line,
            "end_line": self.end_line,
            "kind": self.kind,
            "label": self.label,
            "reasons": list(self.reasons),
            "accumulators": dict(self.accumulators),
            "annotated": self.annotated,
        }


class _LoopScan:
    """One textual-order pass over a loop body collecting dataflow facts."""

    def __init__(self, loop: ast.stmt, env: dict):
        self.loop = loop
        self.env = env
        self.first_read: set[str] = set()
        self.written: set[str] = set()
        #: name -> [(rhs expr | None for aug, guarded, aug_op)]
        self.writes: dict[str, list[tuple[Optional[ast.expr], bool, Optional[ast.AST]]]] = {}
        #: name -> assigned RHS exprs (for shape chasing)
        self.body_defs: dict[str, list[ast.expr]] = {}
        #: reads of a name outside its own update statement
        self.reads_elsewhere: set[str] = set()
        self.containers_written: set[str] = set()
        self.containers_read: set[str] = set()
        self.predicates: list[ast.expr] = []
        self.break_guards: list[list[ast.expr]] = []
        self.opaque_calls: list[ast.Call] = []
        self.rng_calls: list[ast.Call] = []
        self.loop_targets: set[str] = set()
        if isinstance(loop, ast.For):
            self._collect_targets(loop.target)
            self._read_expr(loop.iter, exclude=set())
        else:
            self.predicates.append(loop.test)
            self._read_expr(loop.test, exclude=set())
        self._scan(loop.body, guards=[])

    # -- helpers ---------------------------------------------------------
    def _collect_targets(self, target: ast.expr) -> None:
        for node in ast.walk(target):
            if isinstance(node, ast.Name):
                self.loop_targets.add(node.id)
                self.written.add(node.id)

    def _alias_container(self, name: str) -> Optional[str]:
        """Container behind a bound-method alias (``a = xs.append``)."""
        cands = [c for c in self.env.get(name, ()) if c is not None]
        cands += self.body_defs.get(name, [])
        out: Optional[str] = None
        for cand in cands:
            if (
                isinstance(cand, ast.Attribute)
                and cand.attr in MUTATOR_METHODS
                and isinstance(cand.value, ast.Name)
            ):
                out = cand.value.id
            else:
                return None
        return out

    def _read_expr(self, expr: Optional[ast.expr], exclude: set[str]) -> None:
        if expr is None:
            return
        for node in ast.walk(expr):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                if node.id not in self.written:
                    self.first_read.add(node.id)
                if node.id not in exclude:
                    self.reads_elsewhere.add(node.id)
                if node.id in self.containers_written:
                    self.containers_read.add(node.id)

    def _note_call(self, node: ast.Call) -> None:
        if is_rng_draw(node):
            self.rng_calls.append(node)
            return
        func = node.func
        if isinstance(func, ast.Attribute):
            if func.attr in MUTATOR_METHODS and isinstance(func.value, ast.Name):
                self.containers_written.add(func.value.id)
                return
            self.opaque_calls.append(node)
            return
        if isinstance(func, ast.Name):
            if func.id in _PURE_BUILTINS:
                return
            container = self._alias_container(func.id)
            if container is not None:
                self.containers_written.add(container)
                return
            self.opaque_calls.append(node)
            return
        self.opaque_calls.append(node)

    # -- the scan --------------------------------------------------------
    def _scan(self, stmts, guards: list[ast.expr]) -> None:
        for stmt in stmts:
            if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                value = stmt.value
                targets = (
                    stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                )
                names = [t.id for t in targets if isinstance(t, ast.Name)]
                self._scan_calls(value)
                self._read_expr(value, exclude=set(names))
                for target in targets:
                    if isinstance(target, ast.Name):
                        if value is not None:
                            self.writes.setdefault(target.id, []).append(
                                (value, bool(guards), None)
                            )
                            self.body_defs.setdefault(target.id, []).append(value)
                        self.written.add(target.id)
                    elif isinstance(target, (ast.Tuple, ast.List)):
                        for node in ast.walk(target):
                            if isinstance(node, ast.Name):
                                self.written.add(node.id)
                                self.writes.setdefault(node.id, []).append(
                                    (None, bool(guards), None)
                                )
                    elif isinstance(target, (ast.Subscript, ast.Attribute)):
                        root = target
                        while isinstance(root, (ast.Subscript, ast.Attribute)):
                            root = root.value
                        if isinstance(root, ast.Name):
                            self.containers_written.add(root.id)
                        self._read_expr(target, exclude=set())
            elif isinstance(stmt, ast.AugAssign):
                self._scan_calls(stmt.value)
                if isinstance(stmt.target, ast.Name):
                    name = stmt.target.id
                    if name not in self.written:
                        self.first_read.add(name)
                    self._read_expr(stmt.value, exclude={name})
                    self.written.add(name)
                    self.writes.setdefault(name, []).append(
                        (stmt.value, bool(guards), stmt.op)
                    )
                else:
                    self._read_expr(stmt.value, exclude=set())
                    self._read_expr(stmt.target, exclude=set())
                    root = stmt.target
                    while isinstance(root, (ast.Subscript, ast.Attribute)):
                        root = root.value
                    if isinstance(root, ast.Name):
                        self.containers_written.add(root.id)
            elif isinstance(stmt, ast.If):
                self.predicates.append(stmt.test)
                self._scan_calls(stmt.test)
                self._read_expr(stmt.test, exclude=set())
                self._scan(stmt.body, guards + [stmt.test])
                self._scan(stmt.orelse, guards + [stmt.test])
            elif isinstance(stmt, (ast.While,)):
                self.predicates.append(stmt.test)
                self._scan_calls(stmt.test)
                self._read_expr(stmt.test, exclude=set())
                self._scan(stmt.body, guards)
                self._scan(stmt.orelse, guards)
            elif isinstance(stmt, (ast.For, ast.AsyncFor)):
                self._scan_calls(stmt.iter)
                self._read_expr(stmt.iter, exclude=set())
                self._collect_targets(stmt.target)
                self._scan(stmt.body, guards)
                self._scan(stmt.orelse, guards)
            elif isinstance(stmt, ast.Expr):
                self._scan_calls(stmt.value)
                self._read_expr_skip_mutators(stmt.value)
            elif isinstance(stmt, ast.Break):
                self.break_guards.append(list(guards))
            elif isinstance(stmt, ast.Continue):
                pass
            elif isinstance(stmt, (ast.Return, ast.Raise)):
                if getattr(stmt, "value", None) is not None:
                    self._scan_calls(stmt.value)
                    self._read_expr(stmt.value, exclude=set())
                if getattr(stmt, "exc", None) is not None:
                    self._scan_calls(stmt.exc)
                    self._read_expr(stmt.exc, exclude=set())
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                self.written.add(stmt.name)
            else:
                for node in ast.walk(stmt):
                    if isinstance(node, ast.Call):
                        self._note_call(node)
                    elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                        self._read_expr(node, exclude=set())

    def _scan_calls(self, expr: Optional[ast.expr]) -> None:
        if expr is None:
            return
        for node in ast.walk(expr):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            if isinstance(node, ast.Call):
                self._note_call(node)

    def _read_expr_skip_mutators(self, expr: ast.expr) -> None:
        """Reads of an expression statement, ignoring mutator receivers
        (``xs.append(v)`` reads ``v`` but does not *read* ``xs``)."""
        skip: set[int] = set()
        for node in ast.walk(expr):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in MUTATOR_METHODS
                and isinstance(node.func.value, ast.Name)
            ):
                skip.add(id(node.func.value))
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                if self._alias_container(node.func.id) is not None:
                    skip.add(id(node.func))
        for node in ast.walk(expr):
            if (
                isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load)
                and id(node) not in skip
            ):
                if node.id not in self.written:
                    self.first_read.add(node.id)
                self.reads_elsewhere.add(node.id)
                if node.id in self.containers_written:
                    self.containers_read.add(node.id)


# shape codes for accumulator updates
_V, _A, _MA, _AV, _MAV, _OTHER = "V", "A", "MA", "A+V", "MA+V", "?"


def _shape(expr: ast.expr, acc: str, defs: dict, visiting: set[str]) -> str:
    """Shape of ``expr`` relative to accumulator ``acc``.

    ``V``: no dependence on acc; ``A``: exactly acc's previous value;
    ``MA``: max(acc, value); ``A+V`` / ``MA+V``: that plus/minus a value —
    the prefix-sum and Lindley shapes; ``?``: anything else.
    """
    if isinstance(expr, ast.Name):
        if expr.id == acc:
            return _A
        if expr.id in visiting:
            return _OTHER
        rhs_list = defs.get(expr.id)
        if rhs_list:
            shapes = {
                _shape(rhs, acc, defs, visiting | {expr.id}) for rhs in rhs_list
            }
            return shapes.pop() if len(shapes) == 1 else _OTHER
        return _V
    if isinstance(expr, ast.Constant):
        return _V
    if isinstance(expr, ast.BinOp) and isinstance(expr.op, _ARITH_OPS):
        left = _shape(expr.left, acc, defs, visiting)
        right = _shape(expr.right, acc, defs, visiting)
        if left == _V and right == _V:
            return _V
        if isinstance(expr.op, (ast.Add, ast.Sub)):
            pair = {left, right}
            if pair == {_A, _V} or pair == {_A}:
                return _AV
            if pair == {_MA, _V} or pair == {_MA}:
                return _MAV
        return _OTHER
    if isinstance(expr, ast.IfExp):
        body = _shape(expr.body, acc, defs, visiting)
        orelse = _shape(expr.orelse, acc, defs, visiting)
        test_ok = (
            isinstance(expr.test, ast.Compare)
            and len(expr.test.ops) == 1
            and isinstance(expr.test.ops[0], (ast.Gt, ast.GtE, ast.Lt, ast.LtE))
        )
        if test_ok and {body, orelse} == {_A, _V}:
            return _MA  # ``acc if acc > t else t`` — the running-max select
        if body == orelse == _V:
            return _V
        return _OTHER
    if isinstance(expr, ast.Call):
        func = expr.func
        if isinstance(func, ast.Name) and func.id in ("max", "min") and len(expr.args) == 2:
            shapes = {_shape(a, acc, defs, visiting) for a in expr.args}
            if shapes == {_A, _V}:
                return _MA
            if shapes == {_V}:
                return _V
        if isinstance(func, ast.Name) and func.id in _PURE_BUILTINS:
            inner = {_shape(a, acc, defs, visiting) for a in expr.args}
            if inner <= {_V}:
                return _V
        return _OTHER
    if isinstance(expr, (ast.Subscript, ast.Attribute)):
        for node in ast.walk(expr):
            if isinstance(node, ast.Name) and (node.id == acc or node.id in visiting):
                return _OTHER
        return _V
    if isinstance(expr, (ast.Tuple, ast.List)):
        shapes = {_shape(e, acc, defs, visiting) for e in expr.elts}
        return _V if shapes <= {_V} else _OTHER
    if isinstance(expr, ast.UnaryOp):
        return _shape(expr.operand, acc, defs, visiting)
    if isinstance(expr, ast.Compare):
        for node in ast.walk(expr):
            if isinstance(node, ast.Name) and node.id == acc:
                return _OTHER
        return _V
    return _OTHER


def _is_int_step(value: Optional[ast.expr]) -> bool:
    return (
        isinstance(value, ast.Constant)
        and isinstance(value.value, int)
        and not isinstance(value.value, bool)
    )


def _names_in(expr: ast.expr) -> set[str]:
    return {
        n.id
        for n in ast.walk(expr)
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
    }


def _classify_loop(
    loop: ast.stmt, env: dict, table: ModuleTable, qualname: str
) -> Optional[LoopReport]:
    """Classify one outermost loop; None when it is not an FP-recursion loop."""
    scan = _LoopScan(loop, env)
    carried = scan.first_read & scan.written

    # counters: every write is ``n (+|-)= <int literal>``
    counters: set[str] = set()
    for name in carried:
        writes = scan.writes.get(name, [])
        if writes and all(
            op is not None and isinstance(op, (ast.Add, ast.Sub)) and _is_int_step(rhs)
            for rhs, _g, op in writes
        ):
            counters.add(name)

    container_names = set(scan.containers_written)
    fp_accs = carried - counters - container_names

    reasons: list[str] = []
    accumulators: dict[str, str] = {}
    unsafe = False

    # containers mutated AND read couple iterations through the structure
    hot_containers = sorted(scan.containers_read & scan.containers_written)
    if hot_containers:
        unsafe = True
        reasons.append(
            "loop-carried container mutation: "
            + ", ".join(repr(c) for c in hot_containers)
            + " is mutated and read in the same walk (FIFO purge state "
            "couples iterations)"
        )

    conditional_accs: set[str] = set()
    any_arith = False
    for name in sorted(fp_accs):
        writes = scan.writes.get(name, [])
        if not writes:
            fp_accs.discard(name)
            continue
        shapes: set[str] = set()
        guarded = False
        for rhs, was_guarded, op in writes:
            guarded = guarded or was_guarded
            if op is not None:  # AugAssign
                if isinstance(op, (ast.Add, ast.Sub)) and rhs is not None:
                    operand = _shape(rhs, name, scan.body_defs, set())
                    shapes.add(_AV if operand == _V else _OTHER)
                else:
                    shapes.add(_OTHER)
            elif rhs is None:
                shapes.add(_OTHER)
            else:
                shapes.add(_shape(rhs, name, scan.body_defs, set()))
        if guarded:
            conditional_accs.add(name)
        bad = shapes - {_AV, _MAV, _MA, _A}
        if bad:
            unsafe = True
            accumulators[name] = "unrecognized recursion"
            reasons.append(
                f"accumulator {name!r} update is not an accumulate/max "
                "shape (data-dependent recursion)"
            )
            continue
        any_arith = True
        if _MAV in shapes or _MA in shapes:
            label = "max+add (Lindley)" if _MAV in shapes else "running max"
        else:
            label = "prefix sum"
        if guarded:
            if name in scan.reads_elsewhere:
                unsafe = True
                accumulators[name] = f"conditionally-updated {label} (read back)"
                reasons.append(
                    f"accumulator {name!r} is updated under a data-dependent "
                    "branch and read back in the loop — the admission "
                    "decision feeds the recursion"
                )
                continue
            label = f"masked {label}"
        accumulators[name] = label

    if not fp_accs or not any_arith and not unsafe:
        return None  # counters/bookkeeping only: not an FP-recursion loop

    # predicates may read stable inputs, but not conditionally-updated
    # accumulators (that is the drop-tail feedback shape)
    for pred in scan.predicates:
        feedback = sorted(_names_in(pred) & conditional_accs)
        if feedback:
            unsafe = True
            reasons.append(
                "branch predicate reads conditionally-updated state "
                + ", ".join(repr(n) for n in feedback)
                + " (admission feedback)"
            )

    for guards in scan.break_guards:
        guard_names = set().union(*(_names_in(g) for g in guards)) if guards else set()
        acc_dep = sorted(guard_names & (fp_accs | conditional_accs))
        if acc_dep:
            unsafe = True
            reasons.append(
                "early exit depends on the recursion value "
                + ", ".join(repr(n) for n in acc_dep)
            )

    if scan.rng_calls:
        unsafe = True
        reasons.append(
            f"RNG draw at line {scan.rng_calls[0].lineno}: draw order is "
            "part of the determinism contract"
        )
    if scan.opaque_calls:
        unsafe = True
        calls = []
        for call in scan.opaque_calls[:3]:
            calls.append(attr_chain(call.func) or "<call>")
        reasons.append(
            "opaque call(s) may carry cross-iteration state: "
            + ", ".join(sorted(set(calls)))
        )

    if not unsafe:
        gathers = sorted(scan.containers_written - scan.containers_read)
        parts = [
            f"{name}: {what}" for name, what in sorted(accumulators.items())
        ]
        reason = (
            "loop-carried state is only ["
            + "; ".join(parts)
            + "] — np.maximum.accumulate / np.add.accumulate round "
            "left-to-right exactly like the scalar chain"
        )
        if gathers:
            reason += (
                "; remaining effects are write-only gathers ("
                + ", ".join(gathers)
                + ")"
            )
        reasons = [reason]

    return LoopReport(
        module=table.name,
        function=qualname or "<module>",
        path=table.path,
        line=loop.lineno,
        end_line=getattr(loop, "end_lineno", loop.lineno) or loop.lineno,
        kind="for" if isinstance(loop, (ast.For, ast.AsyncFor)) else "while",
        label="VECTOR-UNSAFE" if unsafe else "VECTOR-SAFE",
        reasons=reasons,
        accumulators=accumulators,
    )


def _loops_in(scope: ast.AST) -> Iterator[ast.stmt]:
    """Every loop in the scope, outer and nested alike.

    A nested loop is classified twice — as part of its parent's body and
    standalone — because the vectorization work list needs both answers:
    the outer per-hop walk of ``plan_stream`` is UNSAFE while its inner
    per-packet Lindley recursion is exactly the loop worth vectorizing.
    """
    for node in walk_scope(scope):
        if isinstance(node, (ast.For, ast.AsyncFor, ast.While)):
            yield node


def classify_loops(project: ProjectContext) -> list[LoopReport]:
    """Run the SIM010 classifier over every scope of every module."""
    reports: list[LoopReport] = []
    for table in sorted(project.modules.values(), key=lambda t: t.path):
        markers = project.markers.get(table.path, frozenset())
        for qualname, scope in table.scopes:
            reaching = project.reaching(table, scope)
            for loop in _loops_in(scope):
                report = _classify_loop(
                    loop, reaching.env_at(loop), table, qualname
                )
                if report is None:
                    if loop.lineno in markers:
                        # annotated loop must at least classify
                        report = LoopReport(
                            module=table.name,
                            function=qualname or "<module>",
                            path=table.path,
                            line=loop.lineno,
                            end_line=getattr(loop, "end_lineno", loop.lineno)
                            or loop.lineno,
                            kind="for"
                            if isinstance(loop, (ast.For, ast.AsyncFor))
                            else "while",
                            label="VECTOR-UNSAFE",
                            reasons=[
                                "annotated vector-safe but no FP recursion "
                                "shape was recognized"
                            ],
                        )
                    else:
                        continue
                report.annotated = loop.lineno in markers
                reports.append(report)
    reports.sort(key=lambda r: (r.path, r.line))
    return reports


class VectorizabilityChecker:
    """SIM010: loops annotated ``# simlint: vector-safe`` must keep
    classifying VECTOR-SAFE.  The classification itself (every analyzed
    loop, safe or not) is exported as the ``vectorization.json`` work
    list for the vectorized-kernels roadmap item.
    """

    rule_id = "SIM010"

    def check(self, project: ProjectContext) -> Iterator[Finding]:
        for report in project.loop_reports():
            if report.annotated and report.label != "VECTOR-SAFE":
                yield Finding(
                    rule_id=self.rule_id,
                    path=report.path,
                    line=report.line,
                    col=0,
                    message=(
                        f"loop in {report.function}() is annotated "
                        "vector-safe but classifies VECTOR-UNSAFE: "
                        + "; ".join(report.reasons)
                    ),
                )


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
        VectorizabilityChecker(),
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
