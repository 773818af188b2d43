"""Project-level dataflow analysis: the core under rules SIM008-SIM011.

The per-file visitors in :mod:`repro.lint.rules` deliberately see one
module at a time.  The fast-path invariants added since PR 3 cannot be
checked that way: whether a hook passed to ``Link.deliver`` is pure,
whether a sweep worker function closes over module state, or whether an
RNG draw sits under unordered iteration all require *project* knowledge —
who defines what, who imports what, and which value a name holds at a
given statement.  This module provides exactly three mechanisms, each as
small as the rules allow:

* **Module symbol tables** (:class:`ModuleTable`): per-module dotted
  names for imports, functions (including class methods, keyed by
  qualname), module-level mutable bindings, and mutation sites.
* **An import-resolved cross-module view** (:class:`ProjectContext`):
  dotted-path resolution of any ``Name``/``Attribute`` chain through
  ``import`` / ``from .. import`` aliases to the defining
  :class:`FunctionInfo` in another module, giving rules a call graph
  without whole-program type inference.
* **An intra-procedural reaching-definitions walk**
  (:class:`ReachingDefs`): a flow-sensitive forward pass over one scope
  that answers "which value expressions can ``name`` hold at this
  loop?" — how SIM008 sees through ``xs = set(...)``.

Everything here is still syntactic and runs in one pass per file: no
execution, no fixpoint iteration, no type inference.  The analysis is
*sound for the shapes this repository uses* (the naming conventions the
per-file rules already rely on), which is what a project-local linter is
for.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional, Sequence

__all__ = [
    "FunctionInfo",
    "ModuleTable",
    "ProjectContext",
    "ReachingDefs",
    "attr_chain",
    "terminal_name",
    "GENERATOR_DRAW_METHODS",
    "MUTATOR_METHODS",
    "RNG_NAME_RE",
    "is_rng_draw",
    "walk_scope",
]


# ----------------------------------------------------------------------
# Shared vocabulary
# ----------------------------------------------------------------------

#: ``numpy.random.Generator`` draw methods (plus ``SeedSequence.spawn``):
#: calling any of these consumes RNG state, so *where* the call happens in
#: iteration order is part of the determinism contract.
GENERATOR_DRAW_METHODS = frozenset({
    "random", "integers", "choice", "shuffle", "permutation", "permuted",
    "bytes", "uniform", "normal", "standard_normal", "exponential",
    "standard_exponential", "pareto", "poisson", "binomial", "lognormal",
    "gamma", "beta", "weibull", "zipf", "geometric", "triangular",
    "spawn",
})

#: Receiver names conventionally bound to an RNG in this repository.
RNG_NAME_RE = re.compile(r"(^|_)rng$|^random_state$|^seedseq$|(^|_)gen$")

#: Method calls that mutate their receiver in place.
MUTATOR_METHODS = frozenset({
    "append", "appendleft", "extend", "extendleft", "insert", "add",
    "update", "setdefault", "pop", "popleft", "popitem", "remove",
    "discard", "clear", "reverse", "sort", "__setitem__",
})

_MUTABLE_LITERALS = (
    ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp,
)
_MUTABLE_CALLS = frozenset({
    "list", "dict", "set", "bytearray", "defaultdict", "deque", "Counter",
    "OrderedDict",
})


def attr_chain(node: ast.expr) -> Optional[str]:
    """Purely syntactic dotted name of a Name/Attribute chain, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def terminal_name(node: ast.expr) -> Optional[str]:
    """The last identifier of a Name/Attribute chain, else None."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def is_rng_draw(node: ast.Call) -> bool:
    """True for ``<rng-named receiver>.<Generator draw method>(...)``."""
    func = node.func
    if not isinstance(func, ast.Attribute):
        return False
    if func.attr not in GENERATOR_DRAW_METHODS:
        return False
    receiver = func.value
    # Direct receiver (``rng.normal``) or one attribute hop
    # (``self.rng.normal``, ``source._rng.pareto``).
    name = terminal_name(receiver)
    return name is not None and RNG_NAME_RE.search(name) is not None


def walk_scope(node: ast.AST) -> Iterator[ast.AST]:
    """``ast.walk`` restricted to one scope: nested function/class bodies
    (and lambdas) are not descended into — they are their own scopes."""
    stack: list[ast.AST] = list(ast.iter_child_nodes(node))
    while stack:
        child = stack.pop()
        yield child
        if isinstance(
            child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)
        ):
            continue
        stack.extend(ast.iter_child_nodes(child))


def _is_mutable_value(node: ast.expr) -> bool:
    if isinstance(node, _MUTABLE_LITERALS):
        return True
    if isinstance(node, ast.Call):
        name = terminal_name(node.func)
        return name in _MUTABLE_CALLS
    return False


# ----------------------------------------------------------------------
# Module symbol tables
# ----------------------------------------------------------------------


@dataclass
class FunctionInfo:
    """One function definition, addressable across the project."""

    module: str  # dotted module name ("" when underivable)
    qualname: str  # e.g. ``plan_stream`` or ``Link.sync``
    node: ast.FunctionDef | ast.AsyncFunctionDef
    path: str
    lineno: int
    is_method: bool = False

    @property
    def dotted(self) -> str:
        """``module.qualname`` — the project-wide address."""
        return f"{self.module}.{self.qualname}" if self.module else self.qualname


class ModuleTable:
    """Symbol table for one parsed module."""

    __slots__ = (
        "path",
        "name",
        "tree",
        "imports",
        "functions",
        "scopes",
        "module_mutables",
        "mutated_globals",
        "class_bases",
    )

    def __init__(self, path: str, name: str, tree: ast.Module):
        self.path = path
        self.name = name
        self.tree = tree
        #: local binding -> dotted target ("numpy" -> "numpy",
        #: "SweepTask" -> "repro.parallel.SweepTask", ...)
        self.imports: dict[str, str] = {}
        #: qualname -> FunctionInfo for module- and class-level defs (the
        #: resolvable ones; nested defs live only in ``scopes``).
        self.functions: dict[str, FunctionInfo] = {}
        #: every executable scope: ("", tree) plus (qualname, def-node)
        #: for *all* function defs, nested ones included.
        self.scopes: list[tuple[str, ast.AST]] = [("", tree)]
        #: module-level names bound to a mutable value -> first lineno
        self.module_mutables: dict[str, int] = {}
        #: names whose object is mutated anywhere in the module
        #: (``x[k] = v``, ``x.append(...)``, ``global x`` + assign)
        self.mutated_globals: set[str] = set()
        #: class qualname -> base-name chain (syntactic)
        self.class_bases: dict[str, list[str]] = {}
        self._build()

    def _package(self) -> list[str]:
        parts = self.name.split(".") if self.name else []
        if self.path.endswith("__init__.py"):
            return parts
        return parts[:-1]

    def _build(self) -> None:
        self._scan_body(self.tree.body, qual=[], in_class=False)
        self._scan_module_level()
        self._scan_mutations()

    def _scan_body(self, body: Sequence[ast.stmt], qual: list[str], in_class: bool) -> None:
        for node in body:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname:
                        self.imports[alias.asname] = alias.name
                    else:
                        top = alias.name.split(".")[0]
                        self.imports[top] = top
            elif isinstance(node, ast.ImportFrom):
                base = self._import_base(node)
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    bound = alias.asname or alias.name
                    self.imports[bound] = (
                        f"{base}.{alias.name}" if base else alias.name
                    )
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = ".".join(qual + [node.name])
                self.functions[qualname] = FunctionInfo(
                    module=self.name,
                    qualname=qualname,
                    node=node,
                    path=self.path,
                    lineno=node.lineno,
                    is_method=in_class,
                )
                self._collect_scopes(node, qualname)
            elif isinstance(node, ast.ClassDef):
                qualname = ".".join(qual + [node.name])
                self.class_bases[qualname] = [
                    b for b in (attr_chain(base) for base in node.bases) if b
                ]
                self._scan_body(node.body, qual + [node.name], in_class=True)

    def _collect_scopes(self, func: ast.AST, qualname: str) -> None:
        self.scopes.append((qualname, func))
        for child in walk_scope(func):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._collect_scopes(child, f"{qualname}.<locals>.{child.name}")

    def _import_base(self, node: ast.ImportFrom) -> str:
        if node.level == 0:
            return node.module or ""
        package = self._package()
        # level 1 = current package, each extra level pops one component.
        base_parts = package[: len(package) - (node.level - 1)]
        if node.module:
            base_parts = base_parts + node.module.split(".")
        return ".".join(base_parts)

    def _scan_module_level(self) -> None:
        for node in self.tree.body:
            targets: list[ast.expr] = []
            value: Optional[ast.expr] = None
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets, value = [node.target], node.value
            if value is None or not _is_mutable_value(value):
                continue
            for target in targets:
                if isinstance(target, ast.Name):
                    self.module_mutables.setdefault(target.id, node.lineno)

    def _scan_mutations(self) -> None:
        for node in ast.walk(self.tree):
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign) else [node.target]
                )
                for target in targets:
                    # x[k] = v / x.attr = v mutate the object bound to x.
                    if isinstance(target, (ast.Subscript, ast.Attribute)):
                        root = target.value
                        while isinstance(root, (ast.Subscript, ast.Attribute)):
                            root = root.value
                        if isinstance(root, ast.Name):
                            self.mutated_globals.add(root.id)
            elif isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr in MUTATOR_METHODS
                    and isinstance(func.value, ast.Name)
                ):
                    self.mutated_globals.add(func.value.id)
            elif isinstance(node, ast.Global):
                self.mutated_globals.update(node.names)


# ----------------------------------------------------------------------
# Project context and cross-module resolution
# ----------------------------------------------------------------------


def module_name_for_path(path: str) -> str:
    """Dotted module name derived from a file path.

    Files under a ``src`` component are importable packages
    (``src/repro/netsim/link.py`` -> ``repro.netsim.link``); anything else
    (tests, benchmarks, examples, fixtures) gets its path-derived name,
    which keeps tables unique without pretending it is importable.
    """
    norm = path.replace("\\", "/")
    parts = [p for p in norm.split("/") if p not in ("", ".")]
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    if "src" in parts:
        parts = parts[len(parts) - parts[::-1].index("src"):]
    else:
        # keep at most the last three components for stability
        parts = parts[-3:]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


class ProjectContext:
    """All parsed modules of one lint run, with cross-module resolution.

    Built once per :func:`repro.lint.runner.lint_paths` invocation from
    the very trees the per-file pass already parsed — the project pass
    never re-reads or re-parses a file.
    """

    def __init__(self) -> None:
        self.modules: dict[str, ModuleTable] = {}
        self.by_path: dict[str, ModuleTable] = {}
        self._reaching: dict[tuple[str, int], ReachingDefs] = {}
        self._rng_cache: dict[tuple[str, str], bool] = {}

    @classmethod
    def build(cls, files: Iterable[tuple]) -> "ProjectContext":
        """``files`` yields ``(path, tree)`` for every lintable module;
        trees are the per-file pass's parses — the project pass never
        re-reads or re-parses a file."""
        project = cls()
        for path, tree in files:
            table = ModuleTable(path, module_name_for_path(path), tree)
            project.modules.setdefault(table.name, table)
            project.by_path[path] = table
        return project

    # -- name resolution ------------------------------------------------
    def resolve(self, table: ModuleTable, node: ast.expr) -> Optional[str]:
        """Project-wide dotted name of an expression, through imports.

        ``SweepTask`` imported via ``from ..parallel import SweepTask``
        resolves to ``repro.parallel.SweepTask``; a local module-level
        def resolves to ``<module>.<name>``; unresolvable chains return
        ``None``.
        """
        chain = attr_chain(node)
        if chain is None:
            return None
        head, _, rest = chain.partition(".")
        target = table.imports.get(head)
        if target is not None:
            return f"{target}.{rest}" if rest else target
        if head in table.functions and not rest:
            return f"{table.name}.{head}" if table.name else head
        if head in table.class_bases:
            return f"{table.name}.{chain}" if table.name else chain
        return None

    def find_function(self, dotted: Optional[str]) -> Optional[FunctionInfo]:
        """The :class:`FunctionInfo` a dotted path names, if in-project."""
        if not dotted:
            return None
        parts = dotted.split(".")
        # Try progressively shorter module prefixes: ``a.b.c.d`` may be
        # function ``d`` in module ``a.b.c`` or method ``c.d`` in ``a.b``.
        for cut in range(len(parts) - 1, 0, -1):
            module = ".".join(parts[:cut])
            table = self.modules.get(module)
            if table is None:
                continue
            qualname = ".".join(parts[cut:])
            info = table.functions.get(qualname)
            if info is not None:
                return info
        return None

    def resolve_function(
        self, table: ModuleTable, node: ast.expr
    ) -> Optional[FunctionInfo]:
        """Resolve an expression to the in-project function it names."""
        return self.find_function(self.resolve(table, node))

    # -- call graph ------------------------------------------------------
    def callees(self, info: FunctionInfo) -> list[FunctionInfo]:
        """In-project functions called (by name) from ``info``'s body."""
        table = self.modules.get(info.module)
        if table is None:
            return []
        out: list[FunctionInfo] = []
        seen: set[str] = set()
        for node in walk_scope(info.node):
            if not isinstance(node, ast.Call):
                continue
            callee = self.resolve_function(table, node.func)
            if callee is not None and callee.dotted not in seen:
                seen.add(callee.dotted)
                out.append(callee)
        return out

    def call_graph(self) -> dict[str, set[str]]:
        """Full dotted-name call graph over every module table."""
        graph: dict[str, set[str]] = {}
        for table in self.modules.values():
            for info in table.functions.values():
                graph[info.dotted] = {c.dotted for c in self.callees(info)}
        return graph

    # -- derived facts ---------------------------------------------------
    def draws_rng(self, info: FunctionInfo, depth: int = 2) -> bool:
        """True when ``info`` (or a callee, to ``depth``) draws from an RNG."""
        key = (info.dotted, info.path)
        cached = self._rng_cache.get(key)
        if cached is not None:
            return cached
        self._rng_cache[key] = False  # cycle guard
        result = False
        for node in walk_scope(info.node):
            if isinstance(node, ast.Call) and is_rng_draw(node):
                result = True
                break
        if not result and depth > 0:
            result = any(
                self.draws_rng(callee, depth - 1) for callee in self.callees(info)
            )
        self._rng_cache[key] = result
        return result

    def reaching(self, table: ModuleTable, scope: ast.AST) -> "ReachingDefs":
        """Memoized reaching-definitions walk for one scope."""
        key = (table.path, id(scope))
        walk = self._reaching.get(key)
        if walk is None:
            walk = ReachingDefs(scope)
            self._reaching[key] = walk
        return walk


# ----------------------------------------------------------------------
# Intra-procedural reaching definitions
# ----------------------------------------------------------------------

#: Sentinel candidate meaning "value statically unknown".
UNKNOWN = None


class ReachingDefs:
    """Flow-sensitive forward walk over one scope's statements.

    Records, for every ``for``/``while`` statement, the environment at
    loop entry: a map from name to the tuple of value expressions that
    may reach it (``UNKNOWN`` marks an unanalyzable candidate, e.g. a
    parameter, an augmented assignment, or a loop target).  Branches are
    walked with copied environments and merged by candidate union, so
    the result over-approximates — a rule sees every value a name *may*
    hold, never fewer.
    """

    def __init__(self, scope: ast.AST):
        self.at_loop: dict[int, dict[str, tuple]] = {}
        env: dict[str, tuple] = {}
        args = getattr(scope, "args", None)
        if args is not None:
            for a in (
                list(args.posonlyargs)
                + list(args.args)
                + list(args.kwonlyargs)
                + ([args.vararg] if args.vararg else [])
                + ([args.kwarg] if args.kwarg else [])
            ):
                env[a.arg] = (UNKNOWN,)
        body = scope.body if isinstance(scope.body, list) else [scope.body]
        self._walk(body, env)

    # -- environment plumbing -------------------------------------------
    @staticmethod
    def _merge(a: dict[str, tuple], b: dict[str, tuple]) -> dict[str, tuple]:
        out = dict(a)
        for name, cands in b.items():
            prior = out.get(name, ())
            merged = list(prior)
            for c in cands:
                if not any(c is p for p in merged):
                    merged.append(c)
            out[name] = tuple(merged)
        return out

    def _bind_target(self, target: ast.expr, value, env: dict[str, tuple]) -> None:
        if isinstance(target, ast.Name):
            env[target.id] = (value,)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._bind_target(elt, UNKNOWN, env)
        elif isinstance(target, ast.Starred):
            self._bind_target(target.value, UNKNOWN, env)
        # attribute/subscript stores do not (re)bind a local name

    def _walk(self, body: Sequence[ast.stmt], env: dict[str, tuple]) -> dict[str, tuple]:
        for node in body:
            if isinstance(node, (ast.For, ast.AsyncFor)):
                self.at_loop[id(node)] = dict(env)
                self._bind_target(node.target, UNKNOWN, env)
                loop_env = self._walk(node.body, dict(env))
                env = self._merge(env, loop_env)
                env = self._walk(node.orelse, env)
            elif isinstance(node, ast.While):
                self.at_loop[id(node)] = dict(env)
                loop_env = self._walk(node.body, dict(env))
                env = self._merge(env, loop_env)
                env = self._walk(node.orelse, env)
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    self._bind_target(target, node.value, env)
            elif isinstance(node, ast.AnnAssign):
                if node.value is not None:
                    self._bind_target(node.target, node.value, env)
            elif isinstance(node, ast.AugAssign):
                self._bind_target(node.target, UNKNOWN, env)
            elif isinstance(node, ast.If):
                then_env = self._walk(node.body, dict(env))
                else_env = self._walk(node.orelse, dict(env))
                env = self._merge(then_env, else_env)
            elif isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    if item.optional_vars is not None:
                        self._bind_target(item.optional_vars, UNKNOWN, env)
                env = self._walk(node.body, env)
            elif isinstance(node, ast.Try):
                env = self._walk(node.body, env)
                for handler in node.handlers:
                    env = self._merge(env, self._walk(handler.body, dict(env)))
                env = self._walk(node.orelse, env)
                env = self._walk(node.finalbody, env)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                env[node.name] = (UNKNOWN,)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    env[(alias.asname or alias.name).split(".")[0]] = (UNKNOWN,)
            elif isinstance(node, ast.Delete):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        env.pop(target.id, None)
            # expression statements, returns, etc. bind nothing
        return env

    def env_at(self, loop: ast.stmt) -> dict[str, tuple]:
        """Environment at entry of a ``for``/``while`` recorded earlier."""
        return self.at_loop.get(id(loop), {})

    def candidates(self, loop: ast.stmt, name: str) -> tuple:
        """Value candidates for ``name`` at ``loop`` entry (may be empty)."""
        return self.env_at(loop).get(name, ())
