"""Suppression pragmas and allowlist matching.

Two suppression mechanisms, by design both *visible in the diff*:

* an inline pragma on the offending line::

      t0 = time.perf_counter()  # simlint: disable=SIM001 -- measuring wall cost

  ``disable=`` takes a comma-separated rule list; a bare
  ``# simlint: disable`` suppresses every rule on that line.  Everything
  after ``--`` is a free-form justification (encouraged, not parsed).

* the allowlist (:data:`repro.lint.registry.DEFAULT_ALLOWLIST`): whole files
  where a rule is structurally expected, matched as posix-path suffixes.

Pragmas are extracted with :mod:`tokenize` so strings containing
``# simlint:`` text are never misread as suppressions.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from pathlib import PurePosixPath
from typing import Mapping, Optional, Sequence

__all__ = [
    "PragmaIndex",
    "extract_pragmas",
    "allowlisted",
]

_PRAGMA_RE = re.compile(
    r"#\s*simlint\s*:\s*disable(?:\s*=\s*(?P<rules>[A-Za-z0-9_,\s]+?))?\s*(?:--|$)"
)

#: Sentinel meaning "all rules suppressed on this line".
ALL_RULES_SENTINEL = "*"


class PragmaIndex:
    """Per-line suppression lookup for one source file."""

    def __init__(self, by_line: Mapping[int, frozenset[str]]):
        self._by_line = dict(by_line)

    def suppresses(self, line: int, rule_id: str) -> bool:
        """True if ``rule_id`` is pragma-disabled on ``line`` (1-based)."""
        rules = self._by_line.get(line)
        if rules is None:
            return False
        return ALL_RULES_SENTINEL in rules or rule_id in rules

    def __len__(self) -> int:  # pragma: no cover - debugging aid
        return len(self._by_line)


def _statement_spans(tree: ast.Module) -> list[tuple[int, int]]:
    """``(first_line, last_line)`` for every multi-line statement header.

    For simple statements (a wrapped call, a multi-line assignment) the
    span is the whole statement.  For compound statements (a decorated
    def, a ``with``/``for`` header) it is the header only — decorators
    and signature down to the line before the body — so a pragma on the
    first line never blankets the entire body.
    """
    spans: list[tuple[int, int]] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt):
            continue
        body = getattr(node, "body", None)
        if isinstance(body, list) and body and isinstance(body[0], ast.stmt):
            first = node.lineno
            decorators = getattr(node, "decorator_list", None) or []
            for deco in decorators:
                first = min(first, deco.lineno)
            last = max(first, body[0].lineno - 1)
        else:
            first = node.lineno
            last = getattr(node, "end_lineno", node.lineno) or node.lineno
        if last > first:
            spans.append((first, last))
    return spans


def extract_pragmas(source: str, tree: Optional[ast.Module] = None) -> PragmaIndex:
    """Scan ``source`` for ``# simlint: disable[=...]`` comments.

    With ``tree`` given, a pragma sitting on the *first* line of a
    multi-line statement (the decorator line of a decorated def, the
    opening line of a wrapped call) is expanded over that statement's
    span, so findings reported at inner lines are still suppressed.

    Tolerates files :mod:`tokenize` cannot process (the caller will already
    have failed to parse them for the AST pass anyway).
    """
    by_line: dict[int, frozenset[str]] = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for tok in tokens:
            if tok.type != tokenize.COMMENT:
                continue
            match = _PRAGMA_RE.search(tok.string)
            if not match:
                continue
            spec = match.group("rules")
            if spec is None:
                rules = frozenset({ALL_RULES_SENTINEL})
            else:
                rules = frozenset(
                    rule.strip().upper() for rule in spec.split(",") if rule.strip()
                )
            if rules:
                by_line[tok.start[0]] = by_line.get(tok.start[0], frozenset()) | rules
    except (tokenize.TokenError, IndentationError, SyntaxError):
        pass
    if tree is not None and by_line:
        for first, last in _statement_spans(tree):
            rules = by_line.get(first)
            if rules is None:
                continue
            for line in range(first + 1, last + 1):
                by_line[line] = by_line.get(line, frozenset()) | rules
    return PragmaIndex(by_line)


def allowlisted(
    path: str, rule_id: str, allowlist: Mapping[str, Sequence[str]]
) -> bool:
    """True if ``path`` matches an allowlist entry for ``rule_id``.

    Entries are posix-path suffixes; an entry ending in ``/`` matches any
    file under a directory of that (relative) name, so ``examples/``
    allowlists the whole examples tree wherever the repo is checked out.
    """
    suffixes = allowlist.get(rule_id)
    if not suffixes:
        return False
    posix = PurePosixPath(str(path).replace("\\", "/")).as_posix()
    anchored = "/" + posix
    for suffix in suffixes:
        if suffix.endswith("/"):
            if ("/" + suffix) in anchored or posix.startswith(suffix):
                return True
        elif posix.endswith(suffix):
            return True
    return False
