"""File discovery and the lint driver: parse → check → suppress.

Two passes share every parse:

1. the **per-file pass** (:class:`~repro.lint.rules.ModuleContext`,
   SIM001–SIM007) sees one module at a time, exactly as before;
2. the **project pass** (:class:`~repro.lint.dataflow.ProjectContext`,
   SIM008–SIM011) is built once from the per-file pass's trees and runs
   the cross-module checkers.

Pragma suppression and the allowlist apply identically to both.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Optional, Sequence

from .dataflow import ProjectContext
from .pragmas import allowlisted, extract_pragmas
from .projectrules import PROJECT_RULE_IDS, run_project_checkers
from .registry import DEFAULT_ALLOWLIST, Rule, get_rules
from .report import Finding
from .rules import ModuleContext, run_checkers

import ast

__all__ = ["LintResult", "lint_source", "lint_paths", "iter_python_files"]

#: Directories never descended into: build artifacts, caches, VCS
#: metadata, the sweep result cache from PR 3, and the linter's own
#: known-bad test fixtures.
_SKIP_DIRS = {
    "__pycache__", ".git", ".pytest_cache", "build", "dist", ".eggs",
    ".repro_cache", "lint_fixtures",
}

#: Directory-name suffixes skipped wherever they appear (setuptools drops
#: ``<name>.egg-info`` next to the package it builds).
_SKIP_DIR_SUFFIXES = (".egg-info",)


def _skip_part(part: str) -> bool:
    return part in _SKIP_DIRS or part.endswith(_SKIP_DIR_SUFFIXES)


@dataclass
class LintResult:
    """Outcome of one lint run."""

    findings: list[Finding] = field(default_factory=list)
    files_checked: int = 0
    parse_errors: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when the tree is clean (no findings, everything parsed)."""
        return not self.findings and not self.parse_errors


def _split_rules(rules: Sequence[Rule]) -> tuple[list[Rule], list[Rule]]:
    per_file = [r for r in rules if r.id not in PROJECT_RULE_IDS]
    project = [r for r in rules if r.id in PROJECT_RULE_IDS]
    return per_file, project


def _module_findings(
    path: str,
    tree: ast.Module,
    rules: Sequence[Rule],
    allowlist: Mapping[str, Sequence[str]],
) -> list[Finding]:
    active = [
        rule.id for rule in rules if not allowlisted(path, rule.id, allowlist)
    ]
    if not active:
        return []
    ctx = ModuleContext.build(path, tree)
    return run_checkers(ctx, active)


def lint_source(
    source: str,
    path: str,
    rules: Optional[Sequence[Rule]] = None,
    allowlist: Optional[Mapping[str, Sequence[str]]] = None,
) -> list[Finding]:
    """Lint one source string; returns surviving (non-suppressed) findings.

    Project rules run against a single-module project, so cross-module
    cross-checks degrade gracefully (a guard in another file is simply
    not checked here).  Raises ``SyntaxError`` if the source does not
    parse — callers decide whether that is fatal (the CLI reports it as
    its own failure).
    """
    if rules is None:
        rules = get_rules()
    if allowlist is None:
        allowlist = DEFAULT_ALLOWLIST
    tree = ast.parse(source, filename=path)
    per_file, project_rules = _split_rules(rules)
    findings = _module_findings(path, tree, per_file, allowlist)
    active_project = [
        rule.id
        for rule in project_rules
        if not allowlisted(path, rule.id, allowlist)
    ]
    if active_project:
        project = ProjectContext.build([(path, tree)])
        findings.extend(run_project_checkers(project, active_project))
    if not findings:
        return []
    pragmas = extract_pragmas(source, tree)
    findings = [f for f in findings if not pragmas.suppresses(f.line, f.rule_id)]
    findings.sort(key=lambda f: (f.line, f.col, f.rule_id))
    return findings


def iter_python_files(
    paths: Iterable[str | Path], missing: Optional[list[str]] = None
) -> list[Path]:
    """Expand files/directories into a sorted list of ``.py`` files.

    Entries that exist but are neither a ``.py`` file nor a directory are
    ignored; entries that do not exist at all are appended to ``missing``
    (a typo'd path must not silently lint zero files and pass CI).
    """
    out: set[Path] = set()
    for entry in paths:
        p = Path(entry)
        if p.is_file() and p.suffix == ".py":
            out.add(p)
        elif p.is_dir():
            for sub in p.rglob("*.py"):
                if not any(_skip_part(part) for part in sub.parts):
                    out.add(sub)
        elif not p.exists() and missing is not None:
            missing.append(str(p))
    return sorted(out)


def lint_paths(
    paths: Iterable[str | Path],
    rules: Optional[Sequence[Rule]] = None,
    allowlist: Optional[Mapping[str, Sequence[str]]] = None,
) -> LintResult:
    """Lint every ``.py`` file under ``paths``: both passes, one parse."""
    if rules is None:
        rules = get_rules()
    if allowlist is None:
        allowlist = DEFAULT_ALLOWLIST
    per_file, project_rules = _split_rules(rules)

    result = LintResult()
    missing: list[str] = []
    files = iter_python_files(paths, missing=missing)
    result.parse_errors.extend(f"{m}: path does not exist" for m in missing)

    parsed: list[tuple[str, str, ast.Module]] = []  # (path, source, tree)
    for path in files:
        try:
            source = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            result.parse_errors.append(f"{path}: unreadable: {exc}")
            continue
        result.files_checked += 1
        try:
            tree = ast.parse(source, filename=str(path))
        except SyntaxError as exc:
            result.parse_errors.append(
                f"{path}:{exc.lineno or 0}: syntax error: {exc.msg}"
            )
            continue
        parsed.append((str(path), source, tree))
        result.findings.extend(
            _module_findings(str(path), tree, per_file, allowlist)
        )

    if project_rules and parsed:
        project = ProjectContext.build((path, tree) for path, _source, tree in parsed)
        project_ids = [rule.id for rule in project_rules]
        result.findings.extend(
            f
            for f in run_project_checkers(project, project_ids)
            if not allowlisted(f.path, f.rule_id, allowlist)
        )

    # pragma suppression, per file, shared by both passes
    if result.findings:
        sources = {path: (source, tree) for path, source, tree in parsed}
        pragma_cache: dict[str, object] = {}
        kept: list[Finding] = []
        for finding in result.findings:
            index = pragma_cache.get(finding.path)
            if index is None:
                entry = sources.get(finding.path)
                if entry is None:
                    kept.append(finding)
                    continue
                index = extract_pragmas(entry[0], entry[1])
                pragma_cache[finding.path] = index
            if not index.suppresses(finding.line, finding.rule_id):
                kept.append(finding)
        result.findings = kept

    result.findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule_id))
    return result
