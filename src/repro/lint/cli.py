"""Command-line interface: ``python -m repro.lint`` / ``repro-lint``.

Exit status: 0 clean, 1 findings, 2 usage or parse errors — so CI can
distinguish "the tree violates an invariant" from "the linter could not run".

In ``--strict`` mode the exit status is computed against the baseline
ratchet (``.simlint-baseline.json``): baselined findings are tolerated
and reported, new ones fail.
"""

from __future__ import annotations

import argparse
import sys
import textwrap
from pathlib import Path
from typing import Optional, Sequence

from .baseline import (
    DEFAULT_BASELINE_NAME,
    apply_baseline,
    find_baseline,
    load_baseline,
    write_baseline,
)
from .registry import ALL_RULES, RULES_BY_ID, get_rules
from .report import render_json, render_sarif, render_text
from .runner import lint_paths

__all__ = ["main", "build_parser"]


def _tool_version() -> str:
    try:
        from importlib.metadata import version

        return version("repro")
    except Exception:
        return "0"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description=(
            "Determinism & unit-correctness static analysis for the "
            "repro simulator (per-file rules SIM001-SIM007, project-level "
            "dataflow rules SIM008-SIM011; see docs/linting.md)."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src", "benchmarks", "examples"],
        help="files or directories to lint (default: src benchmarks examples)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--select",
        metavar="IDS",
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--disable",
        metavar="IDS",
        help="comma-separated rule ids to skip",
    )
    parser.add_argument(
        "--no-allowlist",
        action="store_true",
        help="ignore the built-in file allowlist (report everything)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )
    parser.add_argument(
        "--explain",
        metavar="SIMxxx",
        help="print one rule's full rationale and exit",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help=(
            "gate against the baseline ratchet: findings recorded in "
            f"{DEFAULT_BASELINE_NAME} are tolerated, anything new fails"
        ),
    )
    parser.add_argument(
        "--baseline",
        metavar="FILE",
        type=Path,
        help=(
            "baseline file for --strict / --write-baseline (default: "
            f"nearest {DEFAULT_BASELINE_NAME} above the linted paths)"
        ),
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="record the current findings as the new baseline and exit 0",
    )
    parser.add_argument(
        "--sarif-file",
        metavar="FILE",
        type=Path,
        help="additionally write a SARIF 2.1.0 log to FILE",
    )
    return parser


def _explain(rule_id: str) -> int:
    rule = RULES_BY_ID.get(rule_id.strip().upper())
    if rule is None:
        print(
            f"error: unknown rule id {rule_id!r} "
            f"(known: {', '.join(sorted(RULES_BY_ID))})",
            file=sys.stderr,
        )
        return 2
    print(f"{rule.id} ({rule.name})")
    print(f"  {rule.summary}")
    if rule.rationale:
        print()
        print(textwrap.fill(rule.rationale, width=78, initial_indent="  ",
                            subsequent_indent="  "))
    print()
    print(f"  Suppress with: # simlint: disable={rule.id} -- <justification>")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.explain:
        return _explain(args.explain)

    if args.list_rules:
        for rule in ALL_RULES:
            print(f"{rule.id}  {rule.name}")
            print(f"    {rule.summary}")
        return 0

    try:
        rules = get_rules(
            select=args.select.split(",") if args.select else None,
            disable=args.disable.split(",") if args.disable else None,
        )
    except ValueError as exc:
        parser.error(str(exc))  # exits 2

    allowlist = {} if args.no_allowlist else None
    result = lint_paths(args.paths, rules=rules, allowlist=allowlist)

    lint_root = Path.cwd()
    if args.sarif_file is not None:
        args.sarif_file.parent.mkdir(parents=True, exist_ok=True)
        args.sarif_file.write_text(
            render_sarif(
                result.findings, rules, root=lint_root, tool_version=_tool_version()
            )
            + "\n"
        )

    if args.write_baseline:
        target = args.baseline or Path(DEFAULT_BASELINE_NAME)
        entries = write_baseline(target, result.findings)
        print(
            f"simlint: wrote baseline with {entries} entr"
            f"{'y' if entries == 1 else 'ies'} "
            f"({len(result.findings)} finding(s)) to {target}"
        )
        for error in result.parse_errors:
            print(f"error: {error}", file=sys.stderr)
        return 2 if result.parse_errors else 0

    display = result.findings
    gate = result.findings
    baselined_count = 0
    stale = []
    if args.strict:
        baseline_path = find_baseline(
            [Path(p) for p in args.paths], args.baseline
        )
        baseline = load_baseline(baseline_path) if baseline_path else {}
        split = apply_baseline(result.findings, baseline)
        gate = split.new
        display = split.new
        baselined_count = len(split.baselined)
        stale = split.stale

    if args.format == "json":
        print(render_json(display, result.files_checked))
    elif args.format == "sarif":
        print(
            render_sarif(
                display, rules, root=lint_root, tool_version=_tool_version()
            )
        )
    else:
        print(render_text(display, result.files_checked))
        if args.strict and baselined_count:
            print(f"simlint: {baselined_count} baselined finding(s) tolerated")
    for entry in stale:
        print(
            "warning: stale baseline entry (fix landed - remove it): "
            f"{entry['path']}: {entry['rule_id']} {entry['message']!r}",
            file=sys.stderr,
        )
    for error in result.parse_errors:
        print(f"error: {error}", file=sys.stderr)

    if result.parse_errors:
        return 2
    return 0 if not gate else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
