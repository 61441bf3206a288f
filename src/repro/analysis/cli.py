"""``repro lint`` — run simlint's per-file rules.

Exit status is 0 when no findings survive pragma suppression, 1
otherwise (2 for usage errors), so the command gates CI directly.
Beyond the rule catalog this front-end drives:

``--format github``
    GitHub Actions ``::error`` annotations (inline PR comments) in
    addition to the text report.
``--format markdown`` (with ``--list-rules``)
    The committed rule-catalog table (``docs/simlint-rules.md``); CI
    regenerates and diffs it.
``--audit-suppressions``
    Reports ``# simlint: disable`` pragmas that no longer silence any
    finding, so stale suppressions rot out of the tree.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional, Sequence

from .engine import (FileLintResult, Finding, collect_files,
                     findings_to_json, lint_files_detailed,
                     render_findings)
from .rules import ALL_RULES, rules_by_category, rules_by_id

_CATEGORIES = ("determinism", "kernel")


def _excluded(relpath: str, excludes: Sequence[str]) -> bool:
    norm = relpath.replace(os.sep, "/")
    return any(norm.startswith(prefix.rstrip("/") + "/")
               or norm == prefix.rstrip("/")
               for prefix in excludes)


def _split_select(select: str) -> List[str]:
    """The rule ids that ``--select`` names.

    Tokens may be rule ids or a category name (``determinism``/
    ``kernel``), which expands to every rule in it.  An unknown token,
    or no token at all (``--select ","``), raises KeyError: a select
    that names nothing must not turn the gate off.
    """
    rule_ids = {rule.id for rule in ALL_RULES}
    selected: List[str] = []
    tokens = [t.strip() for t in select.split(",") if t.strip()]
    if not tokens:
        raise KeyError(f"--select {select!r} names no simlint rule")
    for token in tokens:
        if token in _CATEGORIES:
            selected.extend(r.id for r in rules_by_category(token))
        elif token in rule_ids:
            selected.append(token)
        else:
            known = sorted(rule_ids) + list(_CATEGORIES)
            raise KeyError(f"unknown simlint rule(s): ['{token}']; "
                           f"known: {known}")
    return selected


def _render_github(findings: Sequence[Finding]) -> None:
    """GitHub Actions workflow-command annotations, one per finding."""
    for f in findings:
        message = f.message.replace("%", "%25").replace(
            "\r", "%0D").replace("\n", "%0A")
        print(f"::error file={f.path},line={f.line},col={f.col},"
              f"title=simlint {f.rule}::{message}")


def _render_markdown_catalog() -> None:
    print("# simlint rule catalog")
    print()
    print("<!-- generated by `repro lint --list-rules --format markdown`"
          " — do not edit by hand; CI diffs this file. -->")
    print()
    print("| Rule | Category | Description |")
    print("| --- | --- | --- |")
    for rule in ALL_RULES:
        print(f"| `{rule.id}` | {rule.category} | {rule.summary} |")


def _audit(results: Sequence[FileLintResult]) -> List[str]:
    """Stale-suppression report lines (empty == all pragmas earn keep).

    A directive is *used* when some finding it names was actually
    silenced by it — line-scope directives must match the finding's
    line, file-scope ones match anywhere in the file.  Everything else
    is stale: the hazard was fixed, the rule changed, or the pragma
    never matched.
    """
    lines: List[str] = []
    for result in results:
        hits = result.suppressed
        for line, scope, rules in result.suppressions.directives:
            for rule_id in rules:
                used = any(
                    (rule_id == "all" or f.rule == rule_id)
                    and (scope == "disable-file" or f.line == line)
                    for f in hits)
                if not used:
                    lines.append(
                        f"{result.relpath}:{line}: stale suppression "
                        f"[{rule_id}] ({scope}): no finding matches")
    return sorted(lines)


def lint_main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description="simlint: determinism & kernel-lifecycle static "
                    "analysis for the simulation codebase.")
    parser.add_argument("paths", nargs="*", default=["src"],
                        help="files/directories to lint (default: src)")
    parser.add_argument("--json", metavar="FILE", dest="json_path",
                        help="also write a JSON report "
                             "('-' for stdout instead of the text report)")
    parser.add_argument("--select", metavar="RULES",
                        help="comma-separated rule ids or categories "
                             "(determinism/kernel) to run (default: all)")
    parser.add_argument("--exclude", metavar="PREFIX", action="append",
                        default=[],
                        help="skip files under this path prefix "
                             "(repeatable)")
    parser.add_argument("--format", choices=("text", "github", "markdown"),
                        default="text",
                        help="output format (github adds ::error "
                             "annotations; markdown only with "
                             "--list-rules)")
    parser.add_argument("--audit-suppressions", action="store_true",
                        help="report stale '# simlint: disable' pragmas "
                             "instead of findings")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalog and exit")
    args = parser.parse_args(argv)

    if args.list_rules:
        if args.format == "markdown":
            _render_markdown_catalog()
        else:
            for rule in ALL_RULES:
                print(f"{rule.id:20s} [{rule.category}] {rule.summary}")
        return 0

    rules: Sequence = ALL_RULES
    if args.select is not None:
        try:
            rules = rules_by_id(_split_select(args.select))
        except KeyError as exc:
            print(f"repro lint: {exc.args[0]}", file=sys.stderr)
            return 2

    paths = args.paths or ["src"]
    files = [f for f in collect_files(paths)
             if not _excluded(f, args.exclude)]
    if not files:
        print(f"repro lint: no python files under {paths}",
              file=sys.stderr)
        return 2

    results = lint_files_detailed(files, rules)
    findings = [f for result in results for f in result.findings]

    if args.audit_suppressions:
        stale = _audit(results)
        for line in stale:
            print(line)
        if args.format == "github":
            for line in stale:
                path, lineno, rest = line.split(":", 2)
                print(f"::error file={path},line={lineno},"
                      f"title=simlint stale suppression::{rest.strip()}")
        print(f"simlint audit: {len(stale)} stale suppression(s)")
        return 1 if stale else 0

    payload = findings_to_json(findings, checked_files=len(files),
                               rule_ids=[r.id for r in rules])
    if args.json_path == "-":
        print(payload)
    else:
        render_findings(findings)
        if args.format == "github":
            _render_github(findings)
        if args.json_path:
            with open(args.json_path, "w", encoding="utf-8") as fh:
                fh.write(payload + "\n")
            print(f"wrote {args.json_path}", file=sys.stderr)
    return 1 if findings else 0
